"""The instant memory bank and its spread-out regularizer in isolation.

Each anchor keeps its k nearest bank entries (plus its own slot) close and
pushes every other entry away. The bank takes no gradient: the anchors take
a spread-out gradient step, and each step's anchors are written back into
their own slots by ``momentum_update`` at tau 0, as a training step writes
back its batch's unit features. Repeating this drives the loss down while
every entry stays on the unit sphere. The bank itself is only its rows: the
number of positives is an argument of ``spread_loss`` (``TrainConfig.k_pos``
in a training run), which picks each anchor's positives with
``positive_sets`` from the one anchor-to-bank similarity matrix it computes.
"""

import numpy as np

from reidapt.data import l2_normalize
from reidapt.membank import MemoryBank, momentum_update, spread_loss

rng = np.random.default_rng(0)
n, d, batch = 64, 16, 8
eta = 2.0  # the anchors' step; the loss averages over the batch

bank = MemoryBank(v=l2_normalize(rng.standard_normal((n, d))))
idx = rng.choice(n, size=batch, replace=False)
anchors = bank.v[idx]

print("iter   spread loss   max |norm-1|")
for step in range(8):
    # 4 nearest entries plus the anchor's own slot are its positives
    loss, grad_anchors = spread_loss(anchors, bank, idx, k_pos=4, margin=0.35)
    anchors = l2_normalize(anchors - eta * grad_anchors)
    momentum_update(bank, anchors, idx, tau=0.0)  # the instant write-back
    drift = np.max(np.abs(np.linalg.norm(bank.v, axis=1) - 1.0))
    print(f"{step:4d}   {loss:11.4f}   {drift:.2e}")

# with no negatives the loss is exactly zero, whatever the margin
loss, _ = spread_loss(anchors, bank, idx, k_pos=n - 1, margin=0.35)
print(f"\nloss with every entry treated as a positive: {loss}")
