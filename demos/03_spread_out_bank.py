"""The instant memory bank and its spread-out regularizer in isolation.

Each anchor keeps its k nearest bank entries (plus its own slot) close and
pushes every other entry away. The bank entries receive analytic gradients
and a renormalized descent step each call, so repeatedly regularizing the
same anchors drives the loss down while every entry stays on the unit
sphere. The bank itself is only its rows: the number of positives is an
argument of ``spread_loss`` (``TrainConfig.k_pos`` in a training run), which
picks each anchor's positives with ``positive_sets`` from the one
anchor-to-bank similarity matrix it computes.
"""

import numpy as np

from reidapt.data import l2_normalize
from reidapt.membank import init_bank, instant_update, spread_loss

rng = np.random.default_rng(0)
n, d, batch = 64, 16, 8

bank = init_bank(rng.standard_normal((n, d)))
anchors = l2_normalize(rng.standard_normal((batch, d)))
idx = rng.choice(n, size=batch, replace=False)

print("iter   spread loss   max |norm-1|")
for step in range(8):
    # 4 nearest entries plus the anchor's own slot are its positives
    loss, grad_anchor, grad_bank = spread_loss(anchors, bank, idx, k_pos=4, margin=0.35)
    instant_update(bank, grad_bank, eta=0.05)
    drift = np.max(np.abs(np.linalg.norm(bank.v, axis=1) - 1.0))
    print(f"{step:4d}   {loss:11.4f}   {drift:.2e}")

# with a margin of zero and no negatives the loss is exactly zero
loss, _, _ = spread_loss(anchors, bank, idx, k_pos=n - 1, margin=0.35)
print(f"\nloss with every entry treated as a positive: {loss}")
