"""The off-line labeling pass, step by step.

Each encoder feature's nearest neighbors are sparsified through the
k-reciprocal neighborhood, turned into Jaccard distances for the pairs that
share a reciprocal neighbor (every other pair is at 1.0), and clustered with
DBSCAN; every coarse cluster is then split by k-means into prototypes and
each sample is reassigned to the cluster whose prototypes it matches best on
average. With a deliberately loose eps, DBSCAN chains identities together
and the prototype vote visibly repairs part of the damage.
"""

import numpy as np

from reidapt.cluster import dbscan
from reidapt.data import SynthSpec, generate_synthetic
from reidapt.evaluate import pairwise_fscore
from reidapt.graph import build_distance_graph, offdiag_percentile
from reidapt.refine import refine_labels
from reidapt.trainer import TrainConfig, extract_features, pretrain_source

spec = SynthSpec(num_identities=64, samples_per_identity=20, num_cameras=4,
                 d_in=32, identity_spread=1.0, intra_noise=0.6,
                 camera_shift_scale=0.6, domain_shift=12.0, seed=13)
source, train, _, _ = generate_synthetic(spec)

cfg = TrainConfig(pretrain_epochs=30, seed=13)
encoder = pretrain_source(source.raw, source.identity, cfg)
feats = extract_features(encoder, train.raw)

d_j = build_distance_graph(feats, k_rr=20).jaccard()
pairs = len(feats) * (len(feats) - 1) // 2
print(f"Jaccard graph: {len(d_j.values)} of {pairs} pairs share a reciprocal "
      f"neighbor; every other pair is at distance 1.0")
print(f"Jaccard distances: median {offdiag_percentile(d_j, 50):.3f}, "
      f"1.1th percentile {offdiag_percentile(d_j, 1.1):.3f}")

eps = offdiag_percentile(d_j, 1.1)
coarse = dbscan(d_j, eps, min_pts=12)
print(f"DBSCAN: {coarse.num_clusters} clusters, "
      f"{int(np.sum(coarse.assignment == -1))} outliers "
      f"(64 identities generated)")

labels, protos = refine_labels(feats, coarse, r=5, seed=13)
moved = labels.relabel_fraction()

_, _, f_coarse = pairwise_fscore(labels.coarse, train.identity)
_, _, f_refined = pairwise_fscore(labels.refined, train.identity)
print(f"\nprototype refinement moved {100 * moved:.1f}% of the samples")
print(f"pairwise F-score: coarse {f_coarse:.3f} -> refined {f_refined:.3f}")
