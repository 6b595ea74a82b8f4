"""Shared fixtures for the heavy panel runs used by the acceptance suite."""

import copy
import warnings
from dataclasses import replace

import numpy as np
import pytest

from reidapt.data import SynthSpec, generate_synthetic
from reidapt.evaluate import retrieval_eval
from reidapt.trainer import TrainConfig, adapt, extract_features, pretrain_source

# The standard synthetic fixture: 64 identities x 20 samples at d_in=32 with
# mid-level intra noise, camera structure, and a strong domain shift.
PANEL_SEEDS = tuple(range(11, 21))
STANDARD_DATA = dict(num_identities=64, samples_per_identity=20, num_cameras=4,
                     d_in=32, identity_spread=1.0, intra_noise=0.6,
                     camera_shift_scale=0.6, domain_shift=12.0)

# Adaptation experiment config: one decade above the reference lr scale so the
# encoder and bank move measurably within the 15-epoch desk-scale run.
ADAPT_SETTINGS = dict(pretrain_epochs=30, epochs=15, adapt_decay_epochs=(10, 13),
                      eps_percentile=0.7, min_pts=6, fine_clusters=5,
                      base_lr=5e-3)

# Run-to-run spread of one panel configuration, in mAP. Measured by adapting
# the same data and the same pretrained encoder on two adaptation streams
# (config seed s and s+100) over the ten panel seeds: the final mAP of one
# configuration moved by up to 0.039 for the baseline (seed 11), 0.033 for
# the momentum arm (seed 13), 0.025 for the full configuration (seed 11), and
# 0.041 for the full configuration when batches still followed the refined
# labels (seed 18). A per-seed comparison of two single runs cannot resolve
# a difference smaller than this, so the ablation gates bound each seed's
# loss by it instead of counting wins.
STREAM_SPREAD = 0.04

# Label-refinement experiment config: the contaminated-cluster regime where
# density chaining produces the noise the prototype vote repairs.
REFINE_SETTINGS = dict(pretrain_epochs=30, eps_percentile=1.1, min_pts=12,
                       fine_clusters=5)


def standard_fixture(seed):
    return generate_synthetic(SynthSpec(seed=seed, **STANDARD_DATA))


# TrainConfig fields that source pretraining does not read.
_ADAPTATION_ONLY = ("eps_percentile", "min_pts", "fine_clusters", "epochs")
_pretrained = {}


def pretrained_standard(seed, cfg):
    """A deep copy of the encoder pretrained under ``cfg`` on the source split
    of ``standard_fixture(seed)``. Each distinct pretraining runs once per
    session, on the first call that needs it; configs that differ only in
    ``_ADAPTATION_ONLY`` fields share it. A copy, because ``adapt`` mutates
    the state it is given."""
    key = (seed, replace(cfg, **{name: getattr(TrainConfig, name)
                                 for name in _ADAPTATION_ONLY}))
    if key not in _pretrained:
        source = standard_fixture(seed)[0]
        _pretrained[key] = pretrain_source(source.raw, source.identity, cfg)
    return copy.deepcopy(_pretrained[key])


def adapt_config(seed, **kw):
    merged = dict(ADAPT_SETTINGS, seed=seed)
    merged.update(kw)
    return TrainConfig(**merged)


def refine_config(seed, **kw):
    merged = dict(REFINE_SETTINGS, seed=seed)
    merged.update(kw)
    return TrainConfig(**merged)


def retrieval_map(state, query, gallery):
    return retrieval_eval(
        extract_features(state, query.raw), query.identity, query.camera,
        extract_features(state, gallery.raw), gallery.identity, gallery.camera,
    ).map


@pytest.fixture(scope="session")
def adaptation_panel():
    """Pretrain + three adaptation variants per panel seed.

    Returns {seed: {"direct": mAP, variant: {"map": mAP, "history": [...]}}
    for variants full (alpha=.5, mu=.1, instant bank), baseline (alpha=0,
    mu=0), and momentum (full losses, momentum bank).
    """
    panel = {}
    variants = {
        "full": {},
        "baseline": dict(alpha=0.0, mu=0.0),
        "momentum": dict(bank_mode="momentum"),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in PANEL_SEEDS:
            source, train, query, gallery = standard_fixture(seed)
            pretrained = pretrain_source(source.raw, source.identity,
                                         adapt_config(seed))
            entry = {"direct": retrieval_map(pretrained, query, gallery)}
            for name, overrides in variants.items():
                state = copy.deepcopy(pretrained)
                state, history, _ = adapt(state, train.raw,
                                          adapt_config(seed, **overrides),
                                          truth=train.identity)
                entry[name] = {"map": retrieval_map(state, query, gallery),
                               "history": history}
            panel[seed] = entry
    return panel
