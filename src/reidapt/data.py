"""Dataset containers, synthetic identity-cluster generation, and binary file I/O.

Feature files use a small binary container: magic ``DRFT``, u32 row count,
u32 column count (both little-endian), then float32 little-endian row-major
payload. Label files are plain CSV with header ``index,identity,camera``.
Feature files are 32-bit; in-memory arrays and checkpoints are float64.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"DRFT"

#: Label value marking samples that belong to no cluster.
OUTLIER = -1

# Held-out samples generated per identity for the retrieval splits.
QUERIES_PER_IDENTITY = 3
GALLERY_PER_IDENTITY = 6


class FeatureFileError(Exception):
    """A binary feature container is malformed or cannot hold the matrix."""


class LabelFileError(Exception):
    """A label CSV file is malformed."""


@dataclass
class Dataset:
    """Column-oriented sample store; ``raw`` holds one d_in vector per row."""

    raw: np.ndarray        # (N, d_in) float64
    identity: np.ndarray   # (N,) int64, ground truth, evaluation only
    camera: np.ndarray     # (N,) int64

    def __post_init__(self):
        if self.raw.ndim != 2 or len(self.raw) == 0:
            raise ValueError("dataset requires a nonempty (N, d_in) raw matrix")
        if not (len(self.raw) == len(self.identity) == len(self.camera)):
            raise ValueError("raw/identity/camera lengths disagree")

    def __len__(self) -> int:
        return len(self.raw)


@dataclass(frozen=True)
class SynthSpec:
    """Controls the synthetic two-domain identity generator."""

    num_identities: int
    samples_per_identity: int
    num_cameras: int = 2
    d_in: int = 32
    identity_spread: float = 1.0
    intra_noise: float = 0.0
    camera_shift_scale: float = 0.0
    domain_shift: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_identities", "samples_per_identity", "num_cameras", "d_in"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("identity_spread", "intra_noise", "camera_shift_scale", "domain_shift"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.num_cameras < 2:
            # every query needs at least one cross-camera gallery match
            raise ValueError("num_cameras must be >= 2 for cross-camera retrieval")


def l2_normalize(m: np.ndarray) -> np.ndarray:
    """Return a copy of ``m`` with unit-L2 rows; rejects zero rows."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot L2-normalize a zero row")
    return m / norms


def _domain_transform(rng, d_in, magnitude):
    """Random rotation-plus-offset with strength ``magnitude`` (identity at 0)."""
    g = rng.standard_normal((d_in, d_in)) / np.sqrt(d_in)
    a = 0.5 * magnitude * (g - g.T)
    # Cayley transform: orthogonal for any skew-symmetric a, continuous in magnitude
    eye = np.eye(d_in)
    rot = np.linalg.solve((eye + a).T, (eye - a).T).T
    offset = magnitude * rng.standard_normal(d_in) / np.sqrt(d_in)
    return rot, offset


def _draw_split(rng, spec, centers, cam_offsets, identity_base, camera):
    """Samples of each identity in turn, ``len(camera) // len(centers)`` per
    identity, the i-th seen by camera ``camera[i]``."""
    identity = np.repeat(np.arange(len(centers)), len(camera) // len(centers))
    raw = centers[identity] + cam_offsets[camera]
    raw += spec.intra_noise * rng.standard_normal(raw.shape)
    return raw, identity_base + identity, camera


def generate_synthetic(spec: SynthSpec):
    """Generate (source, target_train, target_query, target_gallery).

    Identity centers are drawn once per domain and the two domains use
    disjoint identity ids. The target query/gallery splits reuse the target
    identities with fresh samples; gallery cameras are cycled so every query
    has a cross-camera match. Output is a pure function of ``spec.seed``.
    """
    rng = np.random.default_rng(spec.seed)
    k, d = spec.num_identities, spec.d_in

    src_centers = spec.identity_spread * rng.standard_normal((k, d))
    tgt_centers = spec.identity_spread * rng.standard_normal((k, d))

    def camera_offsets():
        g = rng.standard_normal((spec.num_cameras, d))
        return spec.camera_shift_scale * g / np.linalg.norm(g, axis=1, keepdims=True)

    src_cam = camera_offsets()
    tgt_cam = camera_offsets()
    rot, offset = _domain_transform(rng, d, spec.domain_shift)

    c, per_id = spec.num_cameras, spec.samples_per_identity
    queries, gallery = np.arange(QUERIES_PER_IDENTITY), np.arange(GALLERY_PER_IDENTITY)
    src = _draw_split(rng, spec, src_centers, src_cam, 0, rng.integers(c, size=k * per_id))
    tt = _draw_split(rng, spec, tgt_centers, tgt_cam, k, rng.integers(c, size=k * per_id))
    tq = _draw_split(rng, spec, tgt_centers, tgt_cam, k, np.tile(queries % c, k))
    tg = _draw_split(rng, spec, tgt_centers, tgt_cam, k, np.tile((gallery + 1) % c, k))

    datasets = [Dataset(*src)]
    for raw, identity, camera in (tt, tq, tg):
        datasets.append(Dataset(raw @ rot.T + offset, identity, camera))
    return tuple(datasets)


def write_features(path, m: np.ndarray):
    """Write a matrix to ``path`` in the DRFT container (float32 payload), via
    a ``.tmp`` file renamed into place: a write that stops midway keeps the old file."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise FeatureFileError(f"expected a 2-D matrix, got shape {m.shape}")
    n, d = m.shape
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", n, d))
        fh.write(np.ascontiguousarray(m, dtype="<f4").tobytes())
    os.replace(tmp, path)


def read_features(path) -> np.ndarray:
    """Read a DRFT container back as a float64 (N, d) matrix; a payload with
    a NaN or infinite entry is rejected."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise FeatureFileError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise FeatureFileError(f"{path}: header incomplete")
    n, d = struct.unpack("<II", blob[4:12])
    expected = 12 + 4 * n * d
    if len(blob) < expected:
        raise FeatureFileError(f"{path}: payload has {len(blob) - 12} bytes, wants {4 * n * d}")
    if len(blob) > expected:
        raise FeatureFileError(f"{path}: {len(blob) - expected} trailing bytes")
    payload = np.frombuffer(blob, dtype="<f4", offset=12)
    if not np.all(np.isfinite(payload)):
        raise FeatureFileError(f"{path}: payload holds a NaN or infinite value")
    return payload.reshape(n, d).astype(np.float64)


def write_labels(path, identity: np.ndarray, camera: np.ndarray):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "identity", "camera"])
        for i, (pid, cam) in enumerate(zip(identity, camera)):
            writer.writerow([i, int(pid), int(cam)])


def read_labels(path):
    """Read a label CSV; returns (identity, camera) aligned to row index order.

    Duplicate or non-contiguous indices and non-integer fields are rejected.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        missing = {"index", "identity", "camera"} - set(fields)
        if missing:
            raise LabelFileError(f"{path}: missing column(s) {sorted(missing)}")
        rows = {}
        for rec in reader:
            try:
                idx = int(rec["index"])
                ident = int(rec["identity"])
                cam = int(rec["camera"])
            except (TypeError, ValueError):
                raise LabelFileError(f"{path}: non-integer field in row {rec}") from None
            if idx in rows:
                raise LabelFileError(f"{path}: duplicate index {idx}")
            rows[idx] = (ident, cam)
    if not rows:
        raise LabelFileError(f"{path}: no data rows")
    n = len(rows)
    if sorted(rows) != list(range(n)):
        raise LabelFileError(f"{path}: indices must cover 0..{n - 1} exactly")
    identity = np.array([rows[i][0] for i in range(n)], dtype=np.int64)
    camera = np.array([rows[i][1] for i in range(n)], dtype=np.int64)
    return identity, camera
