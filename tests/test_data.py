import numpy as np
import pytest

import oracles
from reidapt.data import (
    FeatureFileError,
    LabelFileError,
    SynthSpec,
    generate_synthetic,
    l2_normalize,
    read_features,
    read_labels,
    write_features,
    write_labels,
)


def spec(**kw):
    base = dict(num_identities=8, samples_per_identity=6, num_cameras=3, d_in=10,
                identity_spread=1.0, intra_noise=0.2, camera_shift_scale=0.1,
                domain_shift=0.5, seed=7)
    base.update(kw)
    return SynthSpec(**base)


class TestGenerateSynthetic:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic(spec(seed=7))
        b = generate_synthetic(spec(seed=7))
        for da, db in zip(a, b):
            assert da.raw.tobytes() == db.raw.tobytes()
            assert np.array_equal(da.identity, db.identity)
            assert np.array_equal(da.camera, db.camera)

    def test_matches_row_by_row_oracle(self):
        shapes = [dict(), dict(num_identities=1, samples_per_identity=1, num_cameras=2),
                  dict(num_identities=13, samples_per_identity=5, num_cameras=7, d_in=3),
                  dict(num_identities=40, samples_per_identity=20, num_cameras=2, d_in=32,
                       intra_noise=0.0)]
        for shape in shapes:
            for seed in range(5):
                got = generate_synthetic(spec(seed=seed, **shape))
                want = oracles.generate_synthetic(spec(seed=seed, **shape))
                for g, w in zip(got, want, strict=True):
                    for name in ("raw", "identity", "camera"):
                        a, b = getattr(g, name), getattr(w, name)
                        assert (a.dtype, a.shape) == (b.dtype, b.shape)
                        assert a.tobytes() == b.tobytes()

    def test_different_seed_different_centers(self):
        a = generate_synthetic(spec(seed=1))
        b = generate_synthetic(spec(seed=2))
        assert not np.allclose(a[0].raw, b[0].raw)

    def test_zero_noise_identical_within_identity(self):
        source, train, _, _ = generate_synthetic(
            spec(intra_noise=0.0, camera_shift_scale=0.0, domain_shift=0.0))
        for ds in (source, train):
            for pid in np.unique(ds.identity):
                rows = ds.raw[ds.identity == pid]
                assert np.all(rows == rows[0])
        # cross-identity distance strictly positive
        first = {pid: train.raw[train.identity == pid][0] for pid in np.unique(train.identity)}
        pids = sorted(first)
        for i in range(len(pids)):
            for j in range(i + 1, len(pids)):
                assert np.linalg.norm(first[pids[i]] - first[pids[j]]) > 0

    def test_target_train_count(self):
        _, train, _, _ = generate_synthetic(
            SynthSpec(num_identities=64, samples_per_identity=20, d_in=32, seed=0))
        assert len(train) == 1280
        assert train.raw.shape[1] == 32

    def test_disjoint_identity_sets(self):
        source, train, query, gallery = generate_synthetic(spec())
        assert not set(source.identity) & set(train.identity)
        assert set(query.identity) == set(gallery.identity) == set(train.identity)

    def test_every_query_has_cross_camera_match(self):
        _, _, query, gallery = generate_synthetic(spec())
        for i in range(len(query)):
            mask = (gallery.identity == query.identity[i]) & (gallery.camera != query.camera[i])
            assert mask.any()

    def test_rejects_single_camera(self):
        with pytest.raises(ValueError):
            generate_synthetic(spec(num_cameras=1))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            generate_synthetic(spec(num_identities=0))
        with pytest.raises(ValueError):
            generate_synthetic(spec(intra_noise=-0.1))

    def test_domain_shift_is_an_isometry(self):
        plain = generate_synthetic(spec(domain_shift=0.0, seed=3))
        shifted = generate_synthetic(spec(domain_shift=2.0, seed=3))
        # same seed means same pre-transform draws; pairwise distances survive
        d0 = np.linalg.norm(plain[1].raw[0] - plain[1].raw[1])
        d1 = np.linalg.norm(shifted[1].raw[0] - shifted[1].raw[1])
        assert d1 == pytest.approx(d0, rel=1e-9)
        assert not np.allclose(plain[1].raw, shifted[1].raw)


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        # persistence is float32: a float32-valued matrix round-trips exactly
        m = rng.standard_normal((3, 4)).astype(np.float32).astype(np.float64)
        path = tmp_path / "m.drft"
        write_features(path, m)
        back = read_features(path)
        assert back.dtype == np.float64
        assert back.tobytes() == m.tobytes()

    def test_round_trip_random_sizes(self, tmp_path):
        rng = np.random.default_rng(1)
        for n, d in [(1, 1), (5, 17), (40, 3)]:
            m = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
            write_features(tmp_path / "x.drft", m)
            assert np.array_equal(read_features(tmp_path / "x.drft"), m)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.drft"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FeatureFileError, match="bad.drft: bad magic b'NOPE'"):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.drft"
        write_features(path, np.ones((3, 4)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])  # drop one float32
        with pytest.raises(FeatureFileError, match="trunc.drft: payload has 44 bytes, wants 48"):
            read_features(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "hdr.drft"
        path.write_bytes(b"DRFT\x01\x00")
        with pytest.raises(FeatureFileError, match="hdr.drft: header incomplete"):
            read_features(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.drft"
        write_features(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(FeatureFileError, match="long.drft: 4 trailing bytes"):
            read_features(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        path = tmp_path / "nan.drft"
        m = np.ones((3, 4))
        m[2, 1] = bad
        write_features(path, m)
        with pytest.raises(FeatureFileError, match="nan.drft.*NaN or infinite"):
            read_features(path)

    def test_write_rejects_non_matrix(self, tmp_path):
        with pytest.raises(FeatureFileError, match=r"expected a 2-D matrix, got shape \(5,\)"):
            write_features(tmp_path / "v.drft", np.ones(5))


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels(path, np.array([4, 4, 9]), np.array([0, 1, 0]))
        identity, camera = read_labels(path)
        assert identity.tolist() == [4, 4, 9]
        assert camera.tolist() == [0, 1, 0]

    def test_rows_sorted_by_index(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("index,identity,camera\n2,30,1\n0,10,0\n1,20,1\n")
        identity, camera = read_labels(path)
        assert identity.tolist() == [10, 20, 30]

    def test_duplicate_index(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("index,identity,camera\n5,1,0\n5,2,1\n")
        with pytest.raises(LabelFileError, match="labels.csv: duplicate index 5"):
            read_labels(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("index,identity\n0,1\n")
        with pytest.raises(LabelFileError, match=r"labels.csv: missing column\(s\) \['camera'\]"):
            read_labels(path)

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("index,identity,camera\n0,abc,0\n")
        with pytest.raises(LabelFileError, match="labels.csv: non-integer field in row"):
            read_labels(path)

    def test_gap_in_indices(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("index,identity,camera\n0,1,0\n2,1,0\n")
        with pytest.raises(LabelFileError, match=r"labels.csv: indices must cover 0..1 exactly"):
            read_labels(path)


def test_l2_normalize_unit_rows():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((20, 6))
    norms = np.linalg.norm(l2_normalize(m), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        l2_normalize(np.zeros((2, 3)))
