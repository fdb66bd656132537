"""Volume I/O, normalization, manifests, fold splitting, and synthesis."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgnet3d as mg
from mgnet3d import (
    ArgumentError,
    DataError,
    FoldAssignment,
    FormatError,
    Manifest,
    VolumeRecord,
)
from mgnet3d.data import atomic_write


def write_vol3(path, shape, payload_floats):
    with open(path, "wb") as fh:
        fh.write(b"VOL3")
        fh.write(np.asarray([1, *shape], dtype="<u4").tobytes())
        fh.write(np.asarray(payload_floats, dtype="<f4").tobytes())


def make_manifest(class_sizes, scans_per_subject=1):
    records = []
    for label, count in enumerate(class_sizes):
        for i in range(count):
            sid = f"c{label}s{i:03d}"
            for j in range(scans_per_subject):
                records.append(VolumeRecord(sid, f"s{j}", label, f"/nowhere/{sid}_{j}.vol"))
    return Manifest(records)


class TestVolumeIO:
    def test_round_trip_bitwise(self, rng, tmp_path):
        vol = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        path = tmp_path / "v.vol"
        mg.save_volume(path, vol)
        back = mg.load_volume(path)
        assert isinstance(back, np.ndarray) and back.dtype == np.float32
        assert back.tobytes() == vol.tobytes()
        assert mg.read_volume_header(path) == (2, 3, 4, 5)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.vol"
        write_vol3(path, (1, 2, 2, 2), np.zeros(7))
        with pytest.raises(FormatError):
            mg.load_volume(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "m.vol"
        write_vol3(path, (1, 1, 1, 1), [0.0])
        raw = bytearray(path.read_bytes())
        raw[:4] = b"VOL2"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            mg.load_volume(path)

    def test_non_finite_values(self, tmp_path):
        path = tmp_path / "n.vol"
        write_vol3(path, (1, 1, 1, 2), [1.0, np.nan])
        with pytest.raises(DataError):
            mg.load_volume(path)

    def test_extent_product_overflowing_int64(self, tmp_path):
        # 65536**4 = 2**64 wraps to 0 in int64, the length of an empty payload.
        path = tmp_path / "huge.vol"
        write_vol3(path, (65536,) * 4, [])
        assert path.stat().st_size == 24
        with pytest.raises(FormatError, match="header declares 18446744073709551616"):
            mg.load_volume(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.vol"
        with open(path, "wb") as fh:
            fh.write(b"VOL3")
            fh.write(np.asarray([2, 1, 1, 1, 1], dtype="<u4").tobytes())
            fh.write(np.zeros(1, dtype="<f4").tobytes())
        with pytest.raises(FormatError):
            mg.load_volume(path)


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_bytes(b"old report\n")
        with atomic_write(path) as fh:
            fh.write(b"new ")
            fh.write(b"report\n")
        assert path.read_bytes() == b"new report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    def test_failure_midway_keeps_old_file(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_bytes(b"old report\n")
        with pytest.raises(RuntimeError, match="interrupted"):
            with atomic_write(path) as fh:
                fh.write(b"partial")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


class TestNormalize:
    def test_two_values(self):
        vol = np.asarray([0.0, 2.0, 0.0, 2.0], dtype=np.float32).reshape(1, 1, 2, 2)
        out = mg.normalize(vol)
        assert np.allclose(out, [[-1.0, 1.0], [-1.0, 1.0]], atol=1e-7)

    def test_result_is_standardized(self, rng):
        vol = rng.normal(loc=5.0, scale=3.0, size=(1, 4, 4, 4)).astype(np.float32)
        out = mg.normalize(vol)
        assert abs(out.mean(dtype=np.float64)) < 1e-5
        assert abs(out.std(dtype=np.float64) - 1.0) < 1e-5

    def test_idempotent(self, rng):
        vol = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
        once = mg.normalize(vol)
        twice = mg.normalize(once)
        assert np.abs(once - twice).max() < 1e-5

    def test_affine_invariance(self, rng):
        vol = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
        shifted = 2.5 * vol + 7.0
        a = mg.normalize(vol)
        b = mg.normalize(shifted)
        assert np.abs(a - b).max() < 1e-4

    def test_constant_volume_rejected(self):
        with pytest.raises(DataError):
            mg.normalize(np.full((1, 2, 2, 2), 3.0, dtype=np.float32))

    @pytest.mark.parametrize("values", [
        [1.4e-45] + [0.0] * 7,  # std rounds to 0 in float32
        [3.4e38] + [-3.4e38] * 7,  # x - mean overflows float32
    ])
    def test_non_finite_z_score_rejected(self, values):
        vol = np.asarray(values, dtype=np.float32).reshape(1, 2, 2, 2)
        with pytest.raises(DataError, match="not finite in float32"):
            mg.normalize(vol)


class TestManifest:
    def test_save_load_round_trip(self, rng, tmp_path):
        vol = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
        paths = []
        for i in range(3):
            p = tmp_path / f"v{i}.vol"
            mg.save_volume(p, vol)
            paths.append(p)
        records = [
            VolumeRecord("a", "s0", 0, str(paths[0])),
            VolumeRecord("a", "s1", 0, str(paths[1])),
            VolumeRecord("b", "s0", 1, str(paths[2])),
        ]
        manifest = Manifest(records, (1, 4, 4, 4))
        mpath = tmp_path / "manifest.csv"
        mg.save_manifest(manifest, mpath)
        loaded = mg.load_manifest(mpath)
        assert [(r.subject_id, r.scan_id, r.label) for r in loaded.records] == [
            ("a", "s0", 0),
            ("a", "s1", 0),
            ("b", "s0", 1),
        ]
        assert loaded.geometry == (1, 4, 4, 4)
        assert loaded.records[0].volume_path == str(paths[0])

    def test_duplicate_scan_rejected(self):
        with pytest.raises(DataError):
            Manifest(
                [VolumeRecord("a", "s0", 0, "x"), VolumeRecord("a", "s0", 0, "y")]
            )

    def test_conflicting_labels_rejected(self):
        with pytest.raises(DataError):
            Manifest(
                [VolumeRecord("a", "s0", 0, "x"), VolumeRecord("a", "s1", 1, "y")]
            )

    def test_bad_label_rejected(self):
        with pytest.raises(DataError):
            Manifest([VolumeRecord("a", "s0", 2, "x")])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("subject,fold\n")
        with pytest.raises(FormatError):
            mg.load_manifest(path)


class TestStratifiedGroupKfold:
    def test_two_by_two(self):
        manifest = make_manifest([2, 2])
        assignment = mg.stratified_group_kfold(manifest, k=2, seed=0)
        subjects = manifest.subjects()
        for fold in (0, 1):
            members = assignment.subjects_in(fold)
            assert len(members) == 2
            assert sum(subjects[s] for s in members) == 1  # one of each class

    def test_scans_follow_subject(self):
        manifest = make_manifest([3, 3], scans_per_subject=3)
        assignment = mg.stratified_group_kfold(manifest, k=3, seed=1)
        for fold in range(3):
            train, test = assignment.split_records(manifest, fold)
            test_subjects = {r.subject_id for r in test}
            for subject in test_subjects:
                scans = [r for r in manifest.records if r.subject_id == subject]
                assert all(r in test for r in scans)

    def test_seeded_determinism(self):
        manifest = make_manifest([5, 7], scans_per_subject=2)
        a = mg.stratified_group_kfold(manifest, k=3, seed=42)
        b = mg.stratified_group_kfold(manifest, k=3, seed=42)
        assert a.folds == b.folds
        c = mg.stratified_group_kfold(manifest, k=3, seed=43)
        assert a.folds != c.folds

    def test_too_few_subjects(self):
        manifest = make_manifest([2, 5])
        with pytest.raises(ArgumentError):
            mg.stratified_group_kfold(manifest, k=3, seed=0)

    def test_k_below_two(self):
        manifest = make_manifest([3, 3])
        with pytest.raises(ArgumentError):
            mg.stratified_group_kfold(manifest, k=1, seed=0)

    @settings(max_examples=40)
    @given(
        n0=st.integers(min_value=2, max_value=25),
        n1=st.integers(min_value=2, max_value=25),
        scans=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_invariants(self, n0, n1, scans, seed, data):
        manifest = make_manifest([n0, n1], scans_per_subject=scans)
        k = data.draw(st.integers(min_value=2, max_value=min(n0, n1)))
        assignment = mg.stratified_group_kfold(manifest, k=k, seed=seed)
        subjects = manifest.subjects()
        # union: every subject assigned exactly once
        assert set(assignment.folds) == set(subjects)
        # stratification: per class, fold sizes differ by at most one
        for label in (0, 1):
            sizes = [
                sum(1 for s in assignment.subjects_in(f) if subjects[s] == label)
                for f in range(k)
            ]
            assert max(sizes) - min(sizes) <= 1
        # leakage: train/test subject sets disjoint in every round
        for fold in range(k):
            train, test = assignment.split_records(manifest, fold)
            assert {r.subject_id for r in train}.isdisjoint({r.subject_id for r in test})
            assert len(train) + len(test) == len(manifest.records)

    def test_folds_file_round_trip(self, tmp_path):
        manifest = make_manifest([4, 5], scans_per_subject=2)
        assignment = mg.stratified_group_kfold(manifest, k=3, seed=9)
        path = tmp_path / "folds.csv"
        assignment.save(path)
        loaded = FoldAssignment.load(path)
        assert loaded.k == assignment.k
        assert loaded.folds == assignment.folds

    def test_fold_gap_rejected(self, tmp_path):
        path = tmp_path / "folds.csv"
        path.write_text("subject_id,fold\ns0,0\ns1,2\ns2,0\n")
        with pytest.raises(FormatError, match="fold 1"):
            FoldAssignment.load(path)


class TestSynthGenerate:
    def test_deterministic_files(self, tmp_path):
        m1 = mg.synth_generate(tmp_path / "a", 2, 2, 8, 1.0, 0.1, seed=5)
        m2 = mg.synth_generate(tmp_path / "b", 2, 2, 8, 1.0, 0.1, seed=5)
        for r1, r2 in zip(m1.records, m2.records):
            assert Path(r1.volume_path).read_bytes() == Path(r2.volume_path).read_bytes()
        assert (tmp_path / "a" / "manifest.csv").exists()

    def test_effect_size_shifts_sphere_mean(self, tmp_path):
        manifest = mg.synth_generate(tmp_path / "d", 12, 1, 12, 1.0, 0.1, seed=3)
        mask = mg.atrophy_mask((12, 12, 12))
        means = {0: [], 1: []}
        for r in manifest.records:
            vol = mg.load_volume(r.volume_path)[0]
            means[r.label].append(vol[mask].mean())
        diff = np.mean(means[0]) - np.mean(means[1])
        assert abs(diff - 1.0) < 0.3

    def test_zero_effect_is_null(self, tmp_path):
        manifest = mg.synth_generate(tmp_path / "d0", 12, 1, 12, 0.0, 0.1, seed=3)
        mask = mg.atrophy_mask((12, 12, 12))
        means = {0: [], 1: []}
        for r in manifest.records:
            vol = mg.load_volume(r.volume_path)[0]
            means[r.label].append(vol[mask].mean())
        assert abs(np.mean(means[0]) - np.mean(means[1])) < 0.3

    def test_geometry_and_counts(self, tmp_path):
        manifest = mg.synth_generate(tmp_path / "g", 3, 2, (8, 10, 8), 0.5, 0.05, seed=1)
        assert manifest.geometry == (1, 8, 10, 8)
        assert len(manifest.records) == 12
        assert len(manifest.subjects()) == 6
        loaded = mg.load_manifest(tmp_path / "g" / "manifest.csv")
        assert loaded.geometry == (1, 8, 10, 8)
        assert [r.subject_id for r in loaded.records] == [r.subject_id for r in manifest.records]

    def test_bad_arguments(self, tmp_path):
        with pytest.raises(ArgumentError):
            mg.synth_generate(tmp_path, 0, 1, 8, 1.0, 0.1, seed=0)
        with pytest.raises(ArgumentError):
            mg.synth_generate(tmp_path, 1, 1, 2, 1.0, 0.1, seed=0)
        with pytest.raises(ArgumentError):
            mg.synth_generate(tmp_path, 1, 1, 8, -1.0, 0.1, seed=0)
