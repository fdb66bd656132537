"""Volume file I/O, dataset manifests, subject-grouped stratified k-fold
splitting, and a synthetic volumetric dataset generator for desk-scale
verification.

Volume files ("VOL3"): magic ``VOL3``, version u32, then channels, depth,
height, width as u32, then channels*D*H*W little-endian float32 values in
row-major order.

Manifest files: UTF-8 CSV with header ``subject_id,scan_id,label,path``;
paths are stored relative to the manifest's directory when possible.

Fold files: UTF-8 CSV with header ``subject_id,fold``.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArgumentError, DataError, FormatError, ShapeError

__all__ = [
    "VolumeRecord",
    "Manifest",
    "FoldAssignment",
    "save_volume",
    "load_volume",
    "read_volume_header",
    "normalize",
    "save_manifest",
    "load_manifest",
    "stratified_group_kfold",
    "synth_generate",
    "atrophy_mask",
]

VOLUME_MAGIC = b"VOL3"
VOLUME_VERSION = 1
_MANIFEST_HEADER = ["subject_id", "scan_id", "label", "path"]
_FOLDS_HEADER = ["subject_id", "fold"]


@contextmanager
def atomic_write(path):
    """Open a binary file that replaces ``path`` only once it is complete.

    The bytes go to a temporary file in the same directory, which is
    flushed to disk and then renamed over ``path``. If the writer raises,
    the temporary file is removed and ``path`` keeps its old content, so
    a crash never leaves a truncated file in its place.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_volume(path, volume: np.ndarray) -> None:
    """Write a [channels, D, H, W] volume in the VOL3 format."""
    arr = np.asarray(volume, dtype=np.float32)
    if arr.ndim != 4:
        raise ArgumentError(f"volume must be [c,D,H,W], got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(VOLUME_MAGIC)
        fh.write(np.asarray([VOLUME_VERSION, *arr.shape], dtype="<u4").tobytes())
        fh.write(arr.astype("<f4", copy=False).tobytes())


def _parse_volume_header(raw: bytes, path) -> tuple[int, int, int, int]:
    """The declared geometry (channels, D, H, W) from a VOL3 file's leading bytes."""
    if len(raw) < 4 or raw[:4] != VOLUME_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {VOLUME_MAGIC!r}")
    if len(raw) < 24:
        raise FormatError(f"{path}: truncated header")
    head = np.frombuffer(raw, dtype="<u4", count=5, offset=4)
    version = int(head[0])
    if version != VOLUME_VERSION:
        raise FormatError(f"{path}: unsupported volume version {version}")
    shape = tuple(int(v) for v in head[1:])
    if min(shape) < 1:
        raise FormatError(f"{path}: non-positive extent in declared shape {shape}")
    return shape


def read_volume_header(path) -> tuple[int, int, int, int]:
    """Read just the declared geometry (channels, D, H, W) of a VOL3 file."""
    with open(path, "rb") as fh:
        return _parse_volume_header(fh.read(24), path)


def load_volume(path) -> np.ndarray:
    """Read a VOL3 file into a float32 array, validating the payload."""
    raw = Path(path).read_bytes()
    shape = _parse_volume_header(raw, path)
    count = math.prod(shape)  # Python ints: a u32 extent product can overflow int64
    expected = 24 + 4 * count
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload holds {(len(raw) - 24) // 4} values, header declares {count}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=24).reshape(shape).copy()
    if not np.isfinite(data).all():
        raise DataError(f"{path}: volume contains non-finite voxel values")
    return data


def normalize(volume: np.ndarray) -> np.ndarray:
    """Whole-volume z-score: (x - mean) / std over every voxel.

    Statistics are computed in float64; the result stays float32.
    """
    arr = np.asarray(volume, dtype=np.float32)
    mean = float(arr.mean(dtype=np.float64))
    std = float(arr.std(dtype=np.float64))
    if std == 0.0:
        raise DataError("cannot normalize a constant volume")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = (arr - mean) / std
    if not np.isfinite(out).all():
        raise DataError(f"volume z-score is not finite in float32 (mean {mean:g}, std {std:g})")
    return out


@dataclass(frozen=True)
class VolumeRecord:
    """One scan: subject identity, class label (0 or 1), and volume file."""

    subject_id: str
    scan_id: str
    label: int
    volume_path: str


@dataclass
class Manifest:
    """Ordered scan list plus the geometry (channels, D, H, W) every volume shares."""

    records: list[VolumeRecord]
    geometry: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        seen: set[tuple[str, str]] = set()
        subject_label: dict[str, int] = {}
        for r in self.records:
            if not r.subject_id:
                raise DataError("manifest contains an empty subject_id")
            if r.label not in (0, 1):
                raise DataError(f"label must be 0 or 1, got {r.label!r} for subject {r.subject_id}")
            key = (r.subject_id, r.scan_id)
            if key in seen:
                raise DataError(f"duplicate scan {key} in manifest")
            seen.add(key)
            previous = subject_label.setdefault(r.subject_id, r.label)
            if previous != r.label:
                raise DataError(f"subject {r.subject_id} appears with conflicting labels")

    def subjects(self) -> dict[str, int]:
        """subject_id -> label, in first-appearance order."""
        out: dict[str, int] = {}
        for r in self.records:
            out.setdefault(r.subject_id, r.label)
        return out


def _read_table(path, header: list[str], what: str) -> list[list[str]]:
    """The rows below ``header`` in a UTF-8 CSV file, each of its width."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {what} is not UTF-8: {exc}") from None
    if not rows or rows[0] != header:
        raise FormatError(f"{path}: {what} header must be {','.join(header)}")
    for row in rows[1:]:
        if len(row) != len(header):
            raise FormatError(f"{path}: malformed {what} row {row!r}")
    return rows[1:]


def _write_table(path, header: list[str], rows) -> None:
    """Write a UTF-8 CSV file through :func:`atomic_write`."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows([header, *rows])
    with atomic_write(path) as fh:
        fh.write(text.getvalue().encode("utf-8"))


def save_manifest(manifest: Manifest, path) -> None:
    path = Path(path)
    rows = []
    for r in manifest.records:
        p = Path(r.volume_path)
        try:
            p = p.relative_to(path.parent)
        except ValueError:
            pass
        rows.append([r.subject_id, r.scan_id, r.label, p.as_posix()])
    _write_table(path, _MANIFEST_HEADER, rows)


def load_manifest(path) -> Manifest:
    """Read a manifest CSV; relative volume paths resolve against its directory.

    Every listed volume's header is read: the first supplies ``geometry``,
    and a volume that declares another raises ShapeError naming both files.
    """
    path = Path(path)
    records = []
    for subject_id, scan_id, label_text, volume_path in _read_table(path, _MANIFEST_HEADER, "manifest"):
        try:
            label = int(label_text)
        except ValueError:
            raise FormatError(f"{path}: non-integer label {label_text!r}") from None
        if "\0" in volume_path:
            raise FormatError(f"{path}: volume path {volume_path!r} contains a NUL byte")
        vp = Path(volume_path)
        if not vp.is_absolute():
            vp = path.parent / vp
        records.append(VolumeRecord(subject_id, scan_id, label, str(vp)))
    geometry = read_volume_header(records[0].volume_path) if records else None
    for r in records[1:]:
        shape = read_volume_header(r.volume_path)
        if shape != geometry:
            raise ShapeError(
                f"volume {r.volume_path} has geometry {shape}, {records[0].volume_path} has {geometry}"
            )
    return Manifest(records, geometry)


@dataclass
class FoldAssignment:
    """Map from subject to fold index; all scans of a subject share its fold."""

    k: int
    folds: dict[str, int] = field(default_factory=dict)

    def subjects_in(self, fold: int) -> list[str]:
        return [s for s, f in self.folds.items() if f == fold]

    def split_records(self, manifest: Manifest, fold: int) -> tuple[list[VolumeRecord], list[VolumeRecord]]:
        """(train, test) record lists for one cross-validation round."""
        if not 0 <= fold < self.k:
            raise ArgumentError(f"fold {fold} out of range for k={self.k}")
        train, test = [], []
        for r in manifest.records:
            if r.subject_id not in self.folds:
                raise ArgumentError(f"subject {r.subject_id} is missing from the fold assignment")
            (test if self.folds[r.subject_id] == fold else train).append(r)
        return train, test

    def save(self, path) -> None:
        _write_table(path, _FOLDS_HEADER, self.folds.items())

    @classmethod
    def load(cls, path) -> "FoldAssignment":
        folds: dict[str, int] = {}
        for subject, fold_text in _read_table(path, _FOLDS_HEADER, "folds file"):
            try:
                fold = int(fold_text)
            except ValueError:
                raise FormatError(f"{path}: non-integer fold {fold_text!r}") from None
            if subject in folds:
                raise FormatError(f"{path}: subject {subject} assigned twice")
            if fold < 0:
                raise FormatError(f"{path}: negative fold index {fold}")
            folds[subject] = fold
        if not folds:
            raise FormatError(f"{path}: empty fold assignment")
        used = set(folds.values())
        k = max(used) + 1
        gap = next(fold for fold in range(k + 1) if fold not in used)
        if gap < k:
            raise FormatError(f"{path}: fold {gap} has no subjects (folds run 0..{k - 1})")
        return cls(k, folds)


def stratified_group_kfold(manifest: Manifest, k: int, seed: int) -> FoldAssignment:
    """Assign whole subjects to k folds, balanced within each class.

    Subjects of each class are shuffled with the seeded generator and
    dealt round-robin, so per-class fold sizes differ by at most one and
    every scan of a subject resolves to the same fold.
    """
    if k < 2:
        raise ArgumentError(f"k must be >= 2, got {k}")
    subjects = manifest.subjects()
    by_class: dict[int, list[str]] = {0: [], 1: []}
    for subject, label in subjects.items():
        by_class[label].append(subject)
    for label, members in by_class.items():
        if len(members) < k:
            raise ArgumentError(
                f"class {label} has {len(members)} subjects, need at least {k} for k={k}"
            )
    rng = np.random.default_rng(seed)
    folds: dict[str, int] = {}
    for label in (0, 1):
        members = by_class[label]
        for position, index in enumerate(rng.permutation(len(members))):
            folds[members[index]] = position % k
    return FoldAssignment(k, {s: folds[s] for s in subjects})


def atrophy_mask(spatial: tuple[int, int, int]) -> np.ndarray:
    """Boolean mask of the fixed central sphere carrying the class signal.

    The radius is a quarter of the smallest extent.
    """
    d, h, w = spatial
    radius = min(spatial) / 4.0
    zz, yy, xx = np.ogrid[:d, :h, :w]
    cz, cy, cx = (d - 1) / 2.0, (h - 1) / 2.0, (w - 1) / 2.0
    return ((zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2) <= radius**2


def _resize_axis(arr: np.ndarray, axis: int, new_len: int) -> np.ndarray:
    old = arr.shape[axis]
    if old == new_len:
        return arr
    pos = np.linspace(0.0, old - 1.0, new_len)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, old - 1)
    w = (pos - lo).reshape([-1 if i == axis else 1 for i in range(arr.ndim)])
    return np.take(arr, lo, axis=axis) * (1.0 - w) + np.take(arr, hi, axis=axis) * w


# Amplitude of the smooth per-subject background. Kept well below the
# spherical effect so generated tasks are separable by design; per-scan
# noise still dominates the background texture locally.
_BASE_FIELD_STD = 0.1


def _smooth_field(rng: np.random.Generator, spatial: tuple[int, int, int]) -> np.ndarray:
    """Low-frequency random field via trilinear upsampling of coarse noise."""
    coarse = tuple(max(2, n // 4) for n in spatial)
    out = rng.normal(size=coarse)
    for axis, n in enumerate(spatial):
        out = _resize_axis(out, axis, n)
    std = out.std()
    return out * (_BASE_FIELD_STD / std) if std > 0 else out


def synth_generate(
    out_dir,
    n_subjects_per_class: int,
    scans_per_subject: int,
    size,
    effect_size: float,
    noise_std: float,
    seed: int,
) -> Manifest:
    """Write a labeled synthetic dataset of smooth random volumes.

    Each subject gets a base random smooth volume; class-1 subjects have
    the intensity inside the fixed central sphere reduced by
    ``effect_size``. Every scan adds fresh Gaussian noise with standard
    deviation ``noise_std``. Fully reproducible from the seed.
    """
    if n_subjects_per_class < 1:
        raise ArgumentError(f"n_subjects_per_class must be >= 1, got {n_subjects_per_class}")
    if scans_per_subject < 1:
        raise ArgumentError(f"scans_per_subject must be >= 1, got {scans_per_subject}")
    for name, value in (("effect_size", effect_size), ("noise_std", noise_std)):
        if not (np.isfinite(value) and value >= 0):
            raise ArgumentError(f"{name} must be finite and >= 0, got {value}")
    spatial = (int(size),) * 3 if isinstance(size, (int, np.integer)) else tuple(int(v) for v in size)
    if len(spatial) != 3 or min(spatial) < 4 or max(spatial) >= 2**32:
        # VOL3 stores each extent as a u32.
        raise ArgumentError(f"volume size must be 3 extents from 4 to 2**32 - 1, got {spatial}")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    mask = atrophy_mask(spatial)
    records = []
    for label, prefix in ((0, "nc"), (1, "ad")):
        for i in range(n_subjects_per_class):
            subject_id = f"{prefix}{i:03d}"
            base = _smooth_field(rng, spatial)
            if label == 1:
                base[mask] -= effect_size
            for j in range(scans_per_subject):
                scan_id = f"s{j}"
                # Every later command refuses a non-finite voxel, so a
                # scan that overflows float32 is refused here, before the
                # manifest is written.
                with np.errstate(over="ignore"):
                    vol = (base + rng.normal(0.0, noise_std, size=spatial)).astype(np.float32)
                if not np.isfinite(vol).all():
                    raise ArgumentError(
                        f"scan {subject_id}/{scan_id} has voxels beyond float32's range "
                        f"(effect_size={effect_size}, noise_std={noise_std})"
                    )
                path = out_dir / f"{subject_id}_{scan_id}.vol"
                save_volume(path, vol[None])
                records.append(VolumeRecord(subject_id, scan_id, label, str(path)))
    manifest = Manifest(records, (1, *spatial))
    save_manifest(manifest, out_dir / "manifest.csv")
    return manifest
