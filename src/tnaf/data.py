"""Dataset ingestion, standardization, splits, and toy generators.

Two on-disk formats are supported bit-exactly:

* csv   -- comma-separated decimal floats, one optional header line
           (auto-detected: a first line that fails float parsing).
* raw_f32 -- 16-byte header of two little-endian uint64 (rows, cols),
           followed by rows*cols little-endian float32 values.

All randomness flows through explicit seeds; nothing touches global state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class ParseError(ValueError):
    """Malformed dataset file; the message carries the location."""


class DataError(ValueError):
    """Structurally valid input that violates a dataset contract."""


@dataclass
class DatasetMatrix:
    data: np.ndarray  # [N, D] float64

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise DataError(f"dataset must be a matrix, got shape {self.data.shape}")

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]


@dataclass
class Splits:
    train: DatasetMatrix
    val: DatasetMatrix
    test: DatasetMatrix


@dataclass
class StandardizationStats:
    mean: np.ndarray  # per column
    std: np.ndarray

    def apply(self, rows: np.ndarray) -> np.ndarray:
        return (rows - self.mean) / self.std

    def unapply(self, rows: np.ndarray) -> np.ndarray:
        return rows * self.std + self.mean


def _reject_nonfinite(data: np.ndarray, source: str) -> None:
    bad = ~np.isfinite(data)
    if bad.any():
        row = int(np.argwhere(bad.any(axis=1))[0][0])
        raise ParseError(f"{source}: non-finite value in data row {row}")


def _load_csv(path: str) -> DatasetMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # (file line number, text) of each non-blank line
            lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text: {err}") from None
    if not lines:
        raise ParseError(f"{path}: empty dataset")
    first, start = lines[0][1].split(","), 0
    try:
        [float(tok) for tok in first]
    except ValueError:
        start = 1  # a header line
    if start >= len(lines):
        raise ParseError(f"{path}: no data rows after header")
    rows = []
    width = None
    for lineno, line in lines[start:]:
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(
                f"{path}: line {lineno} has {len(tokens)} fields, expected {width}"
            )
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError as err:
            raise ParseError(f"{path}: line {lineno}: {err}") from None
    if start and len(first) != width:
        raise ParseError(f"{path}: header has {len(first)} names but rows have {width} fields")
    data = np.asarray(rows, dtype=np.float64)
    _reject_nonfinite(data, path)
    return DatasetMatrix(data)


_RAW_HEADER = struct.Struct("<QQ")


def _load_raw_f32(path: str) -> DatasetMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _RAW_HEADER.size:
        raise ParseError(f"{path}: truncated header ({len(blob)} bytes)")
    n, d = _RAW_HEADER.unpack_from(blob)
    if n == 0 or d == 0:
        raise ParseError(f"{path}: empty dataset (header {n} x {d})")
    expected = _RAW_HEADER.size + 4 * n * d
    if len(blob) != expected:
        raise ParseError(
            f"{path}: expected {expected} bytes for {n} x {d} matrix, found {len(blob)}"
        )
    flat = np.frombuffer(blob, dtype="<f4", offset=_RAW_HEADER.size)
    data = flat.astype(np.float64).reshape(n, d)
    _reject_nonfinite(data, path)
    return DatasetMatrix(data)


def load_matrix(path: str, format: str = "csv") -> DatasetMatrix:
    if format == "csv":
        return _load_csv(path)
    if format == "raw_f32":
        return _load_raw_f32(path)
    raise DataError(f"unknown dataset format {format!r}")


def save_raw_f32(matrix: DatasetMatrix, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_RAW_HEADER.pack(matrix.n_rows, matrix.n_cols))
        fh.write(np.ascontiguousarray(matrix.data, dtype="<f4").tobytes())


def save_csv(rows: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(rows):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# splits and standardization
# ---------------------------------------------------------------------------


def make_splits(matrix: DatasetMatrix, fractions=(0.8, 0.1, 0.1), seed: int = 0) -> Splits:
    """Deterministic seeded shuffle, partitioned train/val/test."""
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or not all(f > 0 for f in fractions):  # NaN fails both
        raise DataError(f"need three positive fractions, got {fractions}")
    if not abs(sum(fractions) - 1.0) <= 1e-9:
        raise DataError(f"fractions must sum to 1, got {sum(fractions)}")
    n = matrix.n_rows
    sizes = [int(np.floor(f * n)) for f in fractions]
    for i in range(n - sum(sizes)):
        sizes[i % 3] += 1
    if any(s == 0 for s in sizes):
        raise DataError(f"split of size 0 for {n} rows with fractions {fractions}")
    perm = np.random.default_rng(seed).permutation(n)
    parts = np.split(matrix.data[perm], np.cumsum(sizes)[:-1])
    return Splits(*(DatasetMatrix(p.copy()) for p in parts))


def standardize(splits: Splits) -> tuple[Splits, StandardizationStats]:
    """Shift/scale every split by the training split's column statistics."""
    train = splits.train.data
    if train.shape[0] == 0:
        raise DataError("train split is empty")
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    zero = np.nonzero(std <= 0.0)[0]
    if zero.size:
        raise DataError(f"column {int(zero[0])} has zero variance in the train split")
    stats = StandardizationStats(mean, std)
    out = Splits(*(DatasetMatrix(stats.apply(part.data))
                   for part in (splits.train, splits.val, splits.test)))
    return out, stats


# ---------------------------------------------------------------------------
# toy distributions (all two-dimensional)
# ---------------------------------------------------------------------------

MIXTURE_RADIUS = 4.0
MIXTURE_STD = 0.3
MIXTURE_COMPONENTS = 8
RING_RADIUS = 2.0
TOY_NOISE = 0.1
TOYS = ("gauss_mixture_8", "two_moons", "ring")


def _mixture_means() -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(MIXTURE_COMPONENTS) / MIXTURE_COMPONENTS
    return MIXTURE_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def gauss_mixture_8_logpdf(points: np.ndarray) -> np.ndarray:
    """Exact log-density of the 8-component ring mixture."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    means = _mixture_means()
    var = MIXTURE_STD ** 2
    d2 = ((points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    comp = -d2 / (2.0 * var) - np.log(2.0 * np.pi * var) - np.log(MIXTURE_COMPONENTS)
    m = comp.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(comp - m).sum(axis=1, keepdims=True)))[:, 0]


def gauss_mixture_8_nll_oracle(n: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo estimate of the mixture's own expected negative log-density."""
    samples = toy_generate("gauss_mixture_8", n, seed)
    return float(-gauss_mixture_8_logpdf(samples.data).mean())


def toy_generate(name: str, n: int, seed: int) -> DatasetMatrix:
    if n < 1:
        raise DataError(f"sample count must be >= 1, got {n}")
    if name not in TOYS:
        raise DataError(f"unknown toy distribution {name!r}")
    rng = np.random.default_rng(seed)
    try:
        if name == "gauss_mixture_8":
            comp = rng.integers(0, MIXTURE_COMPONENTS, size=n)
            data = _mixture_means()[comp] + MIXTURE_STD * rng.standard_normal((n, 2))
        elif name == "two_moons":
            n_out = n // 2 + n % 2
            n_in = n // 2
            t_out = np.pi * rng.random(n_out)
            t_in = np.pi * rng.random(n_in)
            outer = np.stack([np.cos(t_out), np.sin(t_out)], axis=1)
            inner = np.stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)], axis=1)
            data = np.concatenate([outer, inner]) + TOY_NOISE * rng.standard_normal((n, 2))
        else:
            theta = 2.0 * np.pi * rng.random(n)
            radius = RING_RADIUS + TOY_NOISE * rng.standard_normal(n)
            data = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    except (ValueError, MemoryError) as err:  # numpy's ValueError: more than an array indexes
        raise MemoryError(f"cannot generate {n} rows of toy data: {err}") from None
    return DatasetMatrix(data)


# ---------------------------------------------------------------------------
# batch iteration
# ---------------------------------------------------------------------------


def batches(matrix: DatasetMatrix, batch_size: int, seed: int,
            epoch: int) -> Iterator[np.ndarray]:
    """Seeded per-epoch reshuffle; the final short batch is kept."""
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    n = matrix.n_rows
    perm = np.random.default_rng([seed, epoch]).permutation(n)
    for start in range(0, n, batch_size):
        yield matrix.data[perm[start:start + batch_size]]
