"""Shared dataset container, CSV round-trip helpers and atomic file writes."""

from __future__ import annotations

import csv
import hashlib
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

SPLITS = ("train", "val", "test")


def assign_splits(n: int, fractions: tuple[float, float, float]) -> np.ndarray:
    """Ordered train/val/test labels for n rows; test takes the remainder."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {fractions}")
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    labels = np.empty(n, dtype=object)
    labels[:n_train] = "train"
    labels[n_train : n_train + n_val] = "val"
    labels[n_train + n_val :] = "test"
    return labels


@dataclass
class Dataset:
    """Feature matrix, target matrix, and a per-row split label."""

    x: np.ndarray  # (n, d) inputs
    y: np.ndarray  # (n, m) targets
    split: np.ndarray  # (n,) labels from SPLITS

    def __post_init__(self) -> None:
        if self.y.ndim == 1:
            self.y = self.y.reshape(-1, 1)
        n = self.x.shape[0]
        if self.y.shape[0] != n or self.split.shape[0] != n:
            raise ValueError("x, y, and split must have the same number of rows")
        unknown = set(self.split.tolist()) - set(SPLITS)
        if unknown:
            raise ValueError(f"unknown split labels {sorted(unknown, key=str)}, expected labels from {SPLITS}")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset contains non-finite values")

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        mask = self.split == split
        return self.x[mask], self.y[mask]

    def counts(self) -> dict[str, int]:
        return {s: int(np.sum(self.split == s)) for s in SPLITS}

    def sha256(self, split: str) -> str:
        """Digest of one split's rows: the shape and the float64 bytes of its x, then of its y."""
        h = hashlib.sha256()
        for a in self.subset(split):
            a = np.ascontiguousarray(a, dtype=np.float64)
            h.update(repr(a.shape).encode())
            h.update(a)
        return h.hexdigest()


@contextmanager
def staged_writes() -> Iterator[Callable[[str | Path], Path]]:
    """Write files beside their targets, then rename them all onto the targets.

    Inside the block, ``stage(path)`` creates an empty temporary file in
    ``path``'s directory and returns its path for the caller to write. When
    the block ends normally, every staged file is renamed onto its target in
    staging order; when it raises, every staged file is removed and no target
    is touched.
    """
    staged: list[tuple[Path, Path]] = []

    def stage(path: str | Path) -> Path:
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
        open(tmp, "xb").close()
        staged.append((tmp, path))
        return tmp

    try:
        yield stage
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def write_dataset_csv(path: str | Path, dataset: Dataset, columns: list[str]) -> None:
    """Write x columns, y columns, then the split column, with a header row.

    Floats are rendered with %.17g so a read-back reproduces the exact values.
    """
    n_cols = dataset.x.shape[1] + dataset.y.shape[1] + 1
    if len(columns) != n_cols:
        raise ValueError(f"expected {n_cols} column names, got {len(columns)}")
    # split labels come from SPLITS, so no data cell needs csv quoting
    row = "%.17g," * (n_cols - 1) + "%s\n"
    x, y, split = dataset.x, dataset.y, dataset.split
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(columns)
        # converting a block of rows at a time bounds the Python floats alive at once
        for start in range(0, len(dataset), 1024):
            block = slice(start, start + 1024)
            fh.writelines(
                row % (*xi, *yi, si)
                for xi, yi, si in zip(x[block].tolist(), y[block].tolist(), split[block].tolist())
            )


def read_dataset_csv(path: str | Path, n_targets: int) -> Dataset:
    """Inverse of write_dataset_csv given the number of target columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    d = len(header) - n_targets - 1
    if d < 1:
        raise ValueError(f"{path}: header has too few columns for {n_targets} targets")
    values = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
        try:
            values.append([float(v) for v in row[:-1]])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    table = np.array(values)
    finite = np.isfinite(table)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{path}:{i + 2}: non-finite value {rows[i][j]!r} in column {header[j]!r}")
    x, y = table[:, :d], table[:, d:]
    split = np.array([row[-1] for row in rows], dtype=object)
    return Dataset(x=x, y=y, split=split)
