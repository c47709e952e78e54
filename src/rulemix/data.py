"""Dataset container, the numeric CSV table format, the sweep's cache, output checks and staged writes.

A checkpoint stores each split's ``rows_sha256``. A sweep reads the rows
from ``rows-<sha256>.npz`` beside it when those hash to the digest, else
rebuilds them, fails if they hash differently, and caches them. A sweep of a
``--data-csv`` reads the table from ``table-<sha256>.npz`` beside the
checkpoint, keyed by the CSV's bytes, else parses those bytes, memoizes the
table and removes the memo of the CSV's earlier bytes. Both are files of one
store, ``SweepCache``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import secrets
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError

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
        return rows_sha256(*self.subset(split))


def rows_sha256(x: np.ndarray, y: np.ndarray) -> str:
    """Digest of one split's rows: the shape and the float64 bytes of its x, then of its y."""
    h = hashlib.sha256()
    for a in (x, y):
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a)
    return h.hexdigest()


# what np.load raises on a cache file that is missing, unreadable, truncated or not an archive of arrays
_CACHE_LOAD_ERRORS = (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile)


def _cache_sha256(kind: str, key: str, arrays: dict[str, np.ndarray]) -> str:
    """Digest of a cache file: its kind and key, then each array's name, dtype, shape and bytes."""
    h = hashlib.sha256(f"{kind}-{key}".encode())
    for name, a in arrays.items():
        h.update(repr((name, a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


class SweepCache:
    """A sweep's inputs, stored in ``directory`` as ``<kind>-<key>.npz`` by what identifies them.

    ``rows`` reads each swept split from ``rows-<split digest>.npz`` and
    builds the rest; the build reads a CSV of rows the checkpoint holds no
    digest for through ``read_table``, which keys its table by the sha256 of
    the CSV's bytes as ``table-<sha256>.npz``. Every file holds named arrays
    and a digest of itself (``_cache_sha256``), so one that is unreadable,
    truncated, edited, renamed or of an older format is a miss. ``write``
    stores what missed, once the caller's outputs are in place.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.missed: list[tuple[str, str, dict[str, np.ndarray]]] = []

    def _path(self, kind: str, key: str) -> Path:
        return self.directory / f"{kind}-{key}.npz"

    def get(self, kind: str, key: str) -> dict[str, np.ndarray] | None:
        """The arrays stored under ``kind`` and ``key`` if their file is intact; else None."""
        try:
            with np.load(self._path(kind, key), allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
            stored = str(arrays.pop("sha256"))
        except _CACHE_LOAD_ERRORS:
            return None
        return arrays if stored == _cache_sha256(kind, key, arrays) else None

    def put(self, stage: Callable[[Path], Path], kind: str, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Store ``arrays`` under ``kind`` and ``key`` through a ``staged_writes`` stage."""
        with open(stage(self._path(kind, key)), "wb") as fh:
            np.savez(fh, sha256=_cache_sha256(kind, key, arrays), **arrays)

    def rows(self, build: Callable[..., Dataset], splits: tuple[str, ...],
             digests: dict[str, str] | None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Each swept split's (x, y): from its file if those rows hash to the split's digest, else built.

        ``build(splits, read=...)`` builds the splits the cache lacks, which
        must hash to their digests. Without ``digests`` the rows are neither
        checked nor stored; a CSV they are read from is memoized instead.
        """
        rows = {}
        for split in splits if digests is not None else ():
            if (stored := self.get("rows", digests[split])) is not None:
                x, y = (np.ascontiguousarray(stored[name], dtype=np.float64) for name in ("x", "y"))
                if rows_sha256(x, y) == digests[split]:
                    rows[split] = x, y
        built = tuple(split for split in splits if split not in rows)
        if built:
            dataset = build(built, read=self.read_table if digests is None else read_table)
            for split in built:
                rows[split] = x, y = dataset.subset(split)
                if digests is not None and (digest := rows_sha256(x, y)) != digests[split]:
                    raise ConfigError(
                        f"split {split!r}: the rows rebuilt from the checkpoint's config have sha256 "
                        f"{digest[:12]}..., the model was trained beside {digests[split][:12]}...: "
                        "the data or the simulator changed since training"
                    )
                if digests is not None:
                    self.missed.append(("rows", digest, {"x": x, "y": y}))
        return rows

    def read_table(self, path: str | Path) -> tuple[list[str], np.ndarray, list[str]]:
        """``read_table`` of ``path``, read once: the table stored under its bytes' sha256, else their parse."""
        data = Path(path).read_bytes()
        key = hashlib.sha256(data).hexdigest()
        if (stored := self.get("table", key)) is not None:
            header, labels = json.loads(bytes(stored["text"]))
            return _finite_table(path, header, np.ascontiguousarray(stored["numbers"], dtype=np.float64), labels)
        data = _decoded(data)  # rebinding releases the bytes once they decode
        header, numbers, labels = _parse_table(path, data)
        text = np.frombuffer(json.dumps([header, labels]).encode(), np.uint8)
        source = np.frombuffer(str(Path(path).resolve()).encode(), np.uint8)
        self.missed.append(("table", key, {"numbers": numbers, "text": text, "source": source}))
        return header, numbers, labels

    def write(self) -> None:
        """Store what missed; then remove each file that an earlier version of a stored file's source left.

        Only a file this cache wrote is removed: it is named ``<kind>-*.npz``,
        is intact and records the same source. Raises the first ``OSError``.
        """
        with staged_writes() as stage:
            for kind, key, arrays in self.missed:
                self.put(stage, kind, key, arrays)
        for kind, key, arrays in self.missed:
            for path in self.directory.glob(f"{kind}-*.npz") if "source" in arrays else ():
                other = path.name[len(kind) + 1 : -len(".npz")]
                stored = self.get(kind, other) if other != key else None
                if stored is not None and np.array_equal(stored.get("source"), arrays["source"]):
                    path.unlink(missing_ok=True)


def check_paths(inputs: dict[str, str | Path | None], outputs: list[tuple[str, str | Path | None]]) -> None:
    """Before any work: every path, keyed by its flag, names its own file, and no output is a directory."""
    seen: dict[Path, str] = {}
    for flag, path in [*inputs.items(), *outputs]:
        if path is None:
            continue
        resolved = Path(path).resolve()
        if resolved in seen:
            raise ConfigError(f"{flag} {path} is the same file as {seen[resolved]}")
        seen[resolved] = flag
    for flag, path in outputs:
        if path is not None and Path(path).is_dir():
            raise ConfigError(f"{flag} {path} is a directory")


@contextmanager
def staged_writes() -> Iterator[Callable[[str | Path], Path]]:
    """Write files beside their targets, then rename them all onto the targets.

    Inside the block, ``stage(path)`` creates ``path``'s directory if it is
    missing, creates an empty temporary file there and returns its path for
    the caller to write. When the block ends normally, every staged file is
    renamed onto its target in staging order; when it raises, every staged
    file is removed and no target is touched.
    """
    staged: list[tuple[Path, Path]] = []

    def stage(path: str | Path) -> Path:
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
        path.parent.mkdir(parents=True, exist_ok=True)
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


def write_table(path: str | Path, header: list[str], blocks: list[np.ndarray], labels=None) -> None:
    """Write a numeric table: ``header``, then each row of ``blocks`` side by side, then its label if given.

    The one writer of every numeric CSV: datasets, sweeps, training reports
    and exported latents. Numbers are rendered with %.17g so a read-back
    reproduces the exact values; the labels (split names) need no csv quoting.
    """
    n_numbers = sum(block.shape[1] for block in blocks)
    if len(header) != n_numbers + (labels is not None):
        raise ValueError(f"expected {n_numbers + (labels is not None)} column names, got {len(header)}")
    row = ",".join(["%.17g"] * n_numbers + ([] if labels is None else ["%s"])) + "\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        # converting a block of rows at a time bounds the Python floats alive at once
        for start in range(0, blocks[0].shape[0], 1024):
            rows = slice(start, start + 1024)
            values = np.hstack([block[rows] for block in blocks]).tolist()
            if labels is None:
                fh.writelines(row % tuple(v) for v in values)
            else:
                fh.writelines(row % (*v, s) for v, s in zip(values, labels[rows]))


def read_table(path: str | Path) -> tuple[list[str], np.ndarray, list[str]]:
    """The header, the numbers and the labels of a ``write_table`` file with a label column.

    The one reader of numeric CSVs; the tables read back (datasets and
    sweeps) end in their split column. A plain table, as ``write_table``
    writes it, parses its numbers in one ``np.loadtxt`` call
    (``_read_plain_table``); any other table, and any plain one that
    ``loadtxt`` refuses, goes through the csv module row by row
    (``_read_csv_table``), which words every error. Every error is one
    ``ValueError`` naming the file, and the line and column where there is
    one: text that is not UTF-8 or not CSV, a table without rows, a row of
    the wrong length, and a cell that is not a finite number. The table is a
    function of the file's bytes alone, which ``SweepCache.read_table`` keys
    it by.
    """
    return _parse_table(path, _decoded(Path(path).read_bytes()))


def _parse_table(path: str | Path, data: str | bytes) -> tuple[list[str], np.ndarray, list[str]]:
    """``read_table`` of the file ``path`` whose ``_decoded`` bytes are ``data``."""
    return _finite_table(path, *(_read_plain_table(path, data) or _read_csv_table(path, data)))


def _finite_table(path: str | Path, header: list[str], table: np.ndarray, labels: list[str]):
    """The table, if every number in it is finite; else the ``ValueError`` naming the first other cell."""
    finite = np.isfinite(table)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{path}:{i + 2}: non-finite value {str(table[i, j])!r} in column {header[j]!r}")
    return header, table, labels


def _text(data: str | bytes) -> io.TextIOBase:
    """The text handle ``open(path, newline="")`` gives on a file of the bytes ``data``, or of the text ``data``."""
    return io.StringIO(data, newline="") if isinstance(data, str) else io.TextIOWrapper(io.BytesIO(data), newline="")


def _decoded(data: bytes) -> str | bytes:
    """The text of a file whose bytes are ``data``; bytes that do not decode are kept for ``_read_csv_table``."""
    try:
        return _text(data).read()
    except UnicodeDecodeError:
        return data


# what a plain table lacks: '"' and '\r', which make the csv module's rows differ from the lines; NUL, which
# the csv module refuses before Python 3.11; and \x1c-\x1f, which numpy strips around a number as
# whitespace where float() refuses them
_NOT_PLAIN = '"\r\x00\x1c\x1d\x1e\x1f'


def _read_plain_table(path: str | Path, data: str | bytes) -> tuple[list[str], np.ndarray, list[str]] | None:
    """The table of a plain file, read as ``_read_csv_table`` would read it; None for any other file.

    A plain file is text that decodes (``data`` is a str), ends every line
    in ``\\n``, holds none of ``_NOT_PLAIN``, has at least one data row and
    gives every line the header's number of commas (at least one), and no
    line longer than the csv module's field limit. Its rows are then its
    lines split at the commas, so the numbers take one ``loadtxt`` call and
    each label is the text after a line's last comma. ``loadtxt`` reads a
    cell as ``float`` does or refuses it (``1_000``, an empty cell, a
    non-ASCII digit); a refusal returns None.
    """
    if isinstance(data, bytes):
        return None
    lines = data.split("\n")
    if lines.pop() or len(lines) < 2 or any(c in data for c in _NOT_PLAIN):
        return None
    commas = lines[0].count(",")
    if not commas or any(line.count(",") != commas for line in lines) or max(map(len, lines)) > csv.field_size_limit():
        return None
    rows = lines[1:]
    try:
        table = np.loadtxt(rows, delimiter=",", usecols=range(commas), comments=None, ndmin=2)
    except ValueError:
        return None
    return lines[0].split(","), table, [line.rpartition(",")[2] for line in rows]


def _read_csv_table(path: str | Path, data: str | bytes) -> tuple[list[str], np.ndarray, list[str]]:
    """The table read row by row through the csv module; every error names the file and the line."""
    values, labels = [], []
    with _text(data) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
                try:
                    values.append([float(v) for v in row[:-1]])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
                labels.append(row[-1])
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    if not values:
        raise ValueError(f"{path}: no data rows")
    return header, np.array(values), labels


def write_dataset_csv(path: str | Path, dataset: Dataset, columns: list[str]) -> None:
    """Write x columns, y columns, then the split column, with a header row."""
    write_table(path, columns, [dataset.x, dataset.y], dataset.split)


def read_dataset_csv(path: str | Path, n_targets: int, read: Callable = read_table) -> Dataset:
    """Inverse of write_dataset_csv given the number of target columns; ``read`` reads the table."""
    header, table, split = read(path)
    d = len(header) - n_targets - 1
    if d < 1:
        raise ValueError(f"{path}: header has too few columns for {n_targets} targets")
    try:
        return Dataset(x=table[:, :d], y=table[:, d:], split=np.array(split, dtype=object))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
