"""Dataset container, the numeric CSV table format, the sweep's caches, output checks and staged writes.

A checkpoint stores each split's ``rows_sha256``. A sweep reads the rows from
``rows-<sha256>.npz`` beside it when that file hashes to the digest, else
rebuilds them, fails if they hash differently, and caches them. A sweep of a
``--data-csv`` reads the table from ``table-<sha256>.npz`` beside the
checkpoint, keyed by the CSV's bytes, else parses those bytes and memoizes
the table (``TableMemo``).
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


def _rows_cache(directory: Path, digest: str) -> Path:
    return directory / f"rows-{digest}.npz"


# what np.load raises on a cache file that is missing, unreadable, truncated or not an archive of arrays
_CACHE_LOAD_ERRORS = (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile)


def _read_cached_rows(path: Path, digest: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The (x, y) at ``path`` if they hash to ``digest``, which covers their shapes; else None."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            x = np.ascontiguousarray(archive["x"], dtype=np.float64)
            y = np.ascontiguousarray(archive["y"], dtype=np.float64)
    except _CACHE_LOAD_ERRORS:
        return None
    return (x, y) if rows_sha256(x, y) == digest else None


def _memo_sha256(digest: str, numbers: np.ndarray, text: bytes) -> str:
    """Digest of a memoized table: the file digest it is stored under, the numbers' shape and bytes, the text."""
    h = hashlib.sha256(digest.encode())
    h.update(repr(numbers.shape).encode())
    h.update(numbers)
    h.update(text)
    return h.hexdigest()


def _read_memo(path: Path, digest: str) -> tuple[list[str], np.ndarray, list[str]] | None:
    """The header, numbers and labels memoized at ``path`` for the file digest ``digest``, if intact; else None."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            numbers = np.ascontiguousarray(archive["numbers"], dtype=np.float64)
            text = archive["text"].tobytes()
            stored = str(archive["sha256"])
    except _CACHE_LOAD_ERRORS:
        return None
    if stored != _memo_sha256(digest, numbers, text):
        return None
    header, labels = json.loads(text)
    return header, numbers, labels


def swept_rows(
    build: Callable[[tuple[str, ...]], Dataset], splits: tuple[str, ...],
    digests: dict[str, str] | None, cache_dir: Path,
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], tuple[str, ...]]:
    """Each swept split's (x, y), and the splits that ``build`` made rather than the cache held.

    With ``digests``, a split is read from its cache file in ``cache_dir``
    when that hashes to the split's digest; a built split must hash to it.
    """
    rows = {}
    for split in splits if digests is not None else ():
        cached = _read_cached_rows(_rows_cache(cache_dir, digests[split]), digests[split])
        if cached is not None:
            rows[split] = cached
    built = tuple(split for split in splits if split not in rows)
    if built:
        dataset = build(built)
        for split in built:
            if digests is not None and (digest := dataset.sha256(split)) != digests[split]:
                raise ConfigError(
                    f"split {split!r}: the rows rebuilt from the checkpoint's config have sha256 "
                    f"{digest[:12]}..., the model was trained beside {digests[split][:12]}...: "
                    "the data or the simulator changed since training"
                )
            rows[split] = dataset.subset(split)
    return rows, built


def write_rows_cache(
    stage: Callable[[Path], Path], cache_dir: Path, digests: dict[str, str],
    rows: dict[str, tuple[np.ndarray, np.ndarray]], splits: tuple[str, ...],
) -> None:
    """Cache the rows of ``splits`` in ``cache_dir`` for the next sweep, through a ``staged_writes`` stage."""
    for split in splits:
        x, y = rows[split]
        with open(stage(_rows_cache(cache_dir, digests[split])), "wb") as fh:
            np.savez(fh, x=x, y=y)


class TableMemo:
    """``read_table`` memoized in ``directory`` by the sha256 of a file's bytes.

    ``read`` reads a file once and returns the table stored under its digest
    in ``table-<sha256>.npz``, or else parses the bytes it read. A stored
    table carries a digest of itself, so a memo that is unreadable,
    truncated or edited is a miss. ``write`` stages the tables parsed
    since; a caller writes them only once the tables passed every later
    check, so only tables that a command used are memoized.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.parsed: dict[str, tuple[list[str], np.ndarray, list[str]]] = {}

    def _path(self, digest: str) -> Path:
        return self.directory / f"table-{digest}.npz"

    def read(self, path: str | Path) -> tuple[list[str], np.ndarray, list[str]]:
        data = Path(path).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        stored = _read_memo(self._path(digest), digest)
        if stored is None:
            self.parsed[digest] = _parse_table(path, data)
            return self.parsed[digest]
        return _finite_table(path, *stored)

    def write(self, stage: Callable[[Path], Path]) -> None:
        for digest, (header, numbers, labels) in self.parsed.items():
            text = json.dumps([header, labels]).encode()
            with open(stage(self._path(digest)), "wb") as fh:
                np.savez(fh, numbers=numbers, text=np.frombuffer(text, np.uint8),
                         sha256=_memo_sha256(digest, numbers, text))


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
    function of the file's bytes alone, which ``TableMemo`` keys it by.
    """
    return _parse_table(path, Path(path).read_bytes())


def _parse_table(path: str | Path, data: bytes) -> tuple[list[str], np.ndarray, list[str]]:
    """``read_table`` of the file ``path`` whose bytes are ``data``, which are read as the file would be."""
    return _finite_table(path, *(_read_plain_table(path, data) or _read_csv_table(path, data)))


def _finite_table(path: str | Path, header: list[str], table: np.ndarray, labels: list[str]):
    """The table, if every number in it is finite; else the ``ValueError`` naming the first other cell."""
    finite = np.isfinite(table)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{path}:{i + 2}: non-finite value {str(table[i, j])!r} in column {header[j]!r}")
    return header, table, labels


def _text(data: bytes) -> io.TextIOWrapper:
    """``data`` as the text handle ``open(path, newline="")`` gives on a file of those bytes."""
    return io.TextIOWrapper(io.BytesIO(data), newline="")


# what a plain table lacks: '"' and '\r', which make the csv module's rows differ from the lines; NUL, which
# the csv module refuses before Python 3.11; and \x1c-\x1f, which numpy strips around a number as
# whitespace where float() refuses them
_NOT_PLAIN = '"\r\x00\x1c\x1d\x1e\x1f'


def _read_plain_table(path: str | Path, data: bytes) -> tuple[list[str], np.ndarray, list[str]] | None:
    """The table of a plain file, read as ``_read_csv_table`` would read it; None for any other file.

    A plain file is text that decodes, ends every line in ``\\n``, holds
    none of ``_NOT_PLAIN``, has at least one data row and gives every line
    the header's number of commas (at least one), and no line longer
    than the csv module's field limit. Its rows are then its lines split
    at the commas, so the numbers take one ``loadtxt`` call and each label
    is the text after a line's last comma. ``loadtxt`` reads a cell as
    ``float`` does or refuses it (``1_000``, an empty cell, a non-ASCII
    digit); a refusal returns None.
    """
    try:
        text = _text(data).read()
    except UnicodeDecodeError:
        return None
    lines = text.split("\n")
    if lines.pop() or len(lines) < 2 or any(c in text for c in _NOT_PLAIN):
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


def _read_csv_table(path: str | Path, data: bytes) -> tuple[list[str], np.ndarray, list[str]]:
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
