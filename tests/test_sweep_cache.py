"""``SweepCache``: the one store of a sweep's rows caches and table memos.

A table hit gives the bits a parse gives, on the tables of
``test_read_table.py``, and a table that fails to parse is never stored. A
file of either kind that is damaged, stored under another key or written in
the older per-kind format is a miss and is written again. A hit still runs
the checks a build or a parse runs, a new memo of a CSV removes only the
memo this store wrote for the CSV's earlier bytes, and a parse never holds
the CSV's bytes beside its text.
"""

import builtins
import hashlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulemix.data
from rulemix.data import Dataset, SweepCache, read_table, rows_sha256, staged_writes, write_table
from test_read_table import CELL_MUTATIONS, tables, with_cell_mutated, written_text


def outcome(read, path: Path):
    """What ``read(path)`` gives: the header, the table's shape, dtype and bytes and the labels, or its error."""
    try:
        header, table, labels = read(path)
    except ValueError as exc:
        return "ValueError", str(exc)
    return header, table.shape, table.dtype, table.tobytes(), labels


def memoized(directory: Path, path: Path):
    """One cache's read of ``path``, written if it parsed; then a fresh cache's read and what it missed."""
    cache = SweepCache(directory)
    first = outcome(cache.read_table, path)
    cache.write()
    again = SweepCache(directory)
    return first, outcome(again.read_table, path), again.missed


def memo_files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.startswith("table-"))


@settings(max_examples=150, deadline=None)
@given(table=tables(), mutation=st.none() | st.sampled_from(sorted(CELL_MUTATIONS)), data=st.data())
def test_a_hit_gives_the_bits_of_a_parse_and_a_failed_parse_is_never_stored(table, mutation, data):
    header, numbers, labels = table
    lines = written_text(header, numbers, labels).split("\n")[:-1]
    if mutation is not None:
        i = data.draw(st.integers(1, len(lines) - 1), label="line")
        lines = with_cell_mutated(lines, i, data.draw(st.integers(0, numbers.shape[1] - 1), label="cell"), mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text("\n".join(lines) + "\n")
        want = outcome(read_table, path)
        first, hit, missed = memoized(Path(tmp), path)
        assert first == hit == want and missed == []
        if want[0] == "ValueError":
            assert memo_files(Path(tmp)) == []
        else:
            assert memo_files(Path(tmp)) == [f"table-{hashlib.sha256(path.read_bytes()).hexdigest()}.npz"]


WRITTEN = "x0,y,split\n0.5,1.0,train\n0.25,-0.0,val\n0.75,1.0,test\n"
OTHER = WRITTEN.replace("0.25", "0.375")


def rows_of(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The val rows of the table ``text``."""
    lines = [line.split(",") for line in text.splitlines()[1:]]
    x = np.array([[float(line[0])] for line in lines if line[-1] == "val"])
    return x, 2.0 * x


class RowsKind:
    """The rows cache driven as a sweep drives it: the val split keyed by the digest of its rows."""

    kind = "rows"

    def __init__(self, directory: Path, text: str = WRITTEN) -> None:
        self.directory, self.want = directory, rows_of(text)
        self.key = rows_sha256(*self.want)

    def sweep(self):
        """One sweep's rows and what its cache missed; the missed rows are written."""
        cache = SweepCache(self.directory)

        def build(splits, read):
            x, y = self.want
            return Dataset(x=x, y=y, split=np.full(len(x), "val", dtype=object))

        rows = cache.rows(build, ("val",), {"val": self.key})
        cache.write()
        assert [a.tobytes() for a in rows["val"]] == [a.tobytes() for a in self.want]
        return cache.missed

    def parent_format(self) -> None:
        x, y = self.want
        with open(self.directory / f"rows-{self.key}.npz", "wb") as fh:
            np.savez(fh, x=x, y=y)


class TableKind:
    """The table memo driven as a sweep drives it: a CSV keyed by the sha256 of its bytes."""

    kind = "table"

    def __init__(self, directory: Path, text: str = WRITTEN) -> None:
        self.directory, self.path = directory, directory / f"{hashlib.sha256(text.encode()).hexdigest()[:8]}.csv"
        self.path.write_text(text)
        self.key = hashlib.sha256(text.encode()).hexdigest()
        self.want = outcome(read_table, self.path)

    def sweep(self):
        cache = SweepCache(self.directory)
        assert outcome(cache.read_table, self.path) == self.want
        cache.write()
        return cache.missed

    def parent_format(self) -> None:
        """The memo as the parent wrote it, with the self-digest over the key, the numbers and the text."""
        header, numbers, labels = read_table(self.path)
        text = json.dumps([header, labels]).encode()
        h = hashlib.sha256(self.key.encode())
        h.update(repr(numbers.shape).encode())
        h.update(numbers)
        h.update(text)
        with open(self.directory / f"table-{self.key}.npz", "wb") as fh:
            np.savez(fh, numbers=numbers, text=np.frombuffer(text, np.uint8), sha256=h.hexdigest())


def rewritten(path: Path, edit) -> None:
    """Rewrite the archive at ``path`` with ``edit`` applied to its dict of arrays."""
    with np.load(path) as archive:
        arrays = {key: archive[key].copy() for key in archive.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def flip_a_bit(arrays) -> None:
    name = next(name for name in arrays if name != "sha256")
    arrays[name].reshape(-1).view(np.uint8)[0] ^= 1


def damage(store, how: str) -> None:
    path = store.directory / f"{store.kind}-{store.key}.npz"
    if how == "truncated":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif how == "empty":
        path.write_bytes(b"")
    elif how == "edited":
        rewritten(path, flip_a_bit)
    elif how == "digest dropped":
        rewritten(path, lambda arrays: arrays.pop("sha256"))
    elif how == "under another key":
        (store.directory / "other").mkdir()
        other = type(store)(store.directory / "other", OTHER)
        other.sweep()
        (other.directory / f"{other.kind}-{other.key}.npz").replace(path)
    else:  # "parent format"
        store.parent_format()


DAMAGES = ["truncated", "empty", "edited", "digest dropped", "under another key", "parent format"]


@pytest.mark.parametrize("how", DAMAGES)
@pytest.mark.parametrize("kind", [RowsKind, TableKind])
def test_a_damaged_file_is_a_miss_and_is_written_again(tmp_path, kind, how):
    store = kind(tmp_path)
    assert len(store.sweep()) == 1
    assert store.sweep() == []  # a hit
    damage(store, how)
    assert SweepCache(tmp_path).get(store.kind, store.key) is None
    assert len(store.sweep()) == 1
    assert SweepCache(tmp_path).get(store.kind, store.key) is not None and store.sweep() == []


@pytest.mark.parametrize("kind", [RowsKind, TableKind])
def test_a_file_of_the_other_kind_under_the_same_key_is_a_miss(tmp_path, kind):
    store = kind(tmp_path)
    store.sweep()
    other = "table" if store.kind == "rows" else "rows"
    (tmp_path / f"{store.kind}-{store.key}.npz").rename(tmp_path / f"{other}-{store.key}.npz")
    assert SweepCache(tmp_path).get(other, store.key) is None


def test_intact_rows_that_do_not_hash_to_the_digest_are_rebuilt(tmp_path):
    """The self-digest shows a file is as written; the rows digest shows they are the checkpoint's rows."""
    store = RowsKind(tmp_path)
    x, y = store.want
    with staged_writes() as stage:
        SweepCache(tmp_path).put(stage, "rows", store.key, {"x": x + 1.0, "y": y})
    assert SweepCache(tmp_path).get("rows", store.key) is not None
    assert len(store.sweep()) == 1


def test_a_hit_still_refuses_a_non_finite_number(tmp_path):
    """A memo stored with its own digest right still passes the non-finite check a parse runs."""
    store = TableKind(tmp_path)
    text = json.dumps([["x0", "y", "split"], ["train", "val", "test"]]).encode()
    with staged_writes() as stage:
        SweepCache(tmp_path).put(stage, "table", store.key, {
            "numbers": np.array([[0.5, 1.0], [np.nan, -0.0], [0.75, 1.0]]), "text": np.frombuffer(text, np.uint8),
        })
    with pytest.raises(ValueError) as info:
        SweepCache(tmp_path).read_table(store.path)
    assert str(info.value) == f"{store.path}:3: non-finite value 'nan' in column 'x0'"


@pytest.mark.parametrize("stored", [False, True], ids=["miss", "hit"])
def test_the_file_is_opened_once_and_parsed_only_on_a_miss(tmp_path, monkeypatch, stored):
    path = tmp_path / "table.csv"
    path.write_text(WRITTEN)
    want = outcome(read_table, path)
    if stored:
        memoized(tmp_path, path)
    opened, parsed = [], []
    real_open, real_parse = io.open, rulemix.data._parse_table
    monkeypatch.setattr(io, "open", lambda file, *args, **kw: opened.append(Path(file)) or real_open(file, *args, **kw))
    monkeypatch.setattr(builtins, "open", io.open)
    monkeypatch.setattr(rulemix.data, "_parse_table", lambda *args: parsed.append(args[0]) or real_parse(*args))
    assert outcome(SweepCache(tmp_path).read_table, path) == want
    assert opened.count(path) == 1 and parsed == ([] if stored else [path])


class TestBound:
    """A new memo of a CSV removes the memo this store wrote for the CSV's earlier bytes, and nothing else."""

    def test_an_edit_loop_leaves_one_memo_per_csv(self, tmp_path):
        one, other = tmp_path / "one.csv", tmp_path / "other.csv"
        other.write_text(OTHER)
        memoized(tmp_path, other)
        for i in range(4):
            one.write_text(WRITTEN.replace("0.25", f"0.{i}25"))
            memoized(tmp_path, one)
            assert memo_files(tmp_path) == sorted(
                f"table-{hashlib.sha256(p.read_bytes()).hexdigest()}.npz" for p in (one, other)
            )

    @pytest.mark.parametrize("how", ["edited", "parent format"])
    def test_a_memo_the_store_cannot_verify_is_kept(self, tmp_path, how):
        store = TableKind(tmp_path)
        store.sweep()
        damage(store, how)
        kept = (tmp_path / f"table-{store.key}.npz").read_bytes()
        store.path.write_text(OTHER)
        memoized(tmp_path, store.path)
        assert (tmp_path / f"table-{store.key}.npz").read_bytes() == kept and len(memo_files(tmp_path)) == 2

    def test_a_memo_of_the_same_bytes_elsewhere_is_kept(self, tmp_path):
        """Copies of one CSV share its memo; editing a copy that did not write it removes nothing."""
        one, copy = tmp_path / "one.csv", tmp_path / "copy.csv"
        one.write_text(WRITTEN)
        copy.write_text(WRITTEN)
        memoized(tmp_path, one)
        memoized(tmp_path, copy)  # a hit: the memo still records one.csv
        copy.write_text(OTHER)
        memoized(tmp_path, copy)
        assert len(memo_files(tmp_path)) == 2 and memoized(tmp_path, one)[2] == []


@pytest.fixture(scope="module")
def desk_csv(tmp_path_factory) -> Path:
    """A CSV of the desk setup's size: 10,000 rows of 8 numbers and a split label."""
    path = tmp_path_factory.mktemp("desk") / "desk.csv"
    x = np.random.default_rng(0).normal(size=(10_000, 8))
    labels = np.array(["train"] * 3000 + ["val"] * 1000 + ["test"] * 6000, dtype=object)
    write_table(path, [f"c{j}" for j in range(8)] + ["split"], [x], labels)
    return path


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("reader", ["read_table", "SweepCache.read_table"])
def test_a_parse_does_not_hold_the_files_bytes_beside_its_text(desk_csv, tmp_path, reader):
    """The peak of a read is the decoded text plus the parse's own, not the file's bytes as well."""
    read = read_table if reader == "read_table" else SweepCache(tmp_path).read_table
    text = desk_csv.read_text()
    parse = traced_peak(lambda: rulemix.data._parse_table(desk_csv, text))
    size = desk_csv.stat().st_size
    assert traced_peak(lambda: read(desk_csv)) < parse + 1.5 * size
