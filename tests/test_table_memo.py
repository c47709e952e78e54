"""``TableMemo``: ``read_table`` memoized by the sha256 of a file's bytes.

A hit gives the bits a parse gives, on the tables of ``test_read_table.py``;
a table that fails to parse is never stored; a memo that is damaged, or
stored under another file's digest, is a miss; and a hit still refuses a
non-finite number.
"""

import builtins
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulemix.data
from rulemix.data import TableMemo, read_table, staged_writes
from test_read_table import CELL_MUTATIONS, tables, with_cell_mutated, written_text


def outcome(read, path: Path):
    """What ``read(path)`` gives: the header, the table's shape, dtype and bytes and the labels, or its error."""
    try:
        header, table, labels = read(path)
    except ValueError as exc:
        return "ValueError", str(exc)
    return header, table.shape, table.dtype, table.tobytes(), labels


def memoized(directory: Path, path: Path):
    """One memo's read of ``path``, written if it parsed; then a fresh memo's read and what it parsed."""
    memo = TableMemo(directory)
    first = outcome(memo.read, path)
    with staged_writes() as stage:
        memo.write(stage)
    again = TableMemo(directory)
    return first, outcome(again.read, path), again.parsed


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
        first, hit, parsed = memoized(Path(tmp), path)
        assert first == hit == want
        if want[0] == "ValueError":
            assert memo_files(Path(tmp)) == [] and len(parsed) == 0
        else:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert memo_files(Path(tmp)) == [f"table-{digest}.npz"] and parsed == {}


WRITTEN = "x0,y,split\n0.5,1.0,train\n0.25,-0.0,val\n0.75,1.0,test\n"


def damaged(path: Path, how: str) -> None:
    if how == "truncated":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif how == "empty":
        path.write_bytes(b"")
    else:
        with np.load(path) as archive:
            arrays = {key: archive[key].copy() for key in archive.files}
        if how == "number edited":
            arrays["numbers"][1, 0] = 0.125
        elif how == "label edited":
            arrays["text"] = np.frombuffer(bytes(arrays["text"]).replace(b'"val"', b'"tst"'), np.uint8)
        else:  # "digest dropped"
            del arrays["sha256"]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)


@pytest.mark.parametrize("how", ["truncated", "empty", "number edited", "label edited", "digest dropped"])
def test_a_damaged_memo_is_a_miss_and_the_parse_is_stored_again(tmp_path, how):
    path = tmp_path / "table.csv"
    path.write_text(WRITTEN)
    want = outcome(read_table, path)
    memoized(tmp_path, path)
    (memo,) = (tmp_path / name for name in memo_files(tmp_path))
    damaged(memo, how)
    first, hit, parsed = memoized(tmp_path, path)
    assert first == hit == want and parsed == {}


def test_a_memo_under_another_files_digest_is_a_miss(tmp_path):
    one, other = tmp_path / "one.csv", tmp_path / "other.csv"
    one.write_text(WRITTEN)
    other.write_text(WRITTEN.replace("0.25", "0.375"))
    memoized(tmp_path, one)
    (stored,) = memo_files(tmp_path)
    (tmp_path / stored).rename(tmp_path / f"table-{hashlib.sha256(other.read_bytes()).hexdigest()}.npz")
    memo = TableMemo(tmp_path)
    assert outcome(memo.read, other) == outcome(read_table, other) and len(memo.parsed) == 1


def test_a_hit_still_refuses_a_non_finite_number(tmp_path):
    """A memo forged with its own digest right still passes the non-finite check a parse runs."""
    path = tmp_path / "table.csv"
    path.write_text(WRITTEN)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    numbers = np.array([[0.5, 1.0], [np.nan, -0.0], [0.75, 1.0]])
    text = json.dumps([["x0", "y", "split"], ["train", "val", "test"]]).encode()
    with open(tmp_path / f"table-{digest}.npz", "wb") as fh:
        np.savez(fh, numbers=numbers, text=np.frombuffer(text, np.uint8),
                 sha256=rulemix.data._memo_sha256(digest, numbers, text))
    with pytest.raises(ValueError) as info:
        TableMemo(tmp_path).read(path)
    assert str(info.value) == f"{path}:3: non-finite value 'nan' in column 'x0'"


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
    assert outcome(TableMemo(tmp_path).read, path) == want
    assert opened.count(path) == 1 and parsed == ([] if stored else [path])
