"""Dataset container invariants and the CSV round trip."""

import numpy as np
import pytest

from rulemix.data import Dataset, read_dataset_csv, staged_writes


def test_unknown_split_label_rejected():
    split = np.array(["train", "vall", "test"], dtype=object)
    with pytest.raises(ValueError, match="vall"):
        Dataset(x=np.zeros((3, 2)), y=np.zeros(3), split=split)


def test_csv_with_unknown_split_label_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,y,split\n0.5,1.0,train\n0.25,0.0,Test\n")
    with pytest.raises(ValueError, match="Test"):
        read_dataset_csv(path, n_targets=1)


@pytest.mark.parametrize(
    "line,cell,column",
    [("nan,0.0,test", "nan", "x0"), ("0.25,inf,test", "inf", "y"), ("-inf,0.0,val", "-inf", "x0")],
)
def test_csv_non_finite_cell_names_file_line_and_column(tmp_path, line, cell, column):
    path = tmp_path / "data.csv"
    path.write_text(f"x0,y,split\n0.5,1.0,train\n{line}\n0.75,1.0,test\n")
    with pytest.raises(ValueError) as info:
        read_dataset_csv(path, n_targets=1)
    assert str(info.value) == f"{path}:3: non-finite value {cell!r} in column {column!r}"


def test_split_digest_covers_values_and_shapes():
    split = np.array(["val"] * 4, dtype=object)
    base = Dataset(x=np.zeros((4, 2)), y=np.zeros((4, 2)), split=split)
    assert base.sha256("val") == Dataset(x=np.zeros((4, 2)), y=np.zeros((4, 2)), split=split).sha256("val")
    edited = Dataset(x=np.zeros((4, 2)), y=np.zeros((4, 2)), split=split)
    edited.x[3, 1] = 1e-300
    # the same 16 zeros split between x and y another way
    reshaped = Dataset(x=np.zeros((4, 3)), y=np.zeros((4, 1)), split=split)
    assert len({base.sha256("val"), edited.sha256("val"), reshaped.sha256("val")}) == 3


def test_split_digest_reads_only_that_split():
    x = np.arange(8.0).reshape(4, 2)
    both = Dataset(x=x, y=x[:, :1], split=np.array(["val", "test", "val", "test"], dtype=object))
    alone = Dataset(x=x[::2], y=x[::2, :1], split=np.array(["val", "val"], dtype=object))
    assert both.sha256("val") == alone.sha256("val") != both.sha256("test")


def test_staged_writes_rename_every_file_at_the_end(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    with staged_writes() as stage:
        stage(a).write_text("one")
        stage(b).write_text("two")
        assert not a.exists() and not b.exists()
    assert (a.read_text(), b.read_text()) == ("one", "two")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]


def test_staged_writes_leave_nothing_when_the_block_raises(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("earlier")
    with pytest.raises(OSError, match="disk full"):
        with staged_writes() as stage:
            stage(a).write_text("new")
            stage(b)
            raise OSError("disk full")
    assert a.read_text() == "earlier"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]
