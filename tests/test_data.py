"""Dataset container invariants and the CSV round trip."""

import csv
import hashlib
import io

import numpy as np
import pytest

from rulemix.data import Dataset, assign_splits, read_dataset_csv, staged_writes, write_dataset_csv
from rulemix.pendulum import DEFAULT_PARAMS, PENDULUM_CSV_COLUMNS, PendulumParams, build_pendulum_dataset
from rulemix.tabular import ShiftMixSpec, synth_shifted_classification


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


@pytest.mark.parametrize(
    "build,columns,digest",
    [
        (
            lambda: build_pendulum_dataset(DEFAULT_PARAMS, n_pairs=400, n_trajectories=3, seed=11),
            PENDULUM_CSV_COLUMNS,
            "20a1be498dbfea3cf0441f3d62826c3c6d0b8386063485d92eed03f62359501d",
        ),
        (
            lambda: build_pendulum_dataset(
                PendulumParams(m1=1.7, m2=0.6, l1=1.3, l2=0.4, g=9.2, b=0.3), n_pairs=400, n_trajectories=3, seed=11
            ),
            PENDULUM_CSV_COLUMNS,
            "06fcdbc581bb19d2a42e1b8f93da963562812732c84d97b9de60b2c5ec416539",
        ),
        (
            lambda: synth_shifted_classification(ShiftMixSpec(n_usual=40, n_unusual=10), seed=5),
            [f"x{i}" for i in range(6)] + ["y", "split"],
            "9fb05089310316017ca77236301ef0335f7e067f2c98bd35ae873331c024d72f",
        ),
    ],
    ids=["pendulum-default", "pendulum-other-params", "shifted-classification"],
)
def test_csv_bytes_are_pinned(tmp_path, build, columns, digest):
    path = tmp_path / "data.csv"
    dataset = build()
    write_dataset_csv(path, dataset, list(columns))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    back = read_dataset_csv(path, n_targets=dataset.y.shape[1])
    assert back.x.tobytes() == dataset.x.tobytes() and back.y.tobytes() == dataset.y.tobytes()
    assert back.split.tolist() == dataset.split.tolist()


def test_csv_equals_the_csv_module_rendering_over_many_blocks(tmp_path):
    # more rows than one conversion block, with magnitudes from 1e-300 to 1e299
    rng = np.random.default_rng(4)
    n = 2500
    x = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    x[:4, 0] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
    dataset = Dataset(x=x, y=rng.standard_normal((n, 2)), split=assign_splits(n, (0.6, 0.1, 0.3)))
    columns = ["a", "b", "c", "p", "q", "split"]
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(columns)
    for xi, yi, si in zip(dataset.x, dataset.y, dataset.split):
        writer.writerow([f"{v:.17g}" for v in xi] + [f"{v:.17g}" for v in yi] + [si])
    path = tmp_path / "data.csv"
    write_dataset_csv(path, dataset, columns)
    assert path.read_bytes() == want.getvalue().encode()
