"""Dataset container invariants, the numeric table format and the CSV round trip."""

import csv
import hashlib
import io
import math

import numpy as np
import pytest

from rulemix.data import (
    Dataset, assign_splits, check_paths, read_dataset_csv, read_table, staged_writes, write_dataset_csv, write_table,
)
from rulemix.evaluate import SweepRecord, sweep_from_csv, sweep_to_csv
from rulemix.pendulum import DEFAULT_PARAMS, PENDULUM_CSV_COLUMNS, PendulumParams, build_pendulum_dataset
from rulemix.tabular import ShiftMixSpec, synth_shifted_classification
from rulemix.train import EpochRecord, TrainReport


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


def awkward_floats(rng, shape):
    """Floats from 1e-300 to 1e299 in magnitude, with -0.0, the smallest subnormal and the largest float."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    values.flat[:3] = [-0.0, 5e-324, 1.7976931348623157e308]
    return values


def test_sweep_report_and_embeddings_bytes_equal_their_f_string_rendering(tmp_path):
    # the oracle is each writer's own f-string row loop, as it was before write_table
    rng = np.random.default_rng(8)
    numbers = awkward_floats(rng, (1100, 4))
    records = [SweepRecord(a, m, v, s) for (a, m, v, _), s in zip(numbers.tolist(), assign_splits(1100, (0.5, 0.2, 0.3)))]
    want = "alpha,task_metric,verification,split\n" + "".join(
        f"{r.alpha:.17g},{r.task_metric:.17g},{r.verification:.17g},{r.split}\n" for r in records
    )
    sweep_to_csv(records, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_text() == want
    assert sweep_from_csv(tmp_path / "sweep.csv") == records

    epochs = [EpochRecord(i + 1, t, math.nan if i == 1 else r, v, a) for i, (t, r, v, a) in enumerate(numbers.tolist())]
    want = "epoch,train_task,train_rule,val_metric,alpha_mean\n" + "".join(
        f"{r.epoch},{r.train_task:.17g},{r.train_rule:.17g},{r.val_metric:.17g},{r.alpha_mean:.17g}\n" for r in epochs
    )
    TrainReport(records=epochs).to_csv(tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_text() == want and ",nan," in want

    latents = {"z": numbers[:, :3], "z_rule": numbers[:, 3:], "z_data": awkward_floats(rng, (1100, 2))}
    names = [f"{key}{j}" for key, mat in latents.items() for j in range(mat.shape[1])]
    want = ",".join(names) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in np.concatenate(list(latents.values()), axis=1)
    )
    write_table(tmp_path / "latents.csv", names, list(latents.values()))
    assert (tmp_path / "latents.csv").read_text() == want


def test_table_of_no_rows_is_its_header_alone(tmp_path):
    path = tmp_path / "sweep.csv"
    sweep_to_csv([], path)
    assert path.read_text() == "alpha,task_metric,verification,split\n"
    with pytest.raises(ValueError, match=f"^{path}: no data rows$"):
        read_table(path)


def test_table_writer_rejects_a_header_that_does_not_fit(tmp_path):
    with pytest.raises(ValueError, match="expected 3 column names, got 2"):
        write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros((2, 2))], ["train", "val"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "content,error",
    [
        (b"x0,y,split\n" + b"1" * 200_000 + b",1.0,train\n", ":2: field larger than field limit (131072)"),
        (b"x0,y,split\n1.0,2.0,train\n1.0,2\x00.0,val\n", ":3: could not convert string to float: '2\\x00.0'"),
        (b"x0,y,split\n1.0,2.0,train\n\xff,2.0,val\n", ": 'utf-8' codec can't decode byte 0xff"),
        (b"x0,y,split\n1.0,2.0,train\n1.0,1e999,val\n", ":3: non-finite value 'inf' in column 'y'"),
    ],
    ids=["field limit", "nul byte", "not utf-8", "overflow"],
)
def test_unreadable_table_is_one_value_error_naming_the_file(tmp_path, content, error):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    with pytest.raises(ValueError) as info:
        read_dataset_csv(path, n_targets=1)
    assert str(info.value).startswith(f"{path}{error}") and "\n" not in str(info.value)


def test_unknown_split_label_in_a_csv_names_the_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,y,split\n0.5,1.0,train\n0.25,0.0,tset\n")
    with pytest.raises(ValueError) as info:
        read_dataset_csv(path, n_targets=1)
    assert str(info.value).startswith(f"{path}: unknown split labels ['tset']")


def test_first_staged_write_creates_the_missing_directory_and_the_check_creates_none(tmp_path):
    target = tmp_path / "new" / "deeper" / "a.txt"
    check_paths({}, [("--out", target)])
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(OSError, match="disk full"):
        with staged_writes():
            raise OSError("disk full")
    assert list(tmp_path.iterdir()) == []
    with staged_writes() as stage:
        stage(target).write_text("one")
    assert target.read_text() == "one"
    assert [p.name for p in target.parent.iterdir()] == ["a.txt"]
