"""Dataset container invariants and the CSV round trip."""

import numpy as np
import pytest

from rulemix.data import Dataset, read_dataset_csv


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
