"""``read_table``'s two paths read every table alike: numpy's reader for plain tables, the csv loop for the rest.

The csv loop (``_read_csv_table``, with the non-finite check after it) is
the reference. A table ``write_table`` wrote takes numpy's path and reads
back bit for bit; a table mutated away from that form reads as the
reference reads it, or fails with the reference's exact ``ValueError``.
"""

import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import rulemix.data
from rulemix.data import SPLITS, _decoded, _read_plain_table, read_table, write_table

AWKWARD = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1, 1 / 3, 2 / 3, 9007199254740993.0, 1e22, 1e-7, 123456789.12345679,
]
CELLS = st.one_of(st.sampled_from(AWKWARD), st.floats(allow_nan=False, allow_infinity=False))
# a label holds any text but a comma and the characters that send a table to the csv loop (data._NOT_PLAIN)
LABELS = st.one_of(st.sampled_from(SPLITS), st.text(st.characters(blacklist_characters=',\n' + rulemix.data._NOT_PLAIN,
                                                                  blacklist_categories=("Cs",)), max_size=6))


@st.composite
def tables(draw, labels=LABELS):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    numbers = np.array(draw(st.lists(st.lists(CELLS, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
    return [f"c{j}" for j in range(cols)] + ["split"], numbers, draw(st.lists(labels, min_size=rows, max_size=rows))


FIELD_LIMIT = 131_072  # csv.field_size_limit()'s default
# each mutation rewrites one cell of the numbers; the table is otherwise as write_table wrote it
CELL_MUTATIONS = {
    "quoted": lambda cell: f'"{cell}"',
    "nul": lambda cell: cell + "\x00",
    "extra comma": lambda cell: cell + ",0",
    "missing comma": lambda cell: cell + "\x01",  # marks the comma after the cell for removal
    "empty": lambda cell: "",
    "underscore": lambda cell: "1_000",
    "arabic-indic digit": lambda cell: "١",
    "comment mark": lambda cell: "1.0#x",
    "leading nbsp": lambda cell: "\xa0" + cell,
    "leading space": lambda cell: " " + cell,
    "file separator": lambda cell: "\x1c" + cell,
    "field at the limit": lambda cell: "0" * (FIELD_LIMIT - 1) + "1",
    "field over the limit": lambda cell: "0" * FIELD_LIMIT + "1",
    "inf": lambda cell: "inf",
    "-inf": lambda cell: "-inf",
    "nan": lambda cell: "nan",
    "overflow": lambda cell: "1e999",
}
LINE_MUTATIONS = {
    "crlf": lambda lines, i: [line + "\r" for line in lines],
    "blank line": lambda lines, i: lines[: i + 1] + [""] + lines[i + 1 :],
    "quoted label": lambda lines, i: [*lines[:i], '{0},"{2}"'.format(*lines[i].rpartition(",")), *lines[i + 1:]],
    "no final newline": lambda lines, i: lines,  # joined without the last "\n"
}


@contextmanager
def table_file(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode())
        yield path


def outcome(path: Path, reference: bool):
    """What ``read_table`` gives: the header, the table's shape and bytes and the labels, or its error."""
    with mock.patch.object(rulemix.data, "_read_plain_table", return_value=None) if reference else nullcontext():
        try:
            header, table, labels = read_table(path)
        except ValueError as exc:
            return "ValueError", str(exc)
    return header, table.shape, table.dtype, table.tobytes(), labels


def written_text(header, numbers, labels) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_table(path, header, [numbers], np.array(labels, dtype=object))
        return path.read_text()


def with_cell_mutated(lines: list[str], i: int, j: int, mutation: str) -> list[str]:
    cells = lines[i].split(",")
    cells[j] = CELL_MUTATIONS[mutation](cells[j])
    return [*lines[:i], ",".join(cells).replace("\x01,", ""), *lines[i + 1 :]]


@settings(max_examples=150, deadline=None)
@given(table=tables())
def test_a_written_table_takes_numpys_path_and_reads_back_bit_for_bit(table):
    header, numbers, labels = table
    with table_file(written_text(header, numbers, labels)) as path:
        assert _read_plain_table(path, _decoded(path.read_bytes())) is not None
        got_header, got, got_labels = read_table(path)
        assert outcome(path, reference=False) == outcome(path, reference=True)
    assert got_header == header and got_labels == labels
    assert got.shape == numbers.shape and got.tobytes() == numbers.tobytes()


@settings(max_examples=300, deadline=None)
@given(table=tables(st.sampled_from(SPLITS)), mutation=st.sampled_from(sorted(CELL_MUTATIONS)), data=st.data())
def test_a_cell_mutated_reads_as_the_csv_loop_reads_it(table, mutation, data):
    header, numbers, labels = table
    lines = written_text(header, numbers, labels).split("\n")[:-1]
    i = data.draw(st.integers(1, len(lines) - 1), label="line")
    j = data.draw(st.integers(0, numbers.shape[1] - 1), label="cell")
    with table_file("\n".join(with_cell_mutated(lines, i, j, mutation)) + "\n") as path:
        assert outcome(path, reference=False) == outcome(path, reference=True)


@settings(max_examples=60, deadline=None)
@given(table=tables(st.sampled_from(SPLITS)), mutation=st.sampled_from(sorted(LINE_MUTATIONS)), data=st.data())
def test_a_line_mutated_reads_as_the_csv_loop_reads_it(table, mutation, data):
    header, numbers, labels = table
    lines = written_text(header, numbers, labels).split("\n")[:-1]
    lines = LINE_MUTATIONS[mutation](lines, data.draw(st.integers(1, len(lines) - 1), label="line"))
    end = "" if mutation == "no final newline" else "\n"
    with table_file("\n".join(lines) + end) as path:
        assert outcome(path, reference=False) == outcome(path, reference=True)


def test_every_cell_mutation_but_padding_and_non_finite_values_takes_the_csv_loop():
    """Which cell mutations numpy's path hands to the csv loop; it reads the others, compared with the loop above."""
    header, numbers, labels = ["x0", "y", "split"], np.array([[0.5, 1.0], [0.25, -0.0]]), ["train", "val"]
    lines = written_text(header, numbers, labels).split("\n")[:-1]
    refused = []
    for name in CELL_MUTATIONS:
        with table_file("\n".join(with_cell_mutated(lines, 2, 0, name)) + "\n") as path:
            if _read_plain_table(path, _decoded(path.read_bytes())) is None:
                refused.append(name)
    # numpy reads a padded cell and a non-finite one as float() does; every other mutation takes the csv loop
    assert sorted(refused) == sorted(set(CELL_MUTATIONS) - {"leading nbsp", "leading space", "inf", "-inf", "nan",
                                                            "overflow"})
