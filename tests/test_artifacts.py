"""Every public artifact reader fails the same way: a DataError naming the path.

Each reader is run on a missing file, on bytes that are no artifact at all,
and on well-formed content that its type constructor or schema rejects; a
fault in one row is reported with that row's line number in the file.
"""

import functools
import hashlib
import re

import numpy as np
import pytest

from pairtraj import artifacts
from pairtraj.cli import read_transfer_csv, write_transfer_csv
from pairtraj.clustering import read_model_json
from pairtraj.errors import DataError
from pairtraj.evaluation import (
    read_quality_json,
    read_silhouette_csv,
    read_stability_csv,
    write_silhouette_csv,
)
from pairtraj.mds import Embedding, read_embedding_binary, write_embedding_binary
from pairtraj.procrustes import read_matrix_binary, read_matrix_csv
from pairtraj.segmentation import (
    SEGMENT_HEADER,
    read_knots_json,
    read_segments_csv,
    write_segments_csv,
)
from pairtraj.trajectory import (
    CSV_HEADER,
    Interaction,
    Trajectory,
    read_encounters_binary,
    read_encounters_csv,
    write_encounters_binary,
    write_encounters_csv,
)

READERS = {
    "read_json": artifacts.read_json,
    "read_rows": functools.partial(artifacts.read_rows, header=("a", "b")),
    "read_binary": functools.partial(artifacts.read_binary, magic=b"PTXX"),
    "read_model_json": read_model_json,
    "read_quality_json": read_quality_json,
    "read_silhouette_csv": read_silhouette_csv,
    "read_stability_csv": read_stability_csv,
    "read_matrix_csv": read_matrix_csv,
    "read_matrix_binary": read_matrix_binary,
    "read_embedding_binary": read_embedding_binary,
    "read_segments_csv": read_segments_csv,
    "read_knots_json": read_knots_json,
    "read_transfer_csv": read_transfer_csv,
    "read_encounters_csv": read_encounters_csv,
    "read_encounters_binary": read_encounters_binary,
}

# not UTF-8, no magic of ours, no JSON
GARBAGE = b"\x89PNG\r\n\x1a\n\xff\xfe\x00garbage\xc3\x28" * 8


def _matrix_blob(entries) -> bytes:
    entries = np.asarray(entries, dtype="<f8")
    return b"PTDM" + np.array([entries.shape[0]], dtype="<i8").tobytes() + entries.tobytes()


def _encounters_blob(ids, lengths, rows, count=None) -> bytes:
    """The encounter cache layout, packed by hand: count, row counts, id
    lengths in bytes, the ids, then (t, x1, y1, x2, y2) rows."""
    head = [len(ids) if count is None else count, *lengths, *map(len, ids)]
    table = np.asarray(rows, dtype="<f8")
    return b"PTEC" + np.array(head, dtype="<i8").tobytes() + b"".join(ids) + table.tobytes()


_TWO_ROWS = [[0, 1, 2, 3, 4], [1, 1, 2, 3, 4]]


def _nan_embedding(tmp_path) -> bytes:
    path = tmp_path / "valid.bin"
    write_embedding_binary(path, Embedding(np.zeros((2, 1)), 0.0, (3,), 0))
    return path.read_bytes()[:-8] + np.array([np.nan], dtype="<f8").tobytes()


# reader, file content, and the `:line` the error must name ("" for none)
REJECTED = [
    ("read_json", "[1]\n", ""),
    ("read_rows", "a,b\n1,2\n1,2,3\n", ":3:"),
    ("read_rows", "# [1]\na,b\n1,2\n", ":1:"),
    ("read_rows", "a,c\n1,2\n", ":1:"),
    (
        "read_model_json",
        '{"method": "nope", "k": 1, "seed": 0, "objective": 0.0,'
        ' "assignments": [0], "representatives": []}\n',
        "",
    ),
    ("read_model_json", '{"method": "mds", "k": 2}\n', ""),
    (
        "read_quality_json",
        '{"total_within": 0, "per_cluster_within": [0], "per_cluster_between": [0],'
        ' "within_variance": [0], "between_variance": [0], "silhouettes": [2.0],'
        ' "cluster_sizes": [1]}\n',
        "",
    ),
    ("read_silhouette_csv", '# {"seed": 1}\nid,cluster,silhouette\na,0,0.5\nb,0,oops\n', ":4:"),
    ("read_silhouette_csv", "id,cluster,silhouette\na,0\n", ":2:"),
    ("read_stability_csv", "# [1]\naxis1,axis2,value,delta1,delta2\n2,2,1.0,nan,nan\n", ":1:"),
    ("read_stability_csv", "axis1,axis2,value,delta1,delta2\n2,2,1.0,nan,nan\n", ""),
    (
        "read_stability_csv",
        '# {"axis1_name": "k", "axis2_name": "beta"}\naxis1,axis2,value,delta1,delta2\n'
        "2,2,-1.0,nan,nan\n",
        "",
    ),
    (
        "read_stability_csv",
        '# {"axis1_name": "k", "axis2_name": "beta"}\naxis1,axis2,value,delta1,delta2\n'
        "2,2,1.0,nan,nan\n3,3,x,nan,nan\n",
        ":4:",
    ),
    ("read_matrix_csv", "2\n0,1\n2,0\n", ""),
    ("read_matrix_csv", '# {"seed": 1}\n2\n0,1\n1,x\n', ":4:"),
    ("read_matrix_csv", "2\n0,1\n1\n", ":3:"),
    ("read_matrix_csv", "two\n0,1\n1,0\n", ":1:"),
    ("read_matrix_binary", _matrix_blob([[0.0, np.nan], [np.nan, 0.0]]), ""),
    ("read_matrix_binary", _matrix_blob([[0.0, 1.0], [2.0, 0.0]]), ""),
    ("read_matrix_binary", _matrix_blob([[0.0, 1.0], [1.0, 0.0]])[:-8], ""),
    ("read_embedding_binary", _nan_embedding, ""),
    (
        "read_segments_csv",
        "encounter_id,segment_index,t,x1,y1,x2,y2\n"
        "a,0,0,0,0,0,0\na,0,1,0,0,0,0\nb,0,1,0,0,0,0\nb,0,0.5,0,0,0,0\n",
        ":4:",
    ),
    ("read_segments_csv", "encounter_id,segment_index,t,x1,y1,x2,y2\na,zero,0,0,0,0,0\n", ":2:"),
    ("read_knots_json", '{"encounters": {"a": {"knots": [5, 3], "epsilon": 1.0}}}\n', ""),
    ("read_transfer_csv", '# {"seed": 1}\nid,cluster\na,0\nb,x\n', ":4:"),
    ("read_encounters_csv", "encounter_id,t,x1,y1,x2,y2\na,0,1,2,3,4\na,1,inf,2,3,4\n", ""),
    ("read_encounters_binary", _encounters_blob([b"a"], [2], [[0, 1, 2, 3, 4], [1, np.nan, 2, 3, 4]]), ""),
    ("read_encounters_binary", _encounters_blob([b"a"], [2], [[1, 1, 2, 3, 4], [0, 1, 2, 3, 4]]), ""),
    ("read_encounters_binary", _encounters_blob([b"a"], [2], _TWO_ROWS)[:-8], ""),
    ("read_encounters_binary", _encounters_blob([b"a"], [2], _TWO_ROWS) + b"\x00", ""),
    ("read_encounters_binary", _encounters_blob([b"a", b"b"], [1, 1], _TWO_ROWS), ""),
    ("read_encounters_binary", _encounters_blob([b"a", b"a"], [2, 2], _TWO_ROWS * 2), ""),
    ("read_encounters_binary", _encounters_blob([b"\xff"], [2], _TWO_ROWS), ""),
    ("read_encounters_binary", _encounters_blob([b"a"], [2], _TWO_ROWS, count=-1), ""),
    ("read_encounters_binary", _encounters_blob([b"a"], [2], _TWO_ROWS, count=1 << 40), ""),
    ("read_encounters_binary", _encounters_blob([b"a"], [2], _TWO_ROWS, count=1 << 62), ""),
]


def _error(reader, path) -> str:
    with pytest.raises(DataError) as info:
        READERS[reader](path)
    return str(info.value)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_missing_file(tmp_path, reader):
    path = tmp_path / "absent"
    assert str(path) in _error(reader, path)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_garbage_bytes(tmp_path, reader):
    path = tmp_path / "garbage"
    path.write_bytes(GARBAGE)
    assert str(path) in _error(reader, path)


@pytest.mark.parametrize(
    "reader, content, line", REJECTED, ids=[f"{r}-{i}" for i, (r, _, _) in enumerate(REJECTED)]
)
def test_rejected_content(tmp_path, reader, content, line):
    if callable(content):
        content = content(tmp_path)
    path = tmp_path / "artifact"
    if isinstance(content, str):
        path.write_text(content)
    else:
        path.write_bytes(content)
    message = _error(reader, path)
    assert message.startswith(str(path) + line), message
    if not line:
        assert not re.match(re.escape(str(path)) + r":\d", message), message


def test_rows_report_real_line_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    artifacts.write_rows(path, ("a", "b"), [["1", "2"], ["3", "4"]], meta={"seed": 1})
    with open(path, "a") as handle:
        handle.write("\n5,6\n")
    meta, rows = artifacts.read_rows(path, ("a", "b"))
    assert meta == {"seed": 1}
    assert rows == [(3, ["1", "2"]), (4, ["3", "4"]), (6, ["5", "6"])]


def test_json_meta_round_trip(tmp_path):
    path = tmp_path / "a.json"
    artifacts.write_json(path, {"b": 1, "a": [1.5]}, meta={"seed": 2})
    assert path.read_text() == (
        '{\n  "a": [\n    1.5\n  ],\n  "b": 1,\n  "meta": {\n    "seed": 2\n  }\n}\n'
    )
    assert artifacts.read_json(path) == {"a": [1.5], "b": 1, "meta": {"seed": 2}}


def test_encounters_blob_matches_the_writer(tmp_path):
    path = tmp_path / "enc.bin"
    path.write_bytes(_encounters_blob([b"a", b"\xc3\xa9"], [2, 2], _TWO_ROWS * 2))
    (first, a), (second, b) = read_encounters_binary(path)
    assert (first, second) == ("a", "\u00e9")
    assert a.grid.tolist() == b.grid.tolist() == [0.0, 1.0]
    assert a.second.samples.tolist() == [[3.0, 4.0], [3.0, 4.0]]
    write_encounters_binary(tmp_path / "again.bin", [(first, a), (second, b)])
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_binary_round_trip(tmp_path):
    path = tmp_path / "a.bin"
    artifacts.write_binary(path, b"PTXX", b"\x01\x02", b"\x03")
    assert bytes(artifacts.read_binary(path, b"PTXX")) == b"\x01\x02\x03"
    with pytest.raises(DataError, match="PTYY"):
        artifacts.read_binary(path, b"PTYY")


def test_file_sha256(tmp_path):
    path = tmp_path / "a.csv"
    blob = bytes(range(256)) * 5000  # several read chunks
    path.write_bytes(blob)
    assert artifacts.file_sha256(path).hexdigest() == hashlib.sha256(blob).hexdigest()
    with pytest.raises(DataError, match=re.escape(str(tmp_path / "absent"))):
        artifacts.file_sha256(tmp_path / "absent")


def test_rows_quote_commas_and_quotes(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [
        ["b,c", "1"], ['e"f', "2"], ['"g"', "3"], ["plain", 'x,"y"'], ["#a", "4"], ["b#c", "#5"]
    ]
    artifacts.write_rows(path, ("id", "v"), rows)
    # a line starting with `#` is a comment to the encounter reader
    assert path.read_text() == (
        'id,v\n"b,c",1\n"e""f",2\n"""g""",3\nplain,"x,""y"""\n"#a",4\nb#c,"#5"\n'
    )
    assert [fields for _, fields in artifacts.read_rows(path, ("id", "v"))[1]] == rows


def test_fmt_row_matches_fmt_per_field():
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-320, 1e-300, 1 / 3, 1e16]
    bits = rng.integers(0, 2**63, size=4000, dtype=np.uint64).view(np.float64)
    for values in (special, bits.tolist(), rng.normal(size=500).tolist(), []):
        assert artifacts.fmt_row(values) == ",".join(map(artifacts.fmt, values))


# ids the encounter reader accepts in quotes; every rows writer must quote them back
AWKWARD_IDS = ["plain", "b,c", 'e"f', '"g"', 'h,"i"', "#j", "k#l"]


def _inter(T, offset):
    grid = np.linspace(0.0, 1.0, T)
    curve = np.column_stack([grid, grid**2]) + offset
    return Interaction(Trajectory(curve, grid), Trajectory(-curve, grid))


def test_encounters_round_trip_awkward_ids(tmp_path):
    path = tmp_path / "enc.csv"
    encounters = [(enc_id, _inter(5, i)) for i, enc_id in enumerate(AWKWARD_IDS)]
    write_encounters_csv(path, encounters, meta={"seed": 1})
    back = read_encounters_csv(path)
    assert [enc_id for enc_id, _ in back] == AWKWARD_IDS
    for (_, a), (_, b) in zip(back, encounters):
        assert a.first.samples.tolist() == b.first.samples.tolist()


def test_numeric_writers_match_per_field_rows(tmp_path):
    # a row of `quoted` ids and `fmt_row` numbers is what write_rows makes of
    # the same row given field by field
    encounters = [(enc_id, _inter(3, -i / 3)) for i, enc_id in enumerate(AWKWARD_IDS)]
    write_encounters_csv(tmp_path / "a.csv", encounters, meta={"seed": 1})
    rows = [
        [enc_id, *map(artifacts.fmt, row)]
        for enc_id, inter in encounters
        for row in np.column_stack([inter.grid, inter.first.samples, inter.second.samples])
    ]
    artifacts.write_rows(tmp_path / "b.csv", CSV_HEADER, rows, meta={"seed": 1})
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    write_segments_csv(tmp_path / "c.csv", [(i, [inter]) for i, inter in encounters])
    rows = [[row[0], "0", *row[1:]] for row in rows]
    artifacts.write_rows(tmp_path / "d.csv", SEGMENT_HEADER, rows)
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()


def test_segments_round_trip_awkward_ids(tmp_path):
    path = tmp_path / "segments.csv"
    segmented = [(enc_id, [_inter(4, i), _inter(6, -i)]) for i, enc_id in enumerate(AWKWARD_IDS)]
    write_segments_csv(path, segmented, meta={"seed": 1})
    back = read_segments_csv(path)
    assert [(enc_id, len(segs)) for enc_id, segs in back] == [(i, 2) for i in AWKWARD_IDS]
    assert back[1][1][1].second.samples.tolist() == segmented[1][1][1].second.samples.tolist()


def test_silhouette_and_transfer_round_trip_awkward_ids(tmp_path):
    labels = [0, 1, 0, 1, 1, 0, 1]
    write_silhouette_csv(tmp_path / "sil.csv", AWKWARD_IDS, labels, [0.5] * 7, {"seed": 1})
    ids, clusters, _ = read_silhouette_csv(tmp_path / "sil.csv")
    assert sorted(zip(ids, clusters.tolist())) == sorted(zip(AWKWARD_IDS, labels))
    write_transfer_csv(tmp_path / "transfer.csv", AWKWARD_IDS, labels, {"seed": 1})
    assert read_transfer_csv(tmp_path / "transfer.csv") == list(zip(AWKWARD_IDS, labels))


def _one_row_then_disk_full():
    yield ["1", "2"]
    raise OSError("disk full")


# each layout writer failing part-way through: the error, and the failing call
FAILED_WRITES = {
    "write_json": (TypeError, lambda path: artifacts.write_json(path, {"a": 1, "b": object()})),
    "write_rows": (
        OSError, lambda path: artifacts.write_rows(path, ("a", "b"), _one_row_then_disk_full())
    ),
    "write_binary": (
        TypeError, lambda path: artifacts.write_binary(path, b"PTXX", b"\x01", "not bytes")
    ),
}


@pytest.mark.parametrize("writer", sorted(FAILED_WRITES))
def test_failed_write_keeps_earlier_file(tmp_path, writer):
    error, write = FAILED_WRITES[writer]
    path = tmp_path / "artifact"
    path.write_bytes(b"earlier bytes\n")
    with pytest.raises(error):
        write(path)
    assert path.read_bytes() == b"earlier bytes\n"
    assert [leaf.name for leaf in tmp_path.iterdir()] == ["artifact"]


def test_unwritable_path_is_data_error(tmp_path):
    path = tmp_path / "absent" / "a.json"
    with pytest.raises(DataError, match="cannot write " + re.escape(str(path))):
        artifacts.write_json(path, {"a": 1})
    assert not (tmp_path / "absent").exists()

