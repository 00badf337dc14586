"""The artifact layer.

Every artifact reader in the library fails the same way: a DataError naming
the path.  Each one is run on a missing file, on bytes that are no artifact
at all, and on well-formed content that its type constructor or schema
rejects; a fault in one row is reported with that row's line number in the
file.  Apart from distances.csv, the library reads back only what the
program consumes, so the files written for people (segments, silhouettes,
transfer, quality, stability, knots) have no reader of their own: tests read
them back through `artifacts.rows` or `artifacts.read_json`.  Each
writer replaces its file whole, and the next write removes a killed writer's
partial file.
"""

import gc
import hashlib
import json
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairtraj
from pairtraj import artifacts
from pairtraj.clustering import read_model_json
from pairtraj.errors import DataError, InvalidInputError, NumericalError
from pairtraj.evaluation import (
    SILHOUETTE_HEADER,
    TRANSFER_HEADER,
    write_silhouette_csv,
    write_transfer_csv,
)
from pairtraj.mds import Embedding, read_embedding_binary, write_embedding_binary
from pairtraj.procrustes import read_matrix_binary
from pairtraj.segmentation import SEGMENT_HEADER, segment_rows
from pairtraj.trajectory import (
    CSV_HEADER,
    Interaction,
    Trajectory,
    read_encounters_binary,
    read_encounters_csv,
    write_encounters_binary,
    write_encounters_csv,
)

# the key names each reader in the test ids; "read_rows" is `artifacts.rows`
READERS = {
    "read_json": artifacts.read_json,
    "read_rows": lambda path: list(artifacts.rows(path, ("a", "b"))),
    "read_arrays": lambda path: artifacts.read_arrays(path, b"PTXX", "f8"),
    "read_model_json": read_model_json,
    "read_matrix_binary": read_matrix_binary,
    "read_embedding_binary": read_embedding_binary,
    "read_encounters_csv": read_encounters_csv,
    "read_encounters_binary": read_encounters_binary,
}

# not UTF-8, no magic of ours, no JSON
GARBAGE = b"\x89PNG\r\n\x1a\n\xff\xfe\x00garbage\xc3\x28" * 8


def _arrays_blob(magic, *arrays, counts=None) -> bytes:
    """The arrays layout packed by hand: magic, int64 element counts (the
    arrays' sizes unless given), then each array's little-endian bytes."""
    counts = [np.size(a) for a in arrays] if counts is None else counts
    body = b"".join(np.asarray(a).tobytes() for a in arrays)
    return magic + np.array(counts, dtype="<i8").tobytes() + body


def _matrix_blob(entries) -> bytes:
    return _arrays_blob(b"PTD2", np.asarray(entries, dtype="<f8"))


def _encounters_blob(ids, lengths, rows, count=None) -> bytes:
    """The encounter cache layout, packed by hand: the row counts then the id
    lengths in bytes, the ids, then the t column of the rows, their (x1, y1)
    pairs and their (x2, y2) pairs.  `count` overrides the first array's
    element count."""
    table = np.asarray(rows, dtype="<f8")
    sizes = np.array([*lengths, *map(len, ids)], dtype="<i8")
    values = np.concatenate([table[:, 0], table[:, 1:3].ravel(), table[:, 3:5].ravel()])
    counts = [sizes.size if count is None else count, sum(map(len, ids)), values.size]
    return _arrays_blob(b"PTC2", sizes, np.frombuffer(b"".join(ids), np.uint8), values,
                        counts=counts)


_TWO_ROWS = [[0, 1, 2, 3, 4], [1, 1, 2, 3, 4]]


def _nan_embedding(tmp_path) -> bytes:
    path = tmp_path / "valid.bin"
    write_embedding_binary(path, Embedding(np.zeros((2, 1)), 0.0, (3,), 0))
    return path.read_bytes()[:-8] + np.array([np.nan], dtype="<f8").tobytes()


# reader, file content, and the `:line` the error must name ("" for none), under
# a case number that names the test and stays with the case
REJECTED = {
    0: ("read_json", "[1]\n", ""),
    1: ("read_rows", "a,b\n1,2\n1,2,3\n", ":3:"),
    3: ("read_rows", "a,c\n1,2\n", ":1:"),
    4: (
        "read_model_json",
        '{"method": "nope", "k": 1, "seed": 0, "objective": 0.0,'
        ' "assignments": [0], "representatives": []}\n',
        "",
    ),
    5: ("read_model_json", '{"method": "mds", "k": 2}\n', ""),
    17: ("read_matrix_binary", _matrix_blob([[0.0, np.nan], [np.nan, 0.0]]), ""),
    18: ("read_matrix_binary", _matrix_blob([[0.0, 1.0], [2.0, 0.0]]), ""),
    19: ("read_matrix_binary", _matrix_blob([[0.0, 1.0], [1.0, 0.0]])[:-8], ""),
    20: ("read_embedding_binary", _nan_embedding, ""),
    25: ("read_encounters_csv", "encounter_id,t,x1,y1,x2,y2\na,0,1,2,3,4\na,1,inf,2,3,4\n", ""),
    26: ("read_encounters_binary", _encounters_blob([b"a"], [2], [[0, 1, 2, 3, 4], [1, np.nan, 2, 3, 4]]), ""),
    27: ("read_encounters_binary", _encounters_blob([b"a"], [2], [[1, 1, 2, 3, 4], [0, 1, 2, 3, 4]]), ""),
    28: ("read_encounters_binary", _encounters_blob([b"a"], [2], _TWO_ROWS)[:-8], ""),
    29: ("read_encounters_binary", _encounters_blob([b"a"], [2], _TWO_ROWS) + b"\x00", ""),
    30: ("read_encounters_binary", _encounters_blob([b"a", b"b"], [1, 1], _TWO_ROWS), ""),
    31: ("read_encounters_binary", _encounters_blob([b"a", b"a"], [2, 2], _TWO_ROWS * 2), ""),
    32: ("read_encounters_binary", _encounters_blob([b"\xff"], [2], _TWO_ROWS), ""),
    33: ("read_encounters_binary", _encounters_blob([b"a"], [2], _TWO_ROWS, count=-1), ""),
    34: ("read_encounters_binary", _encounters_blob([b"a"], [2], _TWO_ROWS, count=1 << 40), ""),
    35: ("read_encounters_binary", _encounters_blob([b"a"], [2], _TWO_ROWS, count=1 << 62), ""),
    36: ("read_matrix_binary", _matrix_blob([[0.0, 1.0], [1.0, 0.0]]) + b"\x00", ""),
    37: ("read_matrix_binary", _arrays_blob(b"PTD2", np.zeros(3)), ""),
    38: ("read_matrix_binary", b"PTD2\x01\x00\x00\x00", ""),
    39: ("read_embedding_binary", _arrays_blob(b"PTM2", np.array([0, 0, 3]), np.zeros(3)), ""),
    40: ("read_embedding_binary", _arrays_blob(b"PTM2", np.array([1]), np.zeros(3)), ""),
    41: ("read_embedding_binary", _arrays_blob(b"PTM2", np.array([1, 0]), np.zeros(0)), ""),
    42: ("read_encounters_binary", _encounters_blob([b"a"], [2, 0], _TWO_ROWS), ""),
    43: ("read_encounters_binary", _encounters_blob([b"a"], [3], _TWO_ROWS), ""),
    44: ("read_encounters_binary", _encounters_blob([b"a", b"b"], [4, -2], _TWO_ROWS), ""),
}


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
    "reader, content, line",
    REJECTED.values(),
    ids=[f"{r}-{i}" for i, (r, _, _) in REJECTED.items()],
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


def _lines(rows) -> list[str]:
    """Rows given field by field, as the whole lines `write_rows` takes."""
    return [",".join(map(artifacts.quoted, fields)) + "\n" for fields in rows]


def test_rows_report_real_line_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    artifacts.write_rows(path, ("a", "b"), ["1,2\n3,4\n"], meta={"seed": 1})
    with open(path, "a") as handle:
        handle.write("\n5,6\n")
    with open(path) as handle:
        assert json.loads(handle.readline()[1:]) == {"seed": 1}
    rows = list(artifacts.rows(path, ("a", "b")))
    assert rows == [(3, ["1", "2"]), (4, ["3", "4"]), (6, ["5", "6"])]


def test_rows_skip_a_comment_line_after_the_header(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("# {}\n\n a , b \n#1,2,3\n1,2\n# x\n\n3,4\n")
    assert list(artifacts.rows(path, ("a", "b"))) == [(5, ["1", "2"]), (8, ["3", "4"])]


def test_a_consumer_that_raises_leaves_no_open_handle(tmp_path, monkeypatch):
    path = tmp_path / "enc.csv"
    path.write_text(",".join(CSV_HEADER) + "\na,0,1,2,3,4\na,1,x,2,3,4\na,2,1,2,3,4\n")
    handles, opened = [], artifacts.opened
    monkeypatch.setattr(
        artifacts, "opened", lambda *a, **kw: handles.append(opened(*a, **kw)) or handles[-1]
    )
    # the encounter reader stops at line 3 and closes the file at once, while
    # the error and its traceback are still held
    with pytest.raises(DataError, match=":3: non-numeric") as info:
        read_encounters_csv(path)
    assert handles[0].closed and info.tb is not None

    def stop_at_line_3():
        for no, _ in artifacts.rows(path, CSV_HEADER):
            if no == 3:
                raise KeyError(no)

    # a consumer that leaves the generator open has it closed once dropped,
    # with no ResourceWarning, which this suite makes an error
    with pytest.raises(KeyError) as info:
        stop_at_line_3()
    del info
    gc.collect()
    assert handles[1].closed


def test_json_meta_round_trip(tmp_path):
    path = tmp_path / "a.json"
    artifacts.write_json(path, {"b": 1, "a": [1.5]}, meta={"seed": 2})
    assert path.read_text() == (
        '{\n  "a": [\n    1.5\n  ],\n  "b": 1,\n  "meta": {\n    "seed": 2\n  }\n}\n'
    )
    assert artifacts.read_json(path) == {"a": [1.5], "b": 1, "meta": {"seed": 2}}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_json_refuses_nan_and_infinity_and_keeps_the_earlier_file(tmp_path, bad):
    # JSON (RFC 8259) has no NaN or Infinity: jq and JavaScript reject them
    path = tmp_path / "a.json"
    artifacts.write_json(path, {"epsilon": 0.5})
    before = path.read_bytes()
    with pytest.raises(NumericalError, match="not JSON compliant"):
        artifacts.write_json(path, {"epsilon": bad})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["a.json"]


def test_encounters_blob_matches_the_writer(tmp_path):
    path = tmp_path / "enc.bin"
    path.write_bytes(_encounters_blob([b"a", b"\xc3\xa9"], [2, 2], _TWO_ROWS * 2))
    (first, a), (second, b) = read_encounters_binary(path)
    assert (first, second) == ("a", "\u00e9")
    assert a.grid.tolist() == b.grid.tolist() == [0.0, 1.0]
    assert a.second.samples.tolist() == [[3.0, 4.0], [3.0, 4.0]]
    write_encounters_binary(tmp_path / "again.bin", [(first, a), (second, b)])
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_arrays_round_trip(tmp_path):
    path = tmp_path / "a.bin"
    matrix = np.arange(6.0).reshape(2, 3)
    chunks = [np.array([1, -2], dtype=">i8"), np.array([3], dtype="<i8")]
    empty, ids = np.zeros(0, np.uint8), np.frombuffer(b"\xc3\xa9", np.uint8)
    artifacts.write_arrays(path, b"PTXX", matrix, chunks, empty, ids)
    # magic, four counts, then the arrays in the order given, little-endian
    assert path.read_bytes() == _arrays_blob(
        b"PTXX", matrix, np.array([1, -2, 3], dtype="<i8"), empty, ids
    )
    arrays = artifacts.read_arrays(path, b"PTXX", "f8", "i8", "u1", "u1")
    assert [a.tolist() for a in arrays] == [list(range(6)), [1, -2, 3], [], [195, 169]]
    assert all(a.ndim == 1 and not a.flags.writeable for a in arrays)
    with pytest.raises(DataError, match="PTYY"):
        artifacts.read_arrays(path, b"PTYY", "f8", "i8", "u1", "u1")
    # the counts must fill the file exactly for the dtypes asked
    for dtypes in (("f8", "i8", "u1"), ("f8", "i8", "u1", "u1", "u1"), ("f8", "i8", "u1", "i8")):
        with pytest.raises(DataError, match="counts"):
            artifacts.read_arrays(path, b"PTXX", *dtypes)


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
    artifacts.write_rows(path, ("id", "v"), _lines(rows))
    # a line starting with `#` is a comment to the rows reader
    assert path.read_text() == (
        'id,v\n"b,c",1\n"e""f",2\n"""g""",3\nplain,"x,""y"""\n"#a",4\nb#c,"#5"\n'
    )
    assert [fields for _, fields in artifacts.rows(path, ("id", "v"))] == rows


def _per_value(table, leads):
    return "".join(
        lead + ",".join(format(v, ".17g") for v in row) + "\n" for lead, row in zip(leads, table)
    )


def test_table_lines_writes_format_per_value():
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-320, 1e-300, 1 / 3, 1e16]
    bits = rng.integers(0, 2**63, size=4000, dtype=np.uint64).view(np.float64)
    tables = [
        np.reshape(special, (2, 5)), bits.reshape(1000, 4), rng.normal(size=(100, 5)),
        np.zeros((0, 3)),
    ]
    for table in tables:
        assert artifacts.table_lines(table) == _per_value(table, [""] * len(table))
    assert artifacts.table_lines(np.zeros((0, 3)), "a,") == ""


# ids the encounter reader accepts in quotes; every rows writer must quote them
# back, and a `%` in one must not reach the format
AWKWARD_IDS = [
    "plain", "b,c", 'e"f', '"g"', 'h,"i"', "#j", "k#l", " m", "n%d", "100%", "%%", "%(o)s",
]
_AWKWARD_TEXT = st.text(st.sampled_from(' ,"#%dsgx\u00e9'), max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    table=st.integers(0, 6).flatmap(
        lambda rows: st.integers(1, 5).flatmap(
            lambda cols: st.lists(
                st.floats(width=64), min_size=rows * cols, max_size=rows * cols
            ).map(lambda values: np.reshape(np.array(values, dtype=float), (rows, cols)))
        )
    ),
    texts=st.lists(st.lists(_AWKWARD_TEXT, min_size=0, max_size=2), min_size=6, max_size=6),
)
def test_table_lines_property(table, texts):
    leads = ["".join(artifacts.quoted(text) + "," for text in fields) for fields in texts]
    assert artifacts.table_lines(table, leads[: len(table)]) == _per_value(table, leads)
    assert artifacts.table_lines(table, leads[0]) == _per_value(table, [leads[0]] * len(table))


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
    # `quoted` ids and `table_lines` numbers are the same rows quoted field by
    # field
    encounters = [(enc_id, _inter(3, -i / 3)) for i, enc_id in enumerate(AWKWARD_IDS)]
    write_encounters_csv(tmp_path / "a.csv", encounters, meta={"seed": 1})
    rows = [
        [enc_id, *(format(v, ".17g") for v in row)]
        for enc_id, inter in encounters
        for row in np.column_stack([inter.grid, inter.first.samples, inter.second.samples])
    ]
    artifacts.write_rows(tmp_path / "b.csv", CSV_HEADER, _lines(rows), meta={"seed": 1})
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    blocks = [block for enc_id, inter in encounters for block in segment_rows(enc_id, [inter])]
    artifacts.write_rows(tmp_path / "c.csv", SEGMENT_HEADER, blocks)
    rows = [[row[0], "0", *row[1:]] for row in rows]
    artifacts.write_rows(tmp_path / "d.csv", SEGMENT_HEADER, _lines(rows))
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()


def test_segments_round_trip_awkward_ids(tmp_path):
    path = tmp_path / "segments.csv"
    segmented = [(enc_id, [_inter(4, i), _inter(6, -i)]) for i, enc_id in enumerate(AWKWARD_IDS)]
    blocks = [block for enc_id, segs in segmented for block in segment_rows(enc_id, segs)]
    artifacts.write_rows(path, SEGMENT_HEADER, blocks, {"seed": 1})
    # one block of lines per segment
    assert len(blocks) == 2 * len(AWKWARD_IDS)
    assert path.read_text().split("\n", 2)[2] == "".join(blocks)
    rows = artifacts.rows(path, SEGMENT_HEADER)
    keys = [(enc_id, index) for enc_id, segs in segmented for index in ("0", "1")]
    assert list(dict.fromkeys(tuple(fields[:2]) for _, fields in rows)) == keys


def _ids_and_clusters(path, header):
    return [tuple(fields[:2]) for _, fields in artifacts.rows(path, header)]


def test_silhouette_and_transfer_round_trip_awkward_ids(tmp_path):
    labels = [0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1]
    expected = [(enc_id, str(label)) for enc_id, label in zip(AWKWARD_IDS, labels)]
    write_silhouette_csv(tmp_path / "sil.csv", AWKWARD_IDS, labels, [0.5] * 12, {"seed": 1})
    assert sorted(_ids_and_clusters(tmp_path / "sil.csv", SILHOUETTE_HEADER)) == sorted(expected)
    write_transfer_csv(tmp_path / "transfer.csv", AWKWARD_IDS, labels, {"seed": 1})
    assert _ids_and_clusters(tmp_path / "transfer.csv", TRANSFER_HEADER) == expected


# each writer of ids, with the id it is given
ID_WRITERS = {
    "encounters": lambda path, enc_id: write_encounters_csv(path, [(enc_id, _inter(3, 0))]),
    # cut lazily, as `pairtraj segment` streams its blocks into write_rows
    "segments": lambda path, enc_id: artifacts.write_rows(
        path, SEGMENT_HEADER, (b for segs in [[_inter(3, 0)]] for b in segment_rows(enc_id, segs))
    ),
    "silhouette": lambda path, enc_id: write_silhouette_csv(path, ["a", enc_id], [0, 1], [0.5, 1]),
    "transfer": lambda path, enc_id: write_transfer_csv(path, ["a", enc_id], [0, 1]),
}


@pytest.mark.parametrize("enc_id", ["a\nb", "a\rb"])
@pytest.mark.parametrize("writer", sorted(ID_WRITERS))
def test_a_field_with_a_line_break_is_refused(tmp_path, writer, enc_id):
    # readers split lines before fields, so no line could hold the id
    path = tmp_path / "artifact.csv"
    path.write_bytes(b"earlier bytes\n")
    with pytest.raises(InvalidInputError, match=re.escape(repr(enc_id))):
        ID_WRITERS[writer](path, enc_id)
    assert path.read_bytes() == b"earlier bytes\n"
    assert os.listdir(tmp_path) == ["artifact.csv"]


def _one_row_then_disk_full():
    yield "1,2\n"
    raise OSError("disk full")


# each layout writer failing part-way through: the error, and the failing call
FAILED_WRITES = {
    "write_json": (TypeError, lambda path: artifacts.write_json(path, {"a": 1, "b": object()})),
    "write_rows": (
        OSError, lambda path: artifacts.write_rows(path, ("a", "b"), _one_row_then_disk_full())
    ),
    "write_arrays": (
        ValueError,
        lambda path: artifacts.write_arrays(path, b"PTXX", [np.zeros(2), np.array(["x"])]),
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


# writes one row, then kills its own process inside the row generator
_KILLED_WRITER = """
import os, signal, sys
import pairtraj
from pairtraj import artifacts

def rows():
    yield "1,2\\n"
    os.kill(os.getpid(), signal.SIGKILL)

artifacts.write_rows(sys.argv[1], ("a", "b"), rows())
"""


def test_next_write_sweeps_a_killed_writers_partial_file(tmp_path):
    src = os.path.dirname(os.path.dirname(pairtraj.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _KILLED_WRITER, str(tmp_path / "killed.csv")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
    )
    assert done.returncode == -signal.SIGKILL, done.stderr
    [partial] = os.listdir(tmp_path)
    assert re.fullmatch(r"killed\.csv\.[0-9]+\.tmp", partial)
    # a live writer's partial file, one of a pid past the C range, and names
    # that are no partial file
    kept = [f"x.{os.getppid()}.tmp", f"w.{10**30}.tmp", "notes.tmp", "y.12a.tmp", "z.1.tmp.csv"]
    for name in kept:
        (tmp_path / name).write_bytes(b"")
    artifacts.write_rows(tmp_path / "next.csv", ("a", "b"), ["3,4\n"])
    assert sorted(os.listdir(tmp_path)) == sorted(["next.csv", *kept])


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_next_write_sweeps_a_zombie_writers_partial_file(tmp_path):
    # a killed run orphaned to an init that reaps late lingers as a zombie,
    # which os.kill(pid, 0) still finds
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # exited, not reaped
        (tmp_path / f"killed.csv.{pid}.tmp").write_bytes(b"a,b\n1,2\n")
        artifacts.write_rows(tmp_path / "next.csv", ("a", "b"), ["3,4\n"])
        assert os.listdir(tmp_path) == ["next.csv"]
    finally:
        os.waitpid(pid, 0)


def test_unwritable_path_is_data_error(tmp_path):
    path = tmp_path / "absent" / "a.json"
    with pytest.raises(DataError, match="cannot write " + re.escape(str(path))):
        artifacts.write_json(path, {"a": 1})
    assert not (tmp_path / "absent").exists()

