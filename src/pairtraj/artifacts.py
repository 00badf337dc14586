"""Every file is opened here: text as UTF-8 whatever the locale, and each
writer fills `<path>.<pid>.tmp` and moves it into place once complete, so a
failed write leaves an earlier file intact.  The three layouts:

- JSON: one object, keys sorted, indented by two, metadata under "meta".
- Rows: an optional `# <json>` metadata line, a header line, then
  comma-separated rows.  A field holding `,` or `"`, or starting with `#`
  (which would start a comment line) or with whitespace (which a reader that
  strips its lines would drop), is written in double quotes with its quotes
  doubled, as in RFC 4180; `split_fields` reads a line back.
- Arrays: a 4-byte magic, one little-endian int64 element count per array,
  then each array's little-endian bytes, row-major.

The schema readers elsewhere are thin layers over these pairs; `malformed`
turns their parse and validation errors into a DataError naming the path and,
for a row, the line.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from itertools import accumulate

import numpy as np

from .errors import DataError


def fmt(value: float) -> str:
    # 17 significant digits round-trip every double
    return format(float(value), ".17g")


def fmt_row(values: list[float]) -> str:
    """`fmt` of each value, comma-joined, in one format call for the row;
    `"%.17g" % v` writes the same text as `fmt(v)` for every float v."""
    return ",".join(["%.17g"] * len(values)) % tuple(values)


def split_fields(line: str) -> list[str]:
    """The comma-separated fields of one line, double-quoted ones unquoted."""
    # csv.reader splits a line without quotes exactly as str.split does
    return next(csv.reader([line])) if '"' in line else line.split(",")


def quoted(field: str) -> str:
    """The field as the rows layout writes it, in double quotes where needed."""
    if "," in field or '"' in field or field.startswith("#") or field[:1].isspace():
        return '"' + field.replace('"', '""') + '"'
    return field


@contextmanager
def malformed(where):
    """Re-raise a parse or validation error in the block as DataError at `where`,
    a path or `path:line`.  KeyError, IndexError, TypeError and ValueError are
    converted, the type constructors' InvalidInputError included."""
    try:
        yield
    except DataError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"{where}: malformed: {exc}") from exc


def opened(path, mode: str = "r", **kw):
    """`open(path, mode, **kw)`, UTF-8 in text mode; an OSError becomes DataError."""
    if "b" not in mode:
        kw.setdefault("encoding", "utf-8")
    try:
        return open(path, mode, **kw)
    except OSError as exc:
        verb = "read" if "r" in mode else "write"
        raise DataError(f"cannot {verb} {path}: {exc}") from exc


@contextmanager
def _replacing(path, mode: str, **kw):
    """A handle on a temporary name beside `path`, moved onto it if the block completes."""
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        with opened(partial, mode, **kw) as handle:
            yield handle
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _read(path, mode: str = "r"):
    with opened(path, mode) as handle:
        return handle.read()


def file_sha256(path):
    """A sha256 hash object fed the file's bytes; DataError if it cannot be
    read.  Reading in chunks keeps a large input out of memory."""
    digest = hashlib.sha256()
    with opened(path, "rb") as handle:
        # chunks under glibc's 128 KiB mmap threshold: freeing a larger
        # mapped block raises the threshold and leaves the step's later
        # arrays on the heap, about 2 MB more peak RSS
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest


def write_json(path, payload: dict, meta: dict | None = None) -> None:
    if meta is not None:
        payload = {**payload, "meta": meta}
    with _replacing(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_json(path) -> dict:
    """The object in a JSON artifact, its "meta" included."""
    with malformed(path):
        payload = json.loads(_read(path))
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object")
    return payload


def write_rows(path, header, rows, meta: dict | None = None) -> None:
    """Write the rows layout; `header` is a sequence of text fields, and so is
    each of `rows`, or else a `str` holding the whole line, already quoted
    (`quoted`) and joined, such as a text field then `fmt_row` of numbers."""
    with _replacing(path, "w", newline="") as handle:
        if meta is not None:
            handle.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        handle.write(",".join(header) + "\n")
        for line in rows:
            if not isinstance(line, str):
                line = ",".join(map(quoted, line))
            handle.write(line + "\n")


def read_rows(path, header) -> tuple[dict | None, list[tuple[int, list[str]]]]:
    """The metadata (None without a `#` line) and the rows after the header.

    Each row is its line number in the file and its fields, as `split_fields`
    reads them; blank lines are skipped.  With `header` a tuple of names, the
    header line must hold exactly those and every row as many fields; with
    None the header line is returned as the first row.
    """
    with malformed(path):
        numbered = enumerate(_read(path).split("\n"), start=1)
    lines = [(no, line) for no, line in numbered if line.strip()]
    meta = None
    if lines and lines[0][1].startswith("#"):
        no, line = lines.pop(0)
        with malformed(f"{path}:{no}"):
            meta = json.loads(line[1:])
        if not isinstance(meta, dict):
            raise DataError(f"{path}:{no}: metadata is not a JSON object")
    rows = [(no, split_fields(line)) for no, line in lines]
    if not rows:
        raise DataError(f"{path}: no header line")
    if header is None:
        return meta, rows
    if tuple(rows[0][1]) != tuple(header):
        raise DataError(f"{path}:{rows[0][0]}: expected header {','.join(header)}")
    for no, fields in rows[1:]:
        if len(fields) != len(header):
            raise DataError(f"{path}:{no}: expected {len(header)} fields, got {len(fields)}")
    return meta, rows[1:]


def write_arrays(path, magic: bytes, *arrays) -> None:
    """Write the arrays layout.  Each of `arrays` is an ndarray or a list of
    them, written back to back as one array of the first one's dtype, so a
    caller need not concatenate what it already holds."""
    arrays = [chunks if isinstance(chunks, list) else [chunks] for chunks in arrays]
    counts = [sum(chunk.size for chunk in chunks) for chunks in arrays]
    with _replacing(path, "wb") as handle:
        handle.writelines((magic, np.array(counts, dtype="<i8").tobytes()))
        for chunks in arrays:
            for chunk in chunks:
                handle.write(np.ascontiguousarray(chunk, chunks[0].dtype.newbyteorder("<")).data)


def read_arrays(path, magic: bytes, *dtypes) -> list[np.ndarray]:
    """The arrays `write_arrays` wrote, one flat read-only view per dtype
    given; DataError unless the file starts with `magic` and its counts are
    nonnegative and fill it exactly."""
    blob = _read(path, "rb")
    dtypes = [np.dtype(dtype).newbyteorder("<") for dtype in dtypes]
    head = len(magic) + 8 * len(dtypes)
    if blob[: len(magic)] != magic or len(blob) < head:
        raise DataError(f"{path}: does not start with {magic!r} and {len(dtypes)} array counts")
    counts = np.frombuffer(blob, "<i8", len(dtypes), len(magic)).tolist()
    ends = list(accumulate((n * t.itemsize for n, t in zip(counts, dtypes)), initial=head))
    if min(counts, default=0) < 0 or ends[-1] != len(blob):
        raise DataError(f"{path}: array counts {counts} do not fill its {len(blob)} bytes")
    return [np.frombuffer(blob, t, n, at) for t, n, at in zip(dtypes, counts, ends)]
