"""Core types for planar trajectory pairs sampled on shared time grids.

It owns the (T, 5) table layout of an interaction, one row `t, x1, y1, x2, y2`
per sample; every module converts through `to_table` and `from_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .artifacts import (
    fmt_row, malformed, opened, quoted, read_arrays, split_fields, write_arrays, write_rows,
)
from .errors import DataError, InvalidInputError

CSV_HEADER = ("encounter_id", "t", "x1", "y1", "x2", "y2")
_MAGIC = b"PTC2"


def _store(obj, **fields) -> None:
    """Set a frozen dataclass's fields in __post_init__; its own array copies go read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A planar curve: samples (T, 2) observed on a strictly increasing grid (T,)."""

    samples: np.ndarray
    grid: np.ndarray

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=float)
        grid = np.array(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise InvalidInputError("grid must be 1-d with at least two samples")
        if samples.shape != (grid.size, 2):
            raise InvalidInputError(
                f"samples must have shape ({grid.size}, 2), got {samples.shape}"
            )
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(samples))):
            raise InvalidInputError("trajectory contains non-finite values")
        if not np.all(np.diff(grid) > 0):
            raise InvalidInputError("time grid must be strictly increasing")
        _store(self, samples=samples, grid=grid)

    def __len__(self) -> int:
        return int(self.grid.size)


@dataclass(frozen=True, eq=False)
class Interaction:
    """An ordered pair of trajectories on one shared time grid."""

    first: Trajectory
    second: Trajectory

    def __post_init__(self) -> None:
        if not np.array_equal(self.first.grid, self.second.grid):
            raise InvalidInputError("paired trajectories must share one time grid")

    @property
    def grid(self) -> np.ndarray:
        return self.first.grid

    def __len__(self) -> int:
        return len(self.first)

    def swapped(self) -> "Interaction":
        """The same encounter with the pair order exchanged."""
        return Interaction(self.second, self.first)


def to_table(inter: Interaction) -> np.ndarray:
    """The (T, 5) table of rows (t, x1, y1, x2, y2)."""
    return np.column_stack([inter.grid, inter.first.samples, inter.second.samples])


def from_table(table: np.ndarray) -> Interaction:
    """The interaction in a (T, 5) table of rows (t, x1, y1, x2, y2)."""
    grid = table[:, 0]
    return Interaction(Trajectory(table[:, 1:3], grid), Trajectory(table[:, 3:5], grid))


def resample(interaction: Interaction, num_samples: int = 101) -> Interaction:
    """Linearly interpolate both curves onto the uniform grid over [0, 1].

    The raw grid is first mapped affinely onto [0, 1].  An interaction whose
    grid already equals that target grid is returned itself: interpolating
    it would give back the same samples, as `np.interp` returns `fp[j]`
    exactly where `x == xp[j]`.
    """
    if num_samples < 2:
        raise InvalidInputError("num_samples must be at least 2")
    old = interaction.grid
    target = np.linspace(0.0, 1.0, num_samples)
    if np.array_equal(old, target):
        return interaction
    scaled = (old - old[0]) / (old[-1] - old[0])
    curves = []
    for traj in (interaction.first, interaction.second):
        pts = np.column_stack(
            [np.interp(target, scaled, traj.samples[:, d]) for d in range(2)]
        )
        curves.append(Trajectory(pts, target))
    return Interaction(curves[0], curves[1])


def interaction_to_dict(interaction: Interaction) -> dict:
    """JSON-ready encoding: inline grid plus both coordinate arrays."""
    return {
        "grid": [float(t) for t in interaction.grid],
        "first": [[float(x), float(y)] for x, y in interaction.first.samples],
        "second": [[float(x), float(y)] for x, y in interaction.second.samples],
    }


def interaction_from_dict(payload: dict) -> Interaction:
    """Inverse of interaction_to_dict; readers call it inside artifacts.malformed."""
    grid = payload["grid"]
    return Interaction(Trajectory(payload["first"], grid), Trajectory(payload["second"], grid))


def read_encounters_csv(path) -> list[tuple[str, Interaction]]:
    """Read UTF-8 `encounter_id,t,x1,y1,x2,y2` rows grouped by encounter, sorted by t.

    `#` lines (metadata) and blank lines are skipped.  Malformed rows raise
    DataError with the offending line number, and non-finite values one
    naming the encounter.
    """
    rows: dict[str, list[tuple[float, ...]]] = {}
    # iterating a newline="" handle ends lines at \n, \r and \r\n only; bytes
    # that are not UTF-8 fail as ValueError
    with opened(path, newline="") as handle, malformed(path):
        lines = enumerate(handle, start=1)
        for lineno, raw in lines:
            line = raw.strip()
            if line and not raw.startswith("#"):
                break
        else:
            raise DataError(f"{path}: empty file, expected header row")
        if tuple(f.strip() for f in split_fields(line)) != CSV_HEADER:
            raise DataError(f"{path}:{lineno}: expected header {','.join(CSV_HEADER)}")
        last_id = None
        for lineno, raw in lines:
            if raw.startswith("#"):
                continue
            line = raw.strip()
            if not line:
                continue
            fields = split_fields(line)
            if len(fields) != 6:
                raise DataError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
            enc_id = fields[0]
            try:
                row = tuple(map(float, fields[1:]))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric value") from None
            if enc_id != last_id:
                if enc_id in rows:
                    raise DataError(
                        f"{path}:{lineno}: rows for encounter {enc_id!r} are not contiguous"
                    )
                current = rows[enc_id] = []
                last_id = enc_id
            elif row[0] <= current[-1][0]:
                raise DataError(f"{path}:{lineno}: t is not strictly increasing")
            current.append(row)

    encounters = []
    for enc_id, table in rows.items():
        if len(table) < 2:
            raise DataError(f"{path}: encounter {enc_id!r} has fewer than 2 samples")
        with malformed(f"{path}: encounter {enc_id!r}"):
            encounters.append((enc_id, from_table(np.array(table))))
    return encounters


def write_encounters_csv(path, encounters, meta: dict | None = None) -> None:
    """Write encounters in the ingest format, with an optional metadata line."""

    def rows():
        for enc_id, inter in encounters:
            lead = quoted(str(enc_id)) + ","
            for row in to_table(inter).tolist():
                yield lead + fmt_row(row)

    write_rows(path, CSV_HEADER, rows(), meta)


def write_encounters_binary(path, encounters) -> None:
    """The arrays (`write_arrays`): int64 row counts then id lengths in bytes,
    the UTF-8 ids, and float64 values: every grid, then every first curve's
    (x, y) rows, then every second's, written from the curves' own arrays."""
    ids = [enc_id.encode() for enc_id, _ in encounters]
    inters = [inter for _, inter in encounters]
    values = [inter.grid for inter in inters] + [inter.first.samples for inter in inters]
    values += [inter.second.samples for inter in inters]
    sizes = np.array([*map(len, inters), *map(len, ids)], dtype=np.int64)
    write_arrays(path, _MAGIC, sizes, np.frombuffer(b"".join(ids), np.uint8), values)


def read_encounters_binary(path) -> list[tuple[str, Interaction]]:
    """Inverse of write_encounters_binary; every encounter goes through the
    constructors again, so a poisoned file fails as DataError."""
    sizes, ids, values = read_arrays(path, _MAGIC, "i8", "u1", "f8")
    with malformed(path):
        cuts, id_cuts = (list(accumulate(s, initial=0)) for s in sizes.reshape(2, -1).tolist())
        if sizes.min(initial=0) < 0 or id_cuts[-1] != ids.size or 5 * cuts[-1] != values.size:
            raise DataError(f"{path}: array sizes disagree")
        utf8 = ids.tobytes()
        ids = [utf8[a:b].decode() for a, b in zip(id_cuts, id_cuts[1:])]
        if len(set(ids)) != len(ids):
            raise DataError(f"{path}: repeated encounter id")
        grid, curves = values[: cuts[-1]], values[cuts[-1] :].reshape(2, -1, 2)
        return [
            (enc_id, Interaction(*(Trajectory(curve[a:b], grid[a:b]) for curve in curves)))
            for enc_id, a, b in zip(ids, cuts, cuts[1:])
        ]
