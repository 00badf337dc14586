"""Two-step spline segmentation of raw encounters into basic interactions.

Step 1 proposes change points per coordinate series: a binary search tests the
midpoint of a shrinking valid interval, accepts it when fitting separate
cubics to the two halves beats the single fit by more than a scale-aware
slack, rules out the smaller-error half otherwise, and recurses into accepted
segments.  Step 2 unions the candidates over all four coordinate series and
thins them with one forward pass: the middle point of each consecutive triple
is dropped whenever one cubic per series spans the outer pair with total SSE
below the tolerance, or the span has at most 4 observations.  The tolerance
is picked from a candidate grid by minimizing

    sum over series and segments of own-segment squared residuals + L + 2,

with L the number of surviving change points (penalty applied once, not per
series) and each observation counted in the unique segment containing it
(left-closed, right-open; the final point belongs to the last segment).

Each span is fitted once per encounter: one least-squares solve covers all
four series, and the encounter keeps a private memo of every (lo, hi) fit,
shared by the candidate search, the pruning pass at every tolerance of the
grid and the criterion, and dropped with the encounter.  The solve calls
LAPACK's gelsd through numpy's own gufunc, with the rcond and error state
that np.linalg.lstsq passes, so the bits are lstsq's without its per-call
wrapper; where numpy lacks that private gufunc, np.linalg.lstsq itself runs.
The split slack is scaled by the centred sum of squares, so change points do
not depend on where the data sits.  Encounters share nothing, so `pairtraj
segment` maps them over `workers.fork_map`, which forks up to one worker per
CPU once it has two jobs; the workers also format the segments.csv lines,
and the output does not depend on the CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import quoted, table_lines, write_json
from .errors import InvalidInputError, NumericalError
from .trajectory import _store, Interaction, from_table, resample, to_table

_MIN_SEGMENT = 5  # raw samples; enough for one cubic fit plus a residual
_MIN_SIDE = 4  # samples on each side of a split, shared endpoint included
_SPLIT_SLACK = 1e-12  # of the segment's sum of squares; guards exact fits


@dataclass(frozen=True, eq=False)
class Encounter:
    """A raw recording: an id plus an interaction on the original time grid."""

    id: str
    interaction: Interaction
    _fits: _SpanFits | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise InvalidInputError("encounter id must be a nonempty string")
        if len(self.interaction) < _MIN_SEGMENT:
            raise InvalidInputError(
                f"encounter needs at least {_MIN_SEGMENT} samples, "
                f"got {len(self.interaction)}"
            )

    def series(self) -> np.ndarray:
        """(T, 4) columns x1, y1, x2, y2, C-contiguous for the span fits' slices."""
        return to_table(self.interaction)[:, 1:].copy()

    def _span_fits(self) -> _SpanFits:
        """This encounter's fit memo over series x1, y1, x2, y2, built on first use."""
        if self._fits is None:
            _store(self, _fits=_SpanFits(self.interaction.grid, self.series()))
        return self._fits


@dataclass(frozen=True, eq=False)
class ChangePointSet:
    """Interior grid indices where an encounter may be cut, plus the ε used."""

    points: tuple[int, ...]
    tolerance: float | None = None

    def __post_init__(self) -> None:
        pts = []
        for p in self.points:
            try:
                index = int(p)
            except (TypeError, ValueError, OverflowError):  # None, NaN, ±inf, ...
                index = None
            if index is None or index != p:
                raise InvalidInputError(f"change point {p!r} is not an index")
            pts.append(index)
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise InvalidInputError("change points must be strictly increasing")
        if pts and pts[0] < 1:
            raise InvalidInputError("change points must be interior indices")
        tol = None if self.tolerance is None else float(self.tolerance)
        if tol is not None and (np.isnan(tol) or tol < 0):
            raise InvalidInputError("tolerance must be nonnegative")
        _store(self, points=tuple(pts), tolerance=tol)

    def __len__(self) -> int:
        return len(self.points)


try:  # the LAPACK gelsd gufunc behind np.linalg.lstsq, without its wrapper
    from numpy.linalg._umath_linalg import lstsq as _gelsd
except ImportError:  # a numpy laid out otherwise: np.linalg.lstsq itself
    _gelsd = None

_EPS = float(np.finfo(np.float64).eps)


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _cubic_lstsq(design: np.ndarray, values: np.ndarray):
    """Least-squares coefficients of the (m, 4) design per column of the 2-D
    values, and the design's rank: the bits of np.linalg.lstsq(rcond=None)."""
    try:
        if _gelsd is None:
            coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
        else:
            # the rcond and error state np.linalg.lstsq passes
            with np.errstate(call=_raise_lstsq_error, invalid="call",
                             over="ignore", divide="ignore", under="ignore"):
                coef, _, rank, _ = _gelsd(
                    design, values, _EPS * max(len(design), 4), signature="ddd->ddid"
                )
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"cubic least squares over {len(design)} samples: {exc}") from exc
    return coef, rank


def _cubic_design(t: np.ndarray) -> np.ndarray:
    """Columns 1, t, t*t, (t*t)*t: the bits of np.vander(t, 4, increasing=True)."""
    tt = t * t
    design = np.empty((len(t), 4))
    design[:, 0] = 1.0
    design[:, 1] = t
    design[:, 2] = tt
    np.multiply(tt, t, out=design[:, 3])
    return design


class _SpanFits:
    """One joint cubic fit of every series column per (lo, hi) span, memoised.

    Each entry holds the per-series SSE of the inclusive span [lo, hi], the
    per-series SSE without its last sample (the boundary sample that the
    criterion counts in the next segment) and the total of the first over the
    series in order, from one solve on t shifted to start at zero; spans with
    < 4 points are interpolated exactly.
    """

    def __init__(self, t: np.ndarray, series: np.ndarray) -> None:
        self.t = t
        self.series = series
        self._sse: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, float]] = {}

    def sse(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, float]:
        hit = self._sse.get((lo, hi))
        if hit is None:
            design = _cubic_design(self.t[lo : hi + 1] - self.t[lo])
            values = self.series[lo : hi + 1]
            coef, _ = _cubic_lstsq(design, values)
            resid = values - design @ coef
            sq = resid * resid
            head = sq[:-1].sum(axis=0)
            full = head + sq[-1]
            total = 0.0
            for value in full.tolist():  # one addition per series, in order
                total += value
            hit = self._sse[lo, hi] = (full, head, total)
        return hit


def _find_split(fits: _SpanFits, s: int, lo: int, hi: int) -> int | None:
    """Binary search of Appendix-style step 1 on one segment of one series."""
    if hi - lo + 1 < 2 * _MIN_SIDE - 1:  # both sides need >= 4 samples
        return None
    base = fits.sse(lo, hi)[0][s]
    ys = fits.series[lo : hi + 1, s]
    # centred on the mean (ys.mean()'s bits, without its wrapper), so the
    # slack does not grow with the data's offset
    ys = ys - ys.sum() / ys.size
    slack = _SPLIT_SLACK * float(ys @ ys)
    a, b = lo, hi
    last = -1
    while True:
        c = (a + b) // 2
        if c == last or c - lo < _MIN_SIDE - 1 or hi - c < _MIN_SIDE - 1:
            return None  # no further candidates in the valid interval
        last = c
        left = fits.sse(lo, c)[0][s]
        right = fits.sse(c, hi)[0][s]
        if left + right < base - slack:
            return c
        # rule out the smaller-error half; keep searching the other
        if left >= right:
            b = c
        else:
            a = c


def _series_change_points(fits: _SpanFits, s: int) -> set[int]:
    out: set[int] = set()

    def visit(lo: int, hi: int) -> None:
        c = _find_split(fits, s, lo, hi)
        if c is not None:
            out.add(c)
            visit(lo, c)
            visit(c, hi)

    visit(0, len(fits.t) - 1)
    return out


def combined_candidates(encounter: Encounter) -> ChangePointSet:
    """Union of candidates over all four coordinate series of both vehicles."""
    fits = encounter._span_fits()
    pts = set().union(*(_series_change_points(fits, s) for s in range(4)))
    return ChangePointSet(tuple(sorted(pts)))


def prune_change_points(
    encounter: Encounter, candidates: ChangePointSet, epsilon: float
) -> ChangePointSet:
    """One forward pass dropping removable candidates.

    Walks consecutive triples (c_l, c_l', c_l'') over start + candidates + end;
    the middle point is removed when the outer span has at most 4 observations
    or its four per-series cubic fits have total SSE strictly below epsilon.
    """
    epsilon = float(epsilon)
    if np.isnan(epsilon) or epsilon < 0:
        raise InvalidInputError("epsilon must be nonnegative")
    T = len(encounter.interaction)
    if any(not 0 < p < T - 1 for p in candidates.points):
        raise InvalidInputError("candidates must be interior to the grid")
    fits = encounter._span_fits()
    bounds = [0, *candidates.points, T - 1]
    i = 0
    while i + 2 < len(bounds):
        lo, hi = bounds[i], bounds[i + 2]
        if hi - lo + 1 <= 4:
            del bounds[i + 1]
            continue
        if fits.sse(lo, hi)[2] < epsilon:
            del bounds[i + 1]
        else:
            i += 1
    return ChangePointSet(tuple(bounds[1:-1]), tolerance=epsilon)


def _criterion(encounter: Encounter, knots: ChangePointSet) -> float:
    fits = encounter._span_fits()
    bounds = [0, *knots.points, len(encounter.interaction) - 1]
    fitted = [fits.sse(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # the boundary sample belongs to the next segment; the final span keeps it
    own = np.array([head for _, head, _ in fitted[:-1]] + [fitted[-1][0]])
    # series-major, one addition at a time
    return float(sum(own.T.flat)) + len(knots) + 2


def default_tolerances(encounter: Encounter) -> np.ndarray:
    """Ten log-spaced ε values spanning [1e-4, 1e2] times the mean series variance."""
    scale = float(encounter.series().var(axis=0).mean())
    if scale <= 0:
        scale = 1.0
    return scale * np.logspace(-4.0, 2.0, 10)


def select_tolerance(
    encounter: Encounter,
    candidate_epsilons,
    candidates: ChangePointSet | None = None,
) -> float:
    """The ε whose pruned fit minimizes the penalized criterion (ties: smallest)."""
    grid = sorted(float(e) for e in candidate_epsilons)
    if not grid:
        raise InvalidInputError("need at least one candidate tolerance")
    if any(np.isnan(e) or e <= 0 for e in grid):
        raise InvalidInputError("candidate tolerances must be positive")
    if candidates is None:
        candidates = combined_candidates(encounter)
    best_eps, best_crit = None, None
    for eps in grid:
        crit = _criterion(encounter, prune_change_points(encounter, candidates, eps))
        if best_crit is None or crit < best_crit:
            best_eps, best_crit = eps, crit
    return best_eps


def _merge_short_spans(bounds: list[int]) -> list[tuple[int, int]]:
    spans = list(zip(bounds[:-1], bounds[1:]))
    merged: list[tuple[int, int]] = []
    for lo, hi in spans:
        if merged and hi - lo + 1 < _MIN_SEGMENT:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    # only the leading span can still be short; it merges rightward
    if len(merged) >= 2 and merged[0][1] - merged[0][0] + 1 < _MIN_SEGMENT:
        merged[1] = (merged[0][0], merged[1][1])
        merged.pop(0)
    return merged


def segment_with_knots(
    encounter: Encounter,
    candidate_epsilons=None,
    num_samples: int = 101,
) -> tuple[list[Interaction], ChangePointSet]:
    """Full pipeline returning the resampled segments and the surviving cuts."""
    if candidate_epsilons is None:
        candidate_epsilons = default_tolerances(encounter)
    candidates = combined_candidates(encounter)
    eps = select_tolerance(encounter, candidate_epsilons, candidates)
    pruned = prune_change_points(encounter, candidates, eps)
    T = len(encounter.interaction)
    spans = _merge_short_spans([0, *pruned.points, T - 1])
    table = to_table(encounter.interaction)
    segments = [resample(from_table(table[lo : hi + 1]), num_samples) for lo, hi in spans]
    knots = ChangePointSet(tuple(hi for _, hi in spans[:-1]), tolerance=eps)
    return segments, knots


# ---------------------------------------------------------------------------
# artifacts

SEGMENT_HEADER = ("encounter_id", "segment_index", "t", "x1", "y1", "x2", "y2")


def segment_rows(enc_id: str, segments: list[Interaction]) -> list[str]:
    """The lines of one encounter's segments in segments.csv, header excluded:
    one `table_lines` block per segment."""
    return [
        table_lines(to_table(inter), f"{quoted(enc_id)},{index},")
        for index, inter in enumerate(segments)
    ]


def write_knots_json(path, entries, meta: dict | None = None) -> None:
    """entries: (encounter_id, ChangePointSet) pairs with the selected ε each."""
    payload = {
        "encounters": {
            enc_id: {"knots": list(knots.points), "epsilon": knots.tolerance}
            for enc_id, knots in entries
        }
    }
    write_json(path, payload, meta)
