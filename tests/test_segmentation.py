"""Change-point detection: cubic fits, candidate/prune passes, tolerance selection."""

import numpy as np
import pytest

from pairtraj import segmentation, synthetic
from pairtraj.artifacts import read_json, read_rows, write_rows
from pairtraj.errors import InvalidInputError
from pairtraj.segmentation import (
    SEGMENT_HEADER,
    ChangePointSet,
    Encounter,
    _criterion,
    _merge_short_spans,
    combined_candidates,
    default_tolerances,
    prune_change_points,
    segment_rows,
    segment_with_knots,
    select_tolerance,
    write_knots_json,
)
from pairtraj.synthetic import knotted_interaction, make_encounter_dataset
from pairtraj.trajectory import Interaction, Trajectory, to_table

from oracles import normal_equation_cubic, reference_segment_with_knots


def cubic_series(t, coef):
    return np.vander(t, 4, increasing=True) @ coef


def cubic_encounter(T=21, enc_id="c"):
    t = np.arange(T, dtype=float)
    a = np.column_stack(
        [cubic_series(t, [0.5, -1.0, 0.2, 0.01]), cubic_series(t, [2.0, 0.3, -0.05, 0.002])]
    )
    b = np.column_stack(
        [cubic_series(t, [-1.0, 0.8, 0.0, -0.004]), cubic_series(t, [0.0, -0.2, 0.1, 0.0])]
    )
    return Encounter(enc_id, Interaction(Trajectory(a, t), Trajectory(b, t)))


def one_kink_encounter(T=81, kink=40, slope=1.5, enc_id="k", noise=0.0, seed=0):
    """Piecewise-linear break at `kink` in every coordinate series."""
    t = np.arange(T, dtype=float)
    bend = np.where(t <= kink, t, kink + slope * (t - kink))
    a = np.column_stack([t, bend])
    b = np.column_stack([bend, -0.5 * t])
    if noise:
        rng = np.random.default_rng(seed)
        a = a + rng.normal(0.0, noise, a.shape)
        b = b + rng.normal(0.0, noise, b.shape)
    return Encounter(enc_id, Interaction(Trajectory(a, t), Trajectory(b, t)))


def merged_kink_sse(enc, lo, hi):
    """Oracle: total SSE of one cubic per coordinate series over [lo, hi]."""
    t = enc.interaction.grid
    series = enc.series()
    total = 0.0
    for s in range(4):
        shifted = t[lo : hi + 1] - t[lo]
        total += normal_equation_cubic(shifted, series[lo : hi + 1, s])[1]
    return total


class TestEncounter:
    def test_series_columns(self):
        enc = cubic_encounter()
        series = enc.series()
        assert series.shape == (21, 4)
        np.testing.assert_array_equal(series[:, 0], enc.interaction.first.samples[:, 0])
        np.testing.assert_array_equal(series[:, 3], enc.interaction.second.samples[:, 1])

    def test_rejects_short_recordings(self):
        t = np.arange(4, dtype=float)
        pts = np.column_stack([t, t])
        inter = Interaction(Trajectory(pts, t), Trajectory(pts + 1.0, t))
        with pytest.raises(InvalidInputError):
            Encounter("x", inter)

    def test_rejects_empty_id(self):
        enc = cubic_encounter()
        with pytest.raises(InvalidInputError):
            Encounter("", enc.interaction)


class TestChangePointSet:
    def test_orders_and_counts(self):
        cps = ChangePointSet((3, 10, 40), tolerance=0.5)
        assert len(cps) == 3
        assert cps.points == (3, 10, 40)
        assert cps.tolerance == 0.5

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            ChangePointSet((10, 10))

    def test_rejects_fractional_index(self):
        with pytest.raises(InvalidInputError):
            ChangePointSet((2.5,))

    def test_rejects_boundary_index(self):
        with pytest.raises(InvalidInputError):
            ChangePointSet((0, 7))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(InvalidInputError):
            ChangePointSet((5,), tolerance=-1.0)
        with pytest.raises(InvalidInputError):
            ChangePointSet((5,), tolerance=float("nan"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), None, "7"])
    def test_rejects_non_index_values(self, bad):
        with pytest.raises(InvalidInputError):
            ChangePointSet((bad,))


def cubic_lstsq(t, y):
    """The coefficients and SSE of one series' cubic through the span fits' solve."""
    design = segmentation._cubic_design(t)
    coef = segmentation._cubic_lstsq(design, y[:, None])[0][:, 0]
    resid = y - design @ coef
    return coef, float(resid @ resid)


class TestFitCubic:
    """The least-squares cubic of one series, solved as every span fit is."""

    def test_recovers_exact_coefficients(self):
        t = np.linspace(-1.0, 2.0, 9)
        y = 2.0 - t + 3.0 * t**3
        coef, sse = cubic_lstsq(t, y)
        np.testing.assert_allclose(coef, [2.0, -1.0, 0.0, 3.0], atol=1e-9)
        assert sse <= 1e-18

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = np.sort(rng.uniform(0.0, 4.0, 12))
            y = rng.normal(size=12)
            coef, sse = cubic_lstsq(t, y)
            ref_coef, ref_sse = normal_equation_cubic(t, y)
            np.testing.assert_allclose(coef, ref_coef, rtol=1e-7, atol=1e-9)
            assert sse == pytest.approx(ref_sse, rel=1e-8, abs=1e-12)

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(6)
        t = np.sort(rng.uniform(0.0, 2.0, 15))
        y = rng.normal(size=15)
        coef, _ = cubic_lstsq(t, y)
        design = np.vander(t, 4, increasing=True)
        resid = y - design @ coef
        assert np.abs(design.T @ resid).max() <= 1e-8


def beside_a_straight_line(x, y):
    """An encounter of the curve (x, y) on t = 0, 1, ... and a vehicle driving
    straight, whose two series no cubic split improves."""
    t = np.arange(len(x), dtype=float)
    line = Trajectory(np.column_stack([t, 0.5 * t]), t)
    return Encounter("s", Interaction(Trajectory(np.column_stack([x, y]), t), line))


class TestAddChangePoints:
    """Step 1's split search, seen through combined_candidates."""

    def test_exact_cubic_has_none(self):
        enc = cubic_encounter()
        assert combined_candidates(enc).points == ()

    def test_midpoint_kink_found_exactly(self):
        t = np.arange(21, dtype=float)
        y = np.where(t <= 10, t, 10 + 3.0 * (t - 10))
        assert combined_candidates(beside_a_straight_line(t, y)).points == (10,)

    def test_kink_in_one_series_suffices(self):
        t = np.arange(21, dtype=float)
        flat = 0.25 * t
        y = np.where(t <= 10, -t, -10 - 4.0 * (t - 10))
        assert 10 in combined_candidates(beside_a_straight_line(flat, y)).points

    def test_short_grid_has_none(self):
        t = np.arange(6, dtype=float)
        y = np.abs(t - 3.0)  # kink, but no split leaves 4 samples per side
        assert combined_candidates(beside_a_straight_line(t, y)).points == ()


class TestPrune:
    def test_infinite_tolerance_removes_all(self):
        enc = one_kink_encounter()
        cands = ChangePointSet((20, 40, 60))
        pruned = prune_change_points(enc, cands, np.inf)
        assert pruned.points == ()
        assert pruned.tolerance == np.inf

    def test_zero_tolerance_keeps_all(self):
        enc = one_kink_encounter()
        cands = ChangePointSet((20, 40, 60))
        assert prune_change_points(enc, cands, 0.0).points == (20, 40, 60)

    def test_moderate_tolerance_keeps_only_the_kink(self):
        enc = one_kink_encounter()
        # spans [0,40] and [40,80] are single lines (SSE ~ 0); any span across
        # index 40 carries the full bend error, bounded below by this oracle
        kink_sse = merged_kink_sse(enc, 20, 60)
        assert kink_sse > 1.0
        pruned = prune_change_points(enc, ChangePointSet((20, 40, 60)), kink_sse / 2)
        assert pruned.points == (40,)

    def test_sparse_span_removed_before_fitting(self):
        enc = one_kink_encounter(T=30, kink=1, slope=50.0)
        # the triple (0, 1, 3) spans 4 observations, so the kink at 1 is
        # removed even at epsilon 0, where no SSE test could remove anything
        pruned = prune_change_points(enc, ChangePointSet((1, 3)), 0.0)
        assert 1 not in pruned.points

    def test_rejects_exterior_candidates(self):
        enc = one_kink_encounter(T=21, kink=10)
        with pytest.raises(InvalidInputError):
            prune_change_points(enc, ChangePointSet((20,)), 1.0)

    def test_rejects_bad_epsilon(self):
        enc = one_kink_encounter()
        with pytest.raises(InvalidInputError):
            prune_change_points(enc, ChangePointSet((40,)), -1.0)
        with pytest.raises(InvalidInputError):
            prune_change_points(enc, ChangePointSet((40,)), float("nan"))


def criterion_oracle(enc, points):
    """Independent own-segment SSE + L + 2, residuals left-closed right-open."""
    t = enc.interaction.grid
    series = enc.series()
    bounds = [0, *points, len(t) - 1]
    total = 0.0
    for s in range(4):
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            shifted = t[lo : hi + 1] - t[lo]
            coef, _ = normal_equation_cubic(shifted, series[lo : hi + 1, s])
            resid = series[lo : hi + 1, s] - np.vander(shifted, 4, increasing=True) @ coef
            if i < len(bounds) - 2:
                resid = resid[:-1]
            total += float(resid @ resid)
    return total + len(points) + 2


class TestSelectTolerance:
    def test_matches_criterion_oracle(self):
        rng = np.random.default_rng(3)
        enc = Encounter(
            "r",
            knotted_interaction(rng, (40, 80)),
        )
        for points in [(), (40,), (40, 80), (20, 60, 100)]:
            got = _criterion(enc, ChangePointSet(points))
            want = criterion_oracle(enc, points)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_picks_the_separating_tolerance(self):
        enc = one_kink_encounter(noise=0.01)
        kink_sse = merged_kink_sse(enc, 20, 60)
        assert kink_sse > 1.0
        cands = ChangePointSet((20, 40, 60))
        # 1e-9 sits below the noise SSE so all three survive (penalty 3+2);
        # the middle value keeps just the kink (1+2); 1e9 merges across the
        # bend and pays its full SSE
        grid = [1e-9, kink_sse / 2, 1e9]
        assert select_tolerance(enc, grid, cands) == kink_sse / 2

    def test_ties_resolve_to_smallest(self):
        enc = one_kink_encounter()
        kink_sse = merged_kink_sse(enc, 20, 60)
        cands = ChangePointSet((20, 40, 60))
        grid = [kink_sse / 2, kink_sse / 3]
        assert select_tolerance(enc, grid, cands) == kink_sse / 3

    def test_default_grid_retains_exactly_the_planted_kink(self):
        rng = np.random.default_rng(7)
        enc = Encounter("p", knotted_interaction(rng, (60,)))
        eps = select_tolerance(enc, default_tolerances(enc))
        pruned = prune_change_points(enc, combined_candidates(enc), eps)
        assert len(pruned) == 1
        assert abs(pruned.points[0] - 60) <= 2

    def test_default_grid_spans_six_decades(self):
        enc = one_kink_encounter()
        grid = default_tolerances(enc)
        assert grid.shape == (10,)
        assert grid[-1] / grid[0] == pytest.approx(1e6, rel=1e-9)

    def test_rejects_empty_or_nonpositive(self):
        enc = one_kink_encounter()
        with pytest.raises(InvalidInputError):
            select_tolerance(enc, [])
        with pytest.raises(InvalidInputError):
            select_tolerance(enc, [1.0, 0.0])


class TestMergeShortSpans:
    def test_short_interior_merges_left(self):
        assert _merge_short_spans([0, 50, 52, 120]) == [(0, 52), (52, 120)]

    def test_short_first_merges_right(self):
        assert _merge_short_spans([0, 2, 50, 120]) == [(0, 50), (50, 120)]

    def test_no_merge_needed(self):
        assert _merge_short_spans([0, 40, 80, 120]) == [(0, 40), (40, 80), (80, 120)]


class TestSegment:
    def test_exact_cubic_is_one_segment(self):
        enc = cubic_encounter()
        segments, knots = segment_with_knots(enc)
        assert len(segments) == 1
        assert knots.points == ()
        assert knots.tolerance is not None
        assert len(segments[0]) == 101
        np.testing.assert_allclose(segments[0].grid, np.linspace(0.0, 1.0, 101))

    def test_noiseless_kink_cut_exactly(self):
        enc = one_kink_encounter(T=21, kink=10, slope=3.0)
        segments, knots = segment_with_knots(enc)
        assert knots.points == (10,)
        assert len(segments) == 2

    def test_planted_two_kink_recovery(self):
        rng = np.random.default_rng(12)
        enc = Encounter("e", knotted_interaction(rng, (40, 80)))
        segments, knots = segment_with_knots(enc)
        assert len(knots) == 2
        assert abs(knots.points[0] - 40) <= 2
        assert abs(knots.points[1] - 80) <= 2
        assert all(len(s) == 101 for s in segments)

    def test_num_samples_controls_grid(self):
        enc = cubic_encounter()
        (seg,), _ = segment_with_knots(enc, num_samples=33)
        assert len(seg) == 33

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        inter = knotted_interaction(rng, (60,))
        a, ka = segment_with_knots(Encounter("a", inter))
        b, kb = segment_with_knots(Encounter("a", inter))
        assert ka.points == kb.points and ka.tolerance == kb.tolerance
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.first.samples, sb.first.samples)
            assert np.array_equal(sa.second.samples, sb.second.samples)


def noisy_encounters(seed, count, knots, T):
    return make_encounter_dataset(seed, count, knots, T)[0]


def noise_free_encounters(seed, count, knots, T):
    """Encounters whose four series are exact piecewise cubics cut at `knots`."""
    rng = np.random.default_rng(seed)
    t = np.arange(T, dtype=float)
    return [
        (
            f"pc-{i}",
            Interaction(
                Trajectory(synthetic._piecewise_cubic(rng, T, knots, 2.0), t),
                Trajectory(synthetic._piecewise_cubic(rng, T, knots, 2.0), t),
            ),
        )
        for i in range(count)
    ]


def shifted(inter, offset):
    grid = inter.grid
    return Interaction(
        Trajectory(inter.first.samples + offset, grid),
        Trajectory(inter.second.samples + offset, grid),
    )


class TestSpanFitMemo:
    """Each span is fitted once per encounter, with the refitting code's bits."""

    @pytest.mark.parametrize(
        "make, seed, count, knots, T, grid",
        [
            pytest.param(noisy_encounters, 0, 4, (40, 80), 121, None, id="0-4-knots0-121-None"),
            pytest.param(
                noisy_encounters, 5, 2, (120, 260, 380), 501, None, id="5-2-knots1-501-None"
            ),
            pytest.param(
                noisy_encounters, 3, 3, (40, 80), 121, [1e-3, 0.5, 0.02, 10.0, 3.0, 1e-6],
                id="3-3-knots2-121-grid2",
            ),
            # exact fits: the split test's decision rests on its slack
            pytest.param(noise_free_encounters, 8, 4, (30, 70, 95), 121, None, id="noise-free"),
        ],
    )
    def test_matches_frozen_reference_bytes(self, make, seed, count, knots, T, grid):
        for enc_id, inter in make(seed, count, knots, T):
            segments, cuts = segment_with_knots(Encounter(enc_id, inter), grid, 57)
            ref_segments, ref_points, ref_eps = reference_segment_with_knots(inter, grid, 57)
            assert cuts.points == ref_points
            assert cuts.tolerance == ref_eps
            assert len(segments) == len(ref_segments)
            for seg, ref in zip(segments, ref_segments):
                assert seg.grid.tobytes() == ref.grid.tobytes()
                assert seg.first.samples.tobytes() == ref.first.samples.tobytes()
                assert seg.second.samples.tobytes() == ref.second.samples.tobytes()

    def test_each_span_fitted_once(self, monkeypatch):
        fitted: dict = {}
        original = segmentation._cubic_lstsq

        def counting(t, values):
            # a span's block is a view into the series: its address and
            # length identify (lo, hi); every solve takes all four series
            assert values.shape[1:] == (4,)
            key = (values.__array_interface__["data"][0], len(values))
            fitted[key] = fitted.get(key, 0) + 1
            return original(t, values)

        monkeypatch.setattr(segmentation, "_cubic_lstsq", counting)
        encounters, _ = make_encounter_dataset(2, 1, (40, 80), 121)
        inter = encounters[0][1]
        enc = Encounter("a", inter)
        segment_with_knots(enc)
        assert fitted and max(fitted.values()) == 1
        assert len(enc._fits._sse) == len(fitted)

        again = Encounter("a", inter)
        assert again._fits is None
        calls = sum(fitted.values())
        fitted.clear()
        segment_with_knots(again)
        assert sum(fitted.values()) == calls


class TestSolveSeam:
    """Every span fit calls LAPACK as np.linalg.lstsq(rcond=None) would."""

    @pytest.mark.parametrize("columns", [1, 4])
    @pytest.mark.parametrize("offset", [0.0, 1e5, 4e6])
    def test_bits_match_numpy_lstsq(self, offset, columns):
        # raw, unshifted t: far from zero the design loses rank, and the
        # rank must match too
        rng = np.random.default_rng(int(offset) + columns)
        for m in range(4, 601):
            t = offset + np.cumsum(rng.uniform(0.5, 1.5, m))
            values = rng.normal(size=(m, columns))
            design = segmentation._cubic_design(t)
            reference = np.vander(t, 4, increasing=True)
            assert design.tobytes() == reference.tobytes()
            coef, rank = segmentation._cubic_lstsq(design, values)
            ref_coef, _, ref_rank, _ = np.linalg.lstsq(reference, values, rcond=None)
            assert coef.tobytes() == ref_coef.tobytes(), m
            assert rank == ref_rank, m

    def test_fallback_gives_the_same_bytes(self, monkeypatch):
        encounters, _ = make_encounter_dataset(1, 3, (40, 80), 121)
        direct = [segment_with_knots(Encounter(i, inter)) for i, inter in encounters]
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(segmentation, "_gelsd", None)
        monkeypatch.setattr(np.linalg, "lstsq", counting)
        fallback = [segment_with_knots(Encounter(i, inter)) for i, inter in encounters]
        assert calls
        for (segments, cuts), (ref_segments, ref_cuts) in zip(fallback, direct):
            assert (cuts.points, cuts.tolerance) == (ref_cuts.points, ref_cuts.tolerance)
            assert len(segments) == len(ref_segments)
            for seg, ref in zip(segments, ref_segments):
                assert to_table(seg).tobytes() == to_table(ref).tobytes()


@pytest.mark.parametrize("offset", [1e5, 4e6])
def test_change_points_do_not_depend_on_where_the_data_sits(offset):
    # the split slack scales with the centred, not the raw, sum of squares;
    # ε is the same grid entry, its scale off by the shifted data's rounding
    encounters, _ = make_encounter_dataset(0, 40, (40, 80), 121)
    for enc_id, inter in encounters:
        here, there = Encounter(enc_id, inter), Encounter(enc_id, shifted(inter, offset))
        assert combined_candidates(there).points == combined_candidates(here).points
        _, cuts = segment_with_knots(here)
        _, moved = segment_with_knots(there)
        assert moved.points == cuts.points
        assert moved.tolerance == pytest.approx(cuts.tolerance, rel=1e-9)


class TestArtifacts:
    def test_segments_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        items = [
            ("enc-a", segment_with_knots(Encounter("enc-a", knotted_interaction(rng, (60,))))[0]),
            ("enc-b", segment_with_knots(Encounter("enc-b", knotted_interaction(rng, (40, 80))))[0]),
        ]
        path = tmp_path / "segments.csv"
        blocks = [block for enc_id, segs in items for block in segment_rows(enc_id, segs)]
        write_rows(path, SEGMENT_HEADER, blocks, {"seed": 9})
        # one block of lines per segment
        assert len(blocks) == sum(len(segments) for _, segments in items)
        assert path.read_text().split("\n", 2)[2] == "".join(blocks)
        meta, rows = read_rows(path, SEGMENT_HEADER)
        assert meta == {"seed": 9}
        keys = [(i, str(index)) for i, segments in items for index in range(len(segments))]
        assert list(dict.fromkeys(tuple(fields[:2]) for _, fields in rows)) == keys
        # 17 significant digits give back every sample's bits
        table = np.vstack([to_table(seg) for _, segments in items for seg in segments])
        back = np.array([[float(v) for v in fields[2:]] for _, fields in rows])
        assert back.tobytes() == table.tobytes()

    def test_knots_json_round_trip(self, tmp_path):
        entries = [
            ("enc-a", ChangePointSet((40, 80), tolerance=0.5)),
            ("enc-b", ChangePointSet((), tolerance=2.0)),
        ]
        path = tmp_path / "knots.json"
        write_knots_json(path, entries, meta={"seed": 1})
        assert read_json(path) == {
            "encounters": {
                "enc-a": {"knots": [40, 80], "epsilon": 0.5},
                "enc-b": {"knots": [], "epsilon": 2.0},
            },
            "meta": {"seed": 1},
        }
