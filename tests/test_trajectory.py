import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_read_encounters_csv
from pairtraj.errors import DataError, InvalidInputError
from pairtraj.trajectory import (
    Interaction,
    Trajectory,
    interaction_from_dict,
    interaction_to_dict,
    read_encounters_binary,
    read_encounters_csv,
    resample,
    write_encounters_binary,
    write_encounters_csv,
)


def make_interaction(grid, first, second):
    return Interaction(Trajectory(first, grid), Trajectory(second, grid))


class TestTypes:
    def test_rejects_short_grid(self):
        with pytest.raises(InvalidInputError):
            Trajectory([[0.0, 0.0]], [0.0])

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(InvalidInputError):
            Trajectory([[0, 0], [1, 1], [2, 2]], [0.0, 0.5, 0.5])

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Trajectory([[0, 0], [np.nan, 1]], [0.0, 1.0])

    def test_rejects_mismatched_grids(self):
        a = Trajectory([[0, 0], [1, 1]], [0.0, 1.0])
        b = Trajectory([[0, 0], [1, 1]], [0.0, 2.0])
        with pytest.raises(InvalidInputError):
            Interaction(a, b)

    def test_immutable(self):
        traj = Trajectory([[0, 0], [1, 1]], [0.0, 1.0])
        with pytest.raises(ValueError):
            traj.samples[0, 0] = 5.0


class TestResample:
    def test_identity_on_uniform_grid(self):
        # already on the target grid: values pass through unchanged
        T = 101
        grid = np.linspace(0, 1, T)
        rng = np.random.default_rng(0)
        first, second = rng.normal(size=(T, 2)), rng.normal(size=(T, 2))
        first[3], second[-1] = -0.0, [5e-324, -1e300]
        inter = make_interaction(grid, first, second)
        out = resample(inter, T)
        assert out.first.samples.tobytes() == inter.first.samples.tobytes()
        assert out.second.samples.tobytes() == inter.second.samples.tobytes()
        # the interpolation the pass-through skips would give the same bits
        for values in (*first.T, *second.T):
            assert np.interp(grid, grid, values).tobytes() == values.tobytes()

    @pytest.mark.parametrize("T", [2, 3, 101, 501])
    def test_on_grid_input_is_returned_itself(self, T):
        grid = np.linspace(0, 1, T)
        inter = make_interaction(grid, np.ones((T, 2)), np.zeros((T, 2)))
        assert resample(inter, T) is inter

    def test_same_length_grid_in_seconds_is_interpolated(self):
        grid = np.linspace(3, 13, 101)
        rng = np.random.default_rng(1)
        inter = make_interaction(grid, rng.normal(size=(101, 2)), rng.normal(size=(101, 2)))
        out = resample(inter, 101)
        assert out is not inter
        assert np.array_equal(out.grid, np.linspace(0, 1, 101))
        assert np.max(np.abs(out.first.samples - inter.first.samples)) <= 1e-12
        # another length on the unit grid is interpolated too
        assert len(resample(out, 51)) == 51

    def test_kink_is_preserved_at_matching_node(self):
        # piecewise-linear with a kink at t=0.5 resampled to T=3: the middle
        # output sample must be the kink value itself
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        x = np.array([0.0, 0.5, 1.0, 0.5, 0.0])  # kink at 0.5
        first = np.column_stack([x, np.zeros_like(x)])
        inter = make_interaction(grid, first, np.zeros((5, 2)))
        out = resample(inter, 3)
        assert out.first.samples[1, 0] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(out.grid, [0.0, 0.5, 1.0])

    def test_affine_time_normalization(self):
        # grid in seconds; values linear in t stay linear on [0, 1]
        grid = np.array([3.0, 5.0, 9.0, 11.0])
        vals = np.column_stack([2.0 * grid + 1.0, -grid])
        inter = make_interaction(grid, vals, vals)
        out = resample(inter, 9)
        expect_x = 2.0 * (3.0 + 8.0 * out.grid) + 1.0
        assert np.max(np.abs(out.first.samples[:, 0] - expect_x)) <= 1e-12

    def test_rejects_tiny_target(self):
        grid = np.array([0.0, 1.0])
        inter = make_interaction(grid, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            resample(inter, 1)

    @settings(max_examples=25, deadline=None)
    @given(
        n_in=st.integers(min_value=2, max_value=40),
        n_out=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_endpoints_and_idempotence(self, n_in, n_out, seed):
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.uniform(0, 10, size=n_in))
        while np.any(np.diff(grid) <= 1e-9):
            grid = np.sort(rng.uniform(0, 10, size=n_in))
        inter = make_interaction(
            grid, rng.normal(size=(n_in, 2)), rng.normal(size=(n_in, 2))
        )
        out = resample(inter, n_out)
        # endpoints are preserved exactly by linear interpolation
        assert np.allclose(out.first.samples[0], inter.first.samples[0], atol=1e-12)
        assert np.allclose(out.first.samples[-1], inter.first.samples[-1], atol=1e-12)
        # resampling again at the same T is the identity
        again = resample(out, n_out)
        assert np.max(np.abs(again.first.samples - out.first.samples)) <= 1e-12
        assert np.max(np.abs(again.second.samples - out.second.samples)) <= 1e-12


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = np.sort(rng.uniform(0, 7, size=12))
        encounters = [
            (
                f"enc{k}",
                make_interaction(grid, rng.normal(size=(12, 2)), rng.normal(size=(12, 2))),
            )
            for k in range(3)
        ]
        path = tmp_path / "enc.csv"
        write_encounters_csv(path, encounters, meta={"seed": 1})
        back = read_encounters_csv(path)
        assert [eid for eid, _ in back] == [eid for eid, _ in encounters]
        for (_, a), (_, b) in zip(back, encounters):
            assert np.array_equal(a.first.samples, b.first.samples)
            assert np.array_equal(a.second.samples, b.second.samples)
            assert np.array_equal(a.grid, b.grid)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "encounter_id,t,x1,y1,x2,y2\n"
            "a,0.0,1,2,3,4\n"
            "a,1.0,1,oops,3,4\n"
        )
        with pytest.raises(DataError, match=":3"):
            read_encounters_csv(path)

    def test_non_monotone_t_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "encounter_id,t,x1,y1,x2,y2\n"
            "a,0.0,1,2,3,4\n"
            "a,0.0,1,2,3,4\n"
        )
        with pytest.raises(DataError, match="strictly increasing"):
            read_encounters_csv(path)

    def test_split_group_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "encounter_id,t,x1,y1,x2,y2\n"
            "a,0.0,1,2,3,4\n"
            "b,0.0,1,2,3,4\n"
            "a,1.0,1,2,3,4\n"
        )
        with pytest.raises(DataError, match="contiguous"):
            read_encounters_csv(path)

    @pytest.mark.parametrize(
        "column, value", [("t", "inf"), ("t", "nan"), ("x1", "nan"), ("y2", "-inf")]
    )
    def test_non_finite_value_is_data_error(self, tmp_path, value, column):
        fields = {"t": "1.0", "x1": "1", "y1": "2", "x2": "3", "y2": "4"}
        fields[column] = value
        path = tmp_path / "bad.csv"
        path.write_text(
            "encounter_id,t,x1,y1,x2,y2\n"
            "a,0.0,1,2,3,4\n"
            f"a,{fields['t']},{fields['x1']},{fields['y1']},{fields['x2']},{fields['y2']}\n"
        )
        with pytest.raises(DataError, match=re.escape(str(path)) + ".*'a'"):
            read_encounters_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,t,x1,y1,x2,y2\na,0,1,2,3,4\n")
        with pytest.raises(DataError, match="header"):
            read_encounters_csv(path)


HEADER = "encounter_id,t,x1,y1,x2,y2\n"

# name, file content; every case must read exactly as the csv.reader parser does
PARSER_CASES = [
    ("plain", HEADER + "a,0,1,2,3,4\na,1,5,6,7,8\nb,0,0,0,0,0\nb,0.5,1,1,1,1\n"),
    ("quoted-ids", HEADER + '"a",0,1,2,3,4\n"a",1,1,2,3,4\n"b,c",0,0,0,0,0\n"b,c",2,1,1,1,1\n'),
    ("doubled-quote", HEADER + '"e""f",0,1,2,3,4\n"e""f",1,1,2,3,4\n'),
    ("crlf", HEADER.replace("\n", "\r\n") + "a,0,1,2,3,4\r\na,1,1,2,3,4\r\n"),
    ("lone-cr", HEADER.replace("\n", "\r") + "a,0,1,2,3,4\ra,1,1,2,3,4\r"),
    ("blank-lines", "\n  \n" + HEADER + "\na,0,1,2,3,4\n\t\na,1,1,2,3,4\n\n"),
    ("comments-mid-file", '# {"seed": 1}\n' + HEADER + "a,0,1,2,3,4\n# a,9,9\na,1,1,2,3,4\n#\n"),
    ("spaces", " encounter_id , t,x1,y1,x2,y2 \n a , 0 ,1,2,3,4  \na ,1,1,2,3,4\n"),
    # str.splitlines would end a line at each of these; the handle does not
    ("form-feeds", HEADER + "a,0,1\x0b,2,3,4\x0c\na,1\x1c,1,2,3,4\u2028\n"),
    ("no-final-newline", HEADER + "a,0,1,2,3,4\na,1,1,2,3,4"),
    ("only-header", HEADER),
    ("nul-in-number", HEADER + "a,0,1,2,3,4\na,1,1\x002,2,3,4\n"),
    ("too-few-fields", HEADER + "a,0,1,2,3,4\na,1,1,2,3\n"),
    ("too-many-fields", HEADER + "a,0,1,2,3,4,5\n"),
    ("quoted-comma-field-count", HEADER + '"a,b",0,1,2,3\n'),
    ("non-numeric", HEADER + "a,0,1,2,3,4\na,1,one,2,3,4\n"),
    ("non-contiguous", HEADER + "a,0,1,2,3,4\nb,0,1,2,3,4\na,1,1,2,3,4\n"),
    ("repeated-t", HEADER + "a,0,1,2,3,4\na,0,1,2,3,4\n"),
    ("decreasing-t", HEADER + "a,1,1,2,3,4\na,0,1,2,3,4\n"),
    ("nan-t", HEADER + "a,0,1,2,3,4\na,nan,1,2,3,4\n"),
    ("nan-x", HEADER + "a,0,nan,2,3,4\na,1,1,2,3,4\n"),
    ("inf-y", HEADER + "a,0,1,2,3,4\na,1,1,2,3,-inf\n"),
    ("overflow-inf", HEADER + "a,0,1,2,3,4\na,1,1e400,2,3,4\n"),
    ("single-sample", HEADER + "a,0,1,2,3,4\nb,0,1,2,3,4\nb,1,1,2,3,4\n"),
    ("bad-header", "id,t,x1,y1,x2,y2\na,0,1,2,3,4\n"),
    ("empty", ""),
    ("only-comments", "# {}\n\n#\n"),
]

_IDS = st.sampled_from(["a", "b", '"a"', '"b,c"', '"e""f"', " d ", "\u00e9"])
_ODD_NUMBERS = st.sampled_from(
    [" 4 ", "1_0", "\u0661", "1\x0b", "-0.0", "nan", "-inf", "1e400", "0x1", "", "1\x00"]
)
_NOISE = st.sampled_from(["", "  ", "\t", "\x0c", "#", "# a,b", '"', "a,1"])
_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


def _rarely(draw, one_in: int) -> bool:
    """True about once in `one_in` draws.  The middle of the range is neither
    an end nor the shrink target, both of which hypothesis draws more often."""
    return draw(st.integers(0, one_in - 1)) == one_in // 2


@st.composite
def _encounter_files(draw) -> str:
    """Mostly a header, then blocks of rows with increasing t, noise lines
    between them and an odd number now and then."""

    def number() -> str:
        return draw(_ODD_NUMBERS) if _rarely(draw, 40) else repr(draw(st.floats(-1e3, 1e3)))

    lines = [] if _rarely(draw, 8) else [HEADER.strip()]
    t = 0
    for _ in range(draw(st.integers(0, 6))):
        if _rarely(draw, 5):
            lines.append(draw(_NOISE))
            continue
        enc_id = draw(_IDS)
        for _ in range(draw(st.integers(1, 4))):
            t += 1
            lines.append(",".join([enc_id, str(t), *(number() for _ in range(4))]))
    return "".join(line + draw(_ENDINGS) for line in lines)


def assert_parses_like_reference(path) -> None:
    """Bit-identical encounters, or a DataError with the same message."""
    try:
        expected = reference_read_encounters_csv(path)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            read_encounters_csv(path)
        assert str(info.value) == str(exc)
        return
    got = read_encounters_csv(path)
    assert [enc_id for enc_id, _ in got] == [enc_id for enc_id, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        for mine, theirs in (
            (a.grid, b.grid), (a.first.samples, b.first.samples), (a.second.samples, b.second.samples)
        ):
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()


class TestParserMatchesReference:
    @pytest.mark.parametrize("content", [c for _, c in PARSER_CASES], ids=[n for n, _ in PARSER_CASES])
    def test_case(self, tmp_path, content):
        path = tmp_path / "enc.csv"
        path.write_bytes(content.encode())
        assert_parses_like_reference(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "enc.csv"
        path.write_bytes(HEADER.encode() + b"a,0,1,2,3,4\n\xff\xfe,1,1,2,3,4\n")
        assert_parses_like_reference(path)

    def test_written_dataset(self, tmp_path):
        rng = np.random.default_rng(7)
        grid = np.sort(rng.uniform(0, 7, size=9))
        encounters = [
            (f"enc{k}", make_interaction(grid, rng.normal(size=(9, 2)), rng.normal(size=(9, 2))))
            for k in range(4)
        ]
        path = tmp_path / "enc.csv"
        write_encounters_csv(path, encounters, meta={"seed": 7})
        assert_parses_like_reference(path)

    @settings(max_examples=300, deadline=None)
    @given(content=_encounter_files())
    def test_generated_files(self, content):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "enc.csv")
            with open(path, "w", newline="", encoding="utf-8") as handle:
                handle.write(content)
            assert_parses_like_reference(path)


class TestEncountersBinary:
    def test_round_trip_is_bit_identical(self, tmp_path):
        path = tmp_path / "enc.csv"
        path.write_text(
            PARSER_CASES[1][1] + '"\u00e9,x",0,-0.0,2,3,4\n"\u00e9,x",1e-300,1,2,3,4\n',
            encoding="utf-8",
        )
        encounters = read_encounters_csv(path)
        cache = tmp_path / "enc.bin"
        write_encounters_binary(cache, encounters)
        back = read_encounters_binary(cache)
        assert [enc_id for enc_id, _ in back] == ["a", "b,c", "\u00e9,x"]
        for (_, a), (_, b) in zip(back, encounters):
            for mine, theirs in (
                (a.grid, b.grid), (a.first.samples, b.first.samples),
                (a.second.samples, b.second.samples),
            ):
                assert mine.tobytes() == theirs.tobytes()
        write_encounters_binary(tmp_path / "again.bin", back)
        assert (tmp_path / "again.bin").read_bytes() == cache.read_bytes()

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "enc.bin"
        write_encounters_binary(path, [])
        assert read_encounters_binary(path) == []


def test_interaction_dict_round_trip():
    rng = np.random.default_rng(5)
    grid = np.linspace(0, 1, 7)
    inter = make_interaction(grid, rng.normal(size=(7, 2)), rng.normal(size=(7, 2)))
    back = interaction_from_dict(interaction_to_dict(inter))
    assert np.array_equal(back.first.samples, inter.first.samples)
    assert np.array_equal(back.grid, inter.grid)
