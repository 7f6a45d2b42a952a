"""Property over the command-line flags and input files: whatever values
`cluster`, `theory` and `counterexample` are given, and whatever points CSV
`cluster` and `diagnose` read, a run ends in exactly one strict-JSON line.
Either it exits 0 with the echo on stdout and nothing on stderr, or it
exits 1 or 2 with nothing on stdout and one error on stderr whose code is a
listed one, never `internal-error`. A warning counts as a failure: the run
turns it into an exception."""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blurshift import cli

LISTED_CODES = {code for _, code in cli._ERROR_CODES}

# the edges of the double range: subnormal, the square-root limits of the
# normal range, past them, and not a number
EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-320, 1e-170, 1e154, 1e200]
FLOAT_TEXT = st.one_of(
    st.floats(1e-3, 10).map(repr),
    st.floats(-10, 10).map(repr),
    st.sampled_from(EDGES).map(repr),
    st.sampled_from(["-1", "abc", "", "1e"]),
)
# an ordinary positive value in half the draws
POSITIVE_TEXT = st.one_of(st.floats(1e-3, 10).map(repr), FLOAT_TEXT)
DISTANCE = st.one_of(st.floats(0, 5), st.floats(0, 5), st.sampled_from(EDGES))
# well-formed levels (thresholds up, values down) and knots (from 0:1,
# distances up), each with edge values among the distances
ROWS = st.lists(st.tuples(DISTANCE, st.floats(0, 1)), min_size=1, max_size=4)
LEVELS = ROWS.map(
    lambda rows: list(zip(sorted(r[0] for r in rows), sorted((r[1] for r in rows), reverse=True)))
)
KNOTS = ROWS.map(lambda rows: [(0.0, 1.0), *sorted(rows)])
PAIRS = st.one_of(
    st.one_of(LEVELS, KNOTS).map(lambda rows: ",".join(f"{d!r}:{v!r}" for d, v in rows)),
    st.lists(
        st.one_of(
            st.tuples(FLOAT_TEXT, FLOAT_TEXT).map(":".join),
            st.sampled_from(["x", "", "1", "1:2:3", ":"]),
        ),
        min_size=1,
        max_size=4,
    ).map(",".join),
)


def family_flags(family: str, flag: str):
    """Flags that name one family and set its own flag, with the support
    radius or not."""
    return st.fixed_dictionaries(
        {"--kernel": st.just(family), flag: POSITIVE_TEXT if flag == "--tau" else PAIRS},
        optional={"--support-radius": POSITIVE_TEXT},
    )


# mostly one family's own flags, so that runs reach the engine; otherwise
# any mix, flags of other families included
KERNEL_FLAGS = st.one_of(
    family_flags("gaussian", "--tau"),
    family_flags("truncated_flat", "--levels"),
    family_flags("tabulated", "--knots"),
    st.fixed_dictionaries(
        {},
        optional={
            "--kernel": st.sampled_from(["gaussian", "truncated_flat", "tabulated"]),
            "--tau": FLOAT_TEXT,
            "--support-radius": FLOAT_TEXT,
            "--levels": PAIRS,
            "--knots": PAIRS,
        },
    ),
)
# an ordinary tolerance in half the draws
TOLERANCE = st.one_of(st.floats(1e-12, 1).map(repr), FLOAT_TEXT)
ENGINE_FLAGS = st.fixed_dictionaries(
    {},
    optional={
        "--mode": st.sampled_from(["blurring", "nonblurring"]),
        "--stop-displacement": TOLERANCE,
        "--max-iterations": st.integers(-1, 20).map(str),
        "--merge-tolerance": TOLERANCE,
    },
)

POINTS = {
    "four_2d.csv": "0,0\n1,0\n0,1\n3,3\n",
    "one_row.csv": "0.5,-2\n",
    "duplicates.csv": "1,1\n1,1\n1,1\n2,-1\n2,-1\n",
}


# coordinate magnitudes from near the bottom of the double range, through
# the square-root limits of the normal range, to past them
SPANS = [1e-300, 1e-170, 1e-10, 1.0, 1e10, 1e100, 1e154, 2e154, 1e200, 1e300]
BAD_CELLS = ["nan", "inf", "-inf", "abc", "", "1e"]


@st.composite
def points_csv(draw) -> str:
    """A points CSV of 1 to 3 columns at one drawn span and offset, often
    with repeated rows, sometimes with a header, and sometimes with one cell
    that is not a finite number."""
    p = draw(st.integers(1, 3))
    span = draw(st.sampled_from(SPANS))
    offset = draw(st.sampled_from([0.0, 1e8, -1e300]))
    coordinate = st.floats(-1, 1).map(lambda u: repr(offset + span * u))
    distinct = draw(st.lists(st.lists(coordinate, min_size=p, max_size=p), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    rows = [list(distinct[i]) for i in picks]
    if draw(st.booleans()):
        row, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, p - 1))
        rows[row][column] = draw(st.sampled_from(BAD_CELLS))
    header = [",".join(f"x{d}" for d in range(p))] if draw(st.booleans()) else []
    return "\n".join(header + [",".join(row) for row in rows]) + "\n"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(line: str):
    return json.loads(line, parse_constant=_reject_constant)


def flag_args(flags: dict) -> list:
    # --flag=value, so a value such as -inf is never read as a flag
    return [f"{flag}={value}" for flag, value in flags.items()]


def assert_one_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        assert len(out.splitlines()) == 1, out
        strict_json(out)
    else:
        assert code in (1, 2), (code, err)
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert strict_json(err)["error"]["code"] in LISTED_CODES, err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("surface")
    for name, text in POINTS.items():
        (path / name).write_text(text)
    return path


@given(
    points=st.sampled_from(sorted(POINTS)), kernel=KERNEL_FLAGS, engine=ENGINE_FLAGS
)
@settings(max_examples=300, deadline=None)
def test_cluster_flags(workdir, points, kernel, engine):
    assert_one_outcome(
        ["cluster", "--input", str(workdir / points),
         "--output", str(workdir / "result.json"), *flag_args({**kernel, **engine})]
    )


@given(
    flags=st.fixed_dictionaries(
        {},
        optional={
            "--sigma0": POSITIVE_TEXT,
            "--tau": POSITIVE_TEXT,
            "--steps": st.integers(-1, 50).map(str),
        },
    )
)
@settings(max_examples=200, deadline=None)
def test_theory_flags(workdir, flags):
    assert_one_outcome(["theory", "--output", str(workdir / "theory.csv"), *flag_args(flags)])


# the schedule takes offsets in (0, 1/4)
DELTA_TEXT = st.one_of(FLOAT_TEXT, st.floats(0, 0.25).map(repr))
DELTAS = st.one_of(
    st.lists(st.floats(0, 0.25).map(repr), min_size=3, max_size=3),
    st.lists(DELTA_TEXT, min_size=1, max_size=4),
).map(",".join)


@given(
    flags=st.fixed_dictionaries(
        {},
        optional={
            "--deltas": DELTAS,
            "--iterations": st.integers(-1, 10).map(str),
            "--delta-min": DELTA_TEXT,
        },
    )
)
@settings(max_examples=200, deadline=None)
def test_counterexample_flags(workdir, flags):
    assert_one_outcome(
        ["counterexample", "--output", str(workdir / "trajectory.csv"), *flag_args(flags)]
    )


@given(
    text=points_csv(),
    command=st.sampled_from(["cluster", "diagnose"]),
    flags=st.fixed_dictionaries(
        {"--tau": st.sampled_from(["1", "1e-3", "1e3"])},
        optional={"--mode": st.sampled_from(["blurring", "nonblurring"])},
    ),
)
@settings(max_examples=300, deadline=None)
def test_input_files(workdir, text, command, flags):
    points = workdir / "drawn.csv"
    points.write_text(text)
    assert_one_outcome(
        [command, "--input", str(points), "--output", str(workdir / f"{command}.json"),
         *flag_args(flags)]
    )
