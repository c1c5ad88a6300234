"""Property test of the CLI contract: every argv ends with a documented exit
code, no exception escapes `main`, and a run that exits 0 prints no value
that is not finite."""

import contextlib
import io
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cvgeo import _rk  # noqa: E402
from cvgeo.audits import SUITES  # noqa: E402
from cvgeo.cli import main  # noqa: E402

EXIT_CODES = {0, 1, 3, 64, 65}
# Python's and json's spellings of the values that are not finite
NON_FINITE = {"nan", "inf", "-inf", "infinity", "-infinity"}

# Boundary values (not-a-number, infinities, huge, negative, zero, tiny and
# malformed) drawn one time in four, ordinary values otherwise, so that most
# argvs get past parsing.
ORDINARY_FLOATS = ["-1.3", "-0.5", "0", "0.3", "0.7", "1", "2"]
BOUNDARY_FLOATS = ["nan", "inf", "-inf", "1e300", "-1e300", "1e200", "1e20", "-0.0", "1e-300",
                   "-1e-300", "abc"]
ORDINARY_INTS = ["1", "2", "3"]
BOUNDARY_INTS = ["-100000000000", "-1", "0", "1000001", "100000000000", "1.5"]


def _mostly_ordinary(ordinary, boundary):
    return st.sampled_from(ordinary * (3 * len(boundary) // len(ordinary) + 1) + boundary)


FLOATS = _mostly_ordinary(ORDINARY_FLOATS, BOUNDARY_FLOATS)
INTS = _mostly_ordinary(ORDINARY_INTS, BOUNDARY_INTS)
TOLS = _mostly_ordinary([None], ["nan", "inf", "-1", "0", "1e-300", "1e-6", "abc"])

FLOAT_FLAGS = {
    "classify": ("--l", "--m"),
    "geodesic": ("--l", "--m", "--u", "--v", "--w", "--t-max", "--x0", "--y0", "--z0"),
    "surface": ("--l", "--m", "--a", "--k", "--z0", "--c", "--u-min", "--u-max", "--su", "--sv",
                "--sdu", "--sdv", "--t-max"),
}
INT_FLAGS = {"geodesic": ("--samples",), "audit": ("--seed", "--count"), "surface": ("--grid", "--samples")}
REQUIRED = {"classify": ("--l", "--m"), "geodesic": ("--l", "--m", "--u", "--v", "--w"),
            "surface": ("--l", "--m")}
CHOICES = {
    "geodesic": {"--method": ("closed", "numeric", "both")},
    "audit": {"--suite": tuple(sorted(SUITES))},
    "surface": {"--profile": ("cylinder", "cone", "slice", "tan", "tanh"),
                "--action": ("forms", "parallels", "meridians", "geodesic")},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("classify", "geodesic", "audit", "surface")))
    argv = [command]
    for flag, options in CHOICES.get(command, {}).items():
        if flag != "--method" or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(options))]
    # "--flag=value", since argparse takes "-1e300" or "-inf" after a bare
    # "--flag" for an option
    for flag in FLOAT_FLAGS.get(command, ()):
        if flag in REQUIRED.get(command, ()) or draw(st.booleans()):
            argv.append(f"{flag}={draw(FLOATS)}")
    for flag in INT_FLAGS.get(command, ()):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(INTS)}")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=argvs(), tol=TOLS)
def test_main_exit_code_is_documented(argv, tol):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_rk, "MAX_EVALS", 1200)  # a huge --t-max ends after 1200 rhs evaluations
        if tol is None:
            mp.delenv("CVGEO_TOL", raising=False)
        else:
            mp.setenv("CVGEO_TOL", tol)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in EXIT_CODES, (argv, tol, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        fields = {f.lower() for f in re.findall(r"[-+\w.]+", out.getvalue())}
        assert not fields & NON_FINITE, (argv, tol)
