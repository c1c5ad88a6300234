"""Property test of the CSV writer: one joined write gives, byte for byte,
the header and `_fmt` of every value, comma-separated, one row a line."""

import contextlib
import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cvgeo.cli import _fmt, _print_rows  # noqa: E402

# finite floats, with -0.0, subnormals and integral values at and above
# 1e16 (where repr switches to exponent form) drawn often
CSV_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.225073858507201e-308, 1e16, -1e16, 1e22,
                     123456789012345678.0, 9007199254740993.0, 1.7976931348623157e308]),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n_cols=st.integers(1, 12), n_rows=st.integers(0, 8))
def test_csv_rows_are_fmt_of_every_value(data, n_cols, n_rows):
    rows = [data.draw(st.lists(CSV_FLOATS, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _print_rows("h", np.array(rows, dtype=float).reshape(n_rows, n_cols))
    expected = ["h"] + [",".join(_fmt(v) for v in row) for row in rows]
    assert buf.getvalue() == "\n".join(expected) + "\n"
