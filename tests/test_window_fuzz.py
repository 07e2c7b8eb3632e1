"""Drawn window lists through `roelab.cli.main`: every run ends in one named
error line, or succeeds with strictly increasing windows and the raw value
of the largest one."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from roelab.cli import main

# radii that fit a qwz 12x12 sample and its 1,0 cut at 5.6 on both sides, and
# radii that do not: zero, negative, NaN, infinite, oversize or anything
FITS = st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0, 5.0])
RADIUS = st.one_of(
    FITS, st.sampled_from([0.0, -1.0, float("nan"), float("inf"), 5.8, 8.0]),
    st.floats(min_value=-3.0, max_value=12.0, allow_nan=False).map(lambda x: round(x, 1)))
# distinct fitting radii in any order, or anything
WINDOWS = st.one_of(st.lists(FITS, min_size=1, max_size=4, unique=True),
                    st.lists(RADIUS, min_size=1, max_size=4))
CUT = ["--normal", "1,0", "--offset", "5.6"]


@pytest.fixture(scope="module")
def qwz12(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "qwz.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--model", "qwz", "--size", "12", "--m", "1",
                     "--out", str(path)]) == 0
    return str(path)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _holds_the_rule(report):
    windows, values = report["windows"], report["values"]
    assert all(a < b for a, b in zip(windows, windows[1:]))
    assert report["raw"] == values[-1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["index", "edge-index", "verify-bec"]),
       windows=WINDOWS, edge_windows=WINDOWS)
def test_drawn_windows_end_in_one_error_line_or_obey_the_rule(qwz12, command, windows,
                                                               edge_windows):
    # "--flag=value", so that a list starting with "-" reaches the window rule
    text = "--windows=" + ",".join(str(n) for n in windows)
    if command == "index":
        argv = ["index", "--model-file", qwz12, text]
    elif command == "edge-index":
        argv = ["edge-index", "--model-file", qwz12, *CUT, text]
    else:
        argv = ["verify-bec", "--model-file", qwz12, *CUT, text,
                "--edge-windows=" + ",".join(str(n) for n in edge_windows)]
    code, out, err = _run(argv)
    event(f"{command} exit {code}")
    assert "Traceback" not in err
    if code in (1, 2) and err:
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: " if code == 1 else "usage error: ")
        assert out == ""
        return
    assert err == ""
    if command == "verify-bec":
        assert code in (0, 1)          # 1: the certification's own verdict
        doc = json.loads(out[:out.rindex("}") + 1])
        _holds_the_rule(doc["bulk"])
        _holds_the_rule(doc["edge"])
    else:
        assert code == 0
        _holds_the_rule(json.loads(out))
