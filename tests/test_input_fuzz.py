"""Damaged model files and sweep configs through `roelab.cli.main`: a key
dropped, or a value retyped, at any depth.  Every run exits 0 or ends in
exactly one named error line, never in a traceback."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from roelab.cli import main

DROP = "drop"
# what a retyped value becomes: each JSON type but the right one, and a fraction
ACTIONS = [DROP, None, "x", True, [1], {}, 2.5]
PREFIXES = ("error: ", "config error: ", "usage error: ")
SWEEP = {"model": "ssh", "params": {"t1": 0.5, "t2": 1.0}, "size": 12, "disorder": 0.1,
         "fermi": 0.0, "windows": [2, 3], "seeds": [0], "vary_param": "t2",
         "values": [1.0], "formula": "trace"}
COMMANDS = {"spectrum": [], "index": [], "edge-index": ["--normal", "1", "--offset", "2.6"]}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _paths(node, path=()):
    """Every object key of a JSON document and the first entry of every list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _paths(value, path + (key,))
    elif isinstance(node, list) and node:
        yield path + (0,)
        yield from _paths(node[0], path + (0,))


def _damaged(doc, path, action):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(action)
    return doc


def _one_line_or_success(code, err):
    event(f"exit {code}")
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(PREFIXES) and len(err.strip().splitlines()) == 1, err


@pytest.fixture(scope="module")
def ssh_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ssh.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--model", "ssh", "--n", "6", "--t1", "0.5", "--t2", "1",
                     "--out", str(path)]) == 0
    return json.loads(path.read_text())


FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.data(), command=st.sampled_from(sorted(COMMANDS)),
       action=st.sampled_from(ACTIONS))
def test_damaged_model_file(tmp_path, ssh_file, data, command, action):
    path = data.draw(st.sampled_from(list(_paths(ssh_file))))
    model = tmp_path / "m.json"
    model.write_text(json.dumps(_damaged(ssh_file, path, action)))
    _one_line_or_success(*_run([command, "--model-file", str(model), *COMMANDS[command]]))


@FUZZ
@given(data=st.data(), action=st.sampled_from(ACTIONS))
def test_damaged_sweep_config(tmp_path, data, action):
    path = data.draw(st.sampled_from(list(_paths(SWEEP))))
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps(_damaged(SWEEP, path, action)))
    out.unlink(missing_ok=True)
    code, err = _run(["sweep", "--config", str(cfg), "--out", str(out)])
    _one_line_or_success(code, err)
    assert out.exists() == (code == 0)
