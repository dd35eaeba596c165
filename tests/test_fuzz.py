"""Fuzz of the input boundaries: every input is an answer or a documented error.

Library parsers must either succeed or raise ValueError.  The CLI must end
every argv drawn from its real subcommands (k, n <= 8, and for poincare a
few sizes up to 1500 on both sides of the work budget) with exit code 0, 2,
3 or 4 and never a traceback.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from morsegrass.cli import main
from morsegrass.flows import GrassmannPoint
from morsegrass.witten import circle_complex, dump_complex, homology, load_complex

FUZZ = settings(max_examples=60, deadline=None)

numbers = st.one_of(st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
frames = st.lists(st.lists(st.lists(numbers | st.booleans(), min_size=2, max_size=2), min_size=1, max_size=3),
                  min_size=1, max_size=4)


def has_bool(data):
    if isinstance(data, dict):
        data = list(data.values())
    return isinstance(data, bool) or isinstance(data, list) and any(map(has_bool, data))


@FUZZ
@given(st.one_of(frames, json_values))
@example([[[True, False]], [[0, 0]]])
def test_frame_json_is_a_point_or_a_value_error(data):
    try:
        V = GrassmannPoint.from_json(data)
    except ValueError:
        return
    assert not has_bool(data), "a frame holding a bool was accepted"
    assert np.isfinite(V.matrix).all()


degree = st.integers(-1, 3)
complex_lines = st.one_of(
    st.builds("degrees: {} {}".format, degree, degree),
    st.builds(lambda i, names: f"gens {i}: {' '.join(names)}", degree,
              st.lists(st.sampled_from("abc"), max_size=3)),
    st.builds("d {}:".format, degree),
    st.lists(st.integers(-2, 2), max_size=3).map(lambda row: " ".join(map(str, row))),
    st.text(max_size=8),
)


@FUZZ
@given(st.lists(complex_lines, max_size=10).map("\n".join))
@example("degrees: 0 1\ngens 0: a\ngens 1: b a")
def test_complex_text_is_a_complex_or_a_value_error(text):
    try:
        c = load_complex(text)
    except ValueError:
        return
    names = [g for gens in c.generators.values() for g in gens]
    assert len(set(names)) == len(names)
    homology(c)
    homology(c, "mod2")


FILES = {
    "frame.json": [[[1, 0], [1, 0]], [[1, 0], [-1, 0]], [[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "flat.json": [1, 2],
    "nan.json": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    "rank1.json": [[[1, 0], [1, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    "graph.json": {"vertices": ["v"], "edges": [["v", None, "incoming"]],
                   "incoming_indices": [2], "dim_m": 4},
    "empty.json": [],
    "bad-graph.json": {"vertices": 5, "edges": [], "dim_m": 3},
    "twice-graph.json": {"vertices": ["v", "v"], "edges": [["v", None, "incoming"]],
                         "incoming_indices": [2], "dim_m": 4},
    "circle.txt": dump_complex(circle_complex(2)),
    "bad-dd.txt": "degrees: 0 2\ngens 0: a\ngens 1: b\ngens 2: c\nd 1:\n1\nd 2:\n1\n",
    "junk.txt": "gens x\n",
    "twice.txt": "degrees: 0 1\ngens 0: a a\ngens 1: x\nd 1:\n1\n1\n",
}

k_or_n = st.integers(-1, 8).map(str)
large_k_or_n = st.sampled_from(["1", "300", "600", "1499", "1500"])
symbol = st.lists(st.integers(0, 9), max_size=4).map(lambda xs: "(" + ",".join(map(str, xs)) + ")")
frame_file = st.sampled_from(["frame.json", "flat.json", "nan.json", "rank1.json", "missing.json"])
spectrum = st.sampled_from(["4,3,2,1", "2,2,1,1", "nan,2,1,0", "4,3,2,inf", "1,2,3,4", "3,2,1", "x"])
argvs = st.one_of(
    st.tuples(st.just("cells"), k_or_n, k_or_n),
    st.tuples(st.just("poincare"), k_or_n, k_or_n,
              st.sampled_from(["cells", "recurrence", "closed", "all"])),
    st.tuples(st.just("poincare"), large_k_or_n, large_k_or_n,
              st.sampled_from(["cells", "recurrence", "closed", "all"])),
    st.builds(lambda k, n, syms: ["cup", k, n, *syms], k_or_n, k_or_n,
              st.lists(symbol, min_size=1, max_size=3)),
    st.builds(lambda k, n, u: ["polytope", k, n, *u], k_or_n, k_or_n,
              st.lists(symbol, max_size=1)),
    st.builds(lambda src, params, mode: ["witten", src, *params, *mode],
              st.sampled_from(["builtin:circle", "builtin:rp", "builtin:torus",
                               "builtin:grassmannian", "builtin:sphere", "circle.txt",
                               "bad-dd.txt", "junk.txt", "twice.txt", "missing.txt"]),
              st.lists(k_or_n, max_size=2), st.lists(st.sampled_from(["integers", "mod2"]), max_size=1)),
    st.tuples(st.just("flow"), frame_file, spectrum, st.sampled_from(["1.0", "-2", "inf", "nan", "1e308"])),
    st.tuples(st.just("limit"), frame_file, spectrum, st.sampled_from(["down", "up"])),
    st.tuples(st.just("moduli-dim"),
              st.sampled_from(["graph.json", "empty.json", "bad-graph.json", "twice-graph.json",
                               "frame.json", "circle.txt"])),
).map(list)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, content in FILES.items():
        (root / name).write_text(content if isinstance(content, str) else json.dumps(content))
    return root


@FUZZ
@given(argv=argvs, as_json=st.booleans())
def test_cli_ends_in_a_documented_exit_code(fuzz_dir, argv, as_json):
    argv = [str(fuzz_dir / a) if a.endswith((".json", ".txt")) else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["--json"] * as_json + argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()
