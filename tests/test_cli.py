import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from morsegrass.cli import main
from morsegrass.flows import GrassmannPoint


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), err


def write_point(tmp_path, matrix, name="point.json"):
    path = tmp_path / name
    path.write_text(json.dumps(GrassmannPoint(np.array(matrix, dtype=complex)).to_json()))
    return str(path)


def child_env():
    import morsegrass

    return dict(os.environ, PYTHONPATH=str(Path(morsegrass.__file__).parents[1]))


def bareiss_det(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


class TestCells:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "cells", "2", "4")
        assert code == 0
        assert "(3,4)" in out and "(1,2)" in out

    def test_json_payload(self, capsys):
        code, data, _ = run_json(capsys, "cells", "2", "4")
        assert code == 0
        cells = data["payload"]["cells"]
        assert len(cells) == 6
        by_symbol = {c["symbol"]: c for c in cells}
        assert by_symbol["(2,4)"]["dim"] == 3
        assert by_symbol["(2,4)"]["index_minus_f"] == 6
        assert by_symbol["(2,4)"]["index_f"] == 2

    def test_table_within_entry_budget(self, capsys):
        # 70 cells of 8 condition entries each, well inside the budget
        code, out, _ = run(capsys, "cells", "4", "8")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 71
        assert lines[0] == "symbol     dim  idx(-f)  idx(f)  conditions"
        assert lines[1] == "(1,2,3,4)    0        0      32  1,2,3,4,4,4,4,4"
        assert lines[-1] == "(5,6,7,8)   16       32       0  0,0,0,0,1,2,3,4"

    def test_bad_arguments(self, capsys):
        code, data, _ = run_json(capsys, "cells", "5", "4")
        assert code == 2
        assert data["status"] == "error"


class TestPoincare:
    def test_all_methods_agree(self, capsys):
        code, data, _ = run_json(capsys, "poincare", "2", "4")
        assert code == 0
        assert data["payload"]["agreement"] is True
        assert data["payload"]["cells"] == {"coeffs": [1, 0, 1, 0, 2, 0, 1, 0, 1]}

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "poincare", "1", "3", "closed")
        assert code == 0
        assert out.strip() == "1 + t^2 + t^4"

    def test_usage_error(self, capsys):
        code, _, _ = run_json(capsys, "poincare", "4", "2")
        assert code == 2

    def test_deep_recurrence(self, capsys):
        # the recurrence used to recurse once per unit of n and hit RecursionError
        from morsegrass.polynomials import poincare_closed

        start = time.perf_counter()
        code, data, err = run_json(capsys, "poincare", "1", "1500", "recurrence")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and "Traceback" not in err
        assert data["payload"]["recurrence"] == poincare_closed(1, 1500).to_json()

    def test_long_closed_form_within_budget(self, capsys):
        from morsegrass.polynomials import poincare_recurrence

        code, data, _ = run_json(capsys, "poincare", "1499", "1500", "closed")
        assert code == 0
        assert data["payload"]["closed"] == poincare_recurrence(1499, 1500).to_json()

    def test_long_recurrence_within_budget(self, capsys):
        from morsegrass.polynomials import poincare_closed

        code, data, _ = run_json(capsys, "poincare", "1499", "1500", "recurrence")
        assert code == 0
        assert data["payload"]["recurrence"] == poincare_closed(1, 1500).to_json()


class TestFlowAndLimit:
    def test_flow_moves_toward_minimum(self, capsys, tmp_path):
        path = write_point(tmp_path, [[1, 1], [1, -1], [1, 0], [0, 1]])
        code, data, _ = run_json(capsys, "flow", path, "4,3,2,1", "5.0")
        assert code == 0
        assert "height" in data["payload"]
        assert len(data["payload"]["moment"]) == 4

    def test_limit_generic_point_down(self, capsys, tmp_path):
        path = write_point(tmp_path, [[1, 1], [1, -1], [1, 0], [0, 1]])
        code, data, _ = run_json(capsys, "limit", path, "4,3,2,1", "down")
        assert code == 0
        assert data["payload"]["symbol"] == {"entries": [3, 4], "k": 2, "n": 4}
        assert len(data["payload"]["moment_trace"]) == 4

    def test_limit_generic_point_up(self, capsys, tmp_path):
        path = write_point(tmp_path, [[1, 1], [1, -1], [1, 0], [0, 1]])
        code, data, _ = run_json(capsys, "limit", path, "4,3,2,1", "up")
        assert code == 0
        assert data["payload"]["symbol"] == {"entries": [1, 2], "k": 2, "n": 4}

    def test_tied_spectrum_is_usage_error(self, capsys, tmp_path):
        path = write_point(tmp_path, [[1, 0], [0, 1], [0, 0], [0, 0]])
        code, data, _ = run_json(capsys, "limit", path, "2,2,1,1", "down")
        assert code == 2
        assert "Morse-Bott" in data["diagnostics"]

    def test_ambiguous_point_exit_code(self, capsys, tmp_path):
        # entry of borderline size: inside the ambiguity band around tol
        eps = 5e-7
        path = write_point(tmp_path, [[1, 0], [eps, 0], [0, 1], [0, eps]])
        code, data, _ = run_json(capsys, "--tol", "1e-6", "limit", path, "4,3,2,1", "down")
        assert code == 4
        assert data["code"] == "ambiguous-cell"

    def test_missing_file(self, capsys):
        code, _, _ = run_json(capsys, "limit", "/nonexistent.json", "4,3,2,1", "down")
        assert code == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf", "abc"])
    def test_bad_tolerance_is_usage_error(self, capsys, tmp_path, tol):
        # with tol = -1 or nan every row used to pass as a pivot row, printing (3,4)
        path = write_point(tmp_path, [[1, 0], [0, 1], [0, 0], [0, 0]])
        with pytest.raises(SystemExit) as err:
            main(["--tol", tol, "limit", path, "4,3,2,1", "down"])
        assert err.value.code == 2
        assert "tolerance" in capsys.readouterr().err

    def test_bad_tolerance_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MORSEGRASS_TOL", "abc")
        with pytest.raises(SystemExit) as err:
            main(["cells", "2", "4"])
        assert err.value.code == 2
        monkeypatch.setenv("MORSEGRASS_TOL", "1e-8")
        assert main(["cells", "2", "4"]) == 0


class TestWitten:
    def test_builtin_rp3(self, capsys):
        code, out, _ = run(capsys, "witten", "builtin:rp", "3")
        assert code == 0
        assert "H_0 = Z" in out and "H_1 = Z/2" in out and "H_3 = Z" in out

    def test_builtin_mod2(self, capsys):
        code, data, _ = run_json(capsys, "witten", "builtin:rp", "3", "mod2")
        assert code == 0
        assert data["payload"]["homology"]["mode"] == "mod2"

    def test_builtin_grassmannian(self, capsys):
        code, data, _ = run_json(capsys, "witten", "builtin:grassmannian", "2", "4")
        assert code == 0

    def test_file_source(self, capsys, tmp_path):
        from morsegrass.witten import circle_complex, dump_complex

        path = tmp_path / "circle.txt"
        path.write_text(dump_complex(circle_complex(3)))
        code, out, _ = run(capsys, "witten", str(path))
        assert code == 0
        assert "H_0 = Z" in out and "H_1 = Z" in out

    def test_invalid_complex_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "degrees: 0 2\ngens 0: a\ngens 1: b\ngens 2: c\nd 1:\n1\nd 2:\n1\n"
        )
        code, data, _ = run_json(capsys, "witten", str(path))
        assert code == 2
        assert data["status"] == "error"

    def test_unknown_builtin(self, capsys):
        code, _, _ = run_json(capsys, "witten", "builtin:sphere", "2")
        assert code == 2

    @pytest.mark.parametrize("params", [
        ["builtin:torus", "5"],
        ["builtin:rp", "3", "4"],
        ["builtin:rp"],
        ["builtin:grassmannian", "2"],
        ["circle.txt", "3"],
        ["builtin:rp", "3", "integers", "mod2"],
        ["builtin:torus", "mod2", "integers"],
        ["circle.txt", "integers", "mod2"],
    ])
    def test_parameter_count_is_checked(self, capsys, tmp_path, monkeypatch, params):
        from morsegrass.witten import circle_complex, dump_complex

        (tmp_path / "circle.txt").write_text(dump_complex(circle_complex(3)))
        monkeypatch.chdir(tmp_path)
        code, data, _ = run_json(capsys, "witten", *params)
        assert code == 2
        assert data["code"] == "usage"

    def test_parameters_then_mode(self, capsys):
        code, data, _ = run_json(capsys, "witten", "builtin:grassmannian", "2", "4", "mod2")
        assert code == 0
        assert data["payload"]["homology"]["mode"] == "mod2"
        code, data, _ = run_json(capsys, "witten", "builtin:torus", "integers")
        assert code == 0
        assert data["payload"]["homology"]["ranks"] == {"0": 1, "1": 2, "2": 1}

    def test_dense_40x40_file(self, tmp_path):
        from morsegrass.witten import WittenComplex, dump_complex

        rng = random.Random(40)
        m = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)]
        c = WittenComplex(
            generators={0: [f"a{j}" for j in range(40)], 1: [f"b{j}" for j in range(40)]},
            boundaries={1: m},
        )
        path = tmp_path / "dense40.txt"
        path.write_text(dump_complex(c))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "morsegrass.cli", "--json", "witten", str(path)],
            capture_output=True, env=child_env(), timeout=60,
        )
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 0, proc.stderr
        h = json.loads(proc.stdout)["payload"]["homology"]
        det = bareiss_det(m)
        assert det != 0
        assert h["ranks"] == {"0": 0, "1": 0}
        assert h["torsion"]["1"] == []
        assert math.prod(h["torsion"]["0"]) == abs(det)


class TestCup:
    def test_square_of_z24(self, capsys):
        code, data, _ = run_json(capsys, "cup", "2", "4", "(2,4)", "(2,4)")
        assert code == 0
        assert data["payload"]["product"] == {"(1,4)": 1, "(2,3)": 1}

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "cup", "2", "4", "(2,4)", "(2,4)")
        assert code == 0
        assert "z(1,4) + z(2,3)" in out

    def test_bad_symbol(self, capsys):
        code, _, _ = run_json(capsys, "cup", "2", "4", "(4,5)")
        assert code == 2

    @pytest.mark.parametrize("argv,text,json_text", [
        (["3", "6", "(2,4,6)", "(1,4,6)", "(2,3,6)"], "z(2,4,6)z(1,4,6)z(2,3,6) = 0\n",
         '{\n  "status": "ok",\n  "payload": {\n    "product": {}\n  }\n}\n'),
        (["2", "5", "(2,5)", "(3,5)", "(3,5)"], "z(2,5)z(3,5)z(3,5) = 2z(1,4) + z(2,3)\n",
         '{\n  "status": "ok",\n  "payload": {\n    "product": {\n      "(1,4)": 2,\n      "(2,3)": 1\n    }\n  }\n}\n'),
    ], ids=["gr36-zero", "gr25-two-terms"])
    def test_output_pinned(self, capsys, argv, text, json_text):
        # byte-exact: a product that leaves the box, and one whose terms and their order come from two products
        assert run(capsys, "cup", *argv) == (0, text, "")
        assert run(capsys, "--json", "cup", *argv) == (0, json_text, "")

    @pytest.mark.parametrize("command", [["cup", "2", "4"], ["polytope", "2", "4"]], ids=["cup", "polytope"])
    @pytest.mark.parametrize("text", ["(2,,4)", "(2,4,)", "((2,4))", "(+2,4)", "(2_4)", "(2, 4)", "(2,4", "2,4)",
                                      "(,)", ",", "(-1,4)", "(\uff12,4)", "(2.0,4)"])
    def test_malformed_symbol_is_a_usage_error(self, capsys, command, text):
        # these were read as (2,4), or (2_4) as 24, by stripping parentheses and empty items and calling int()
        message = f"malformed symbol {text!r}: expected decimal entries separated by single commas, as (2,4)"
        assert run(capsys, *command, text) == (2, "", f"error (usage): {message}\n")
        assert run_json(capsys, *command, text) == (2, {"status": "error", "code": "usage", "diagnostics": message}, "")

    @pytest.mark.parametrize("argv,same_as", [
        (["cup", "2", "4", "2,4", "(2,4)"], ["cup", "2", "4", "(2,4)", "(2,4)"]),
        (["cup", "0", "3", "", "()"], ["cup", "0", "3", "()", "()"]),
        (["cup", "3", "6", "(02,4,06)"], ["cup", "3", "6", "(2,4,6)"]),
        (["polytope", "2", "4", "2,4"], ["polytope", "2", "4", "(2,4)"]),
    ], ids=["bare", "empty", "leading-zeros", "polytope-bare"])
    def test_well_formed_spellings(self, capsys, argv, same_as):
        # one optional pair of parentheses, and nothing or () for k = 0; leading zeros are decimal
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, *flags, *same_as)
            assert (code, err) == (0, "") and run(capsys, *flags, *argv) == (0, out, "")


class TestPolytope:
    def test_octahedron(self, capsys):
        code, data, _ = run_json(capsys, "polytope", "2", "4")
        assert code == 0
        assert data["payload"]["f_vector"] == [6, 12, 8, 1]

    def test_schubert_subpolytope(self, capsys):
        code, data, _ = run_json(capsys, "polytope", "2", "4", "(2,4)")
        assert code == 0
        assert len(data["payload"]["polytope"]["vertices"]) == 5

    @pytest.mark.parametrize("argv,zero_columns", [
        (["2", "4"], 0), (["1", "2"], 1), (["2", "4", "(1,2)"], 3), (["0", "3"], 3), (["0", "0"], 3),
    ])
    def test_plot_data(self, capsys, tmp_path, argv, zero_columns):
        # the projection keeps the vertices' distances; directions that fewer than 3 vertices or coordinates lack
        # are written as zero columns (these were rows of 2, [[0.0]] and [[]])
        out_path = tmp_path / "coords.json"
        code, data, _ = run_json(capsys, "polytope", *argv, "--plot-data", str(out_path))
        listed = data["payload"]["polytope"]["vertices"]
        vertices = np.array(listed, dtype=float).reshape(len(listed), int(argv[1]))
        coords = np.array(json.loads(out_path.read_text()))
        assert code == 0 and coords.shape == (len(vertices), 3)
        assert np.allclose(coords.sum(axis=0), 0, atol=1e-12)
        distances = np.linalg.norm(vertices[:, None] - vertices[None], axis=-1)
        assert np.allclose(np.linalg.norm(coords[:, None] - coords[None], axis=-1), distances, atol=1e-12)
        assert (coords[:, 3 - zero_columns:] == 0.0).all()

    def test_capacity_exit(self, capsys):
        code, data, _ = run_json(capsys, "polytope", "3", "9")
        assert code == 2
        assert data["code"] == "capacity"

    def test_hypersimplex_4_8_within_budget(self, capsys):
        # 70 vertices, over the former 64-vertex cap; its face lattice fits the budget
        code, data, _ = run_json(capsys, "polytope", "4", "8")
        assert code == 0
        assert data["payload"]["f_vector"] == [70, 560, 1120, 980, 448, 112, 16, 1]

    def test_hypersimplex_3_7_within_bound(self, capsys):
        start = time.perf_counter()
        code, data, _ = run_json(capsys, "polytope", "3", "7")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert data["payload"]["f_vector"] == [35, 210, 350, 245, 84, 14, 1]


class TestModuliDim:
    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({
            "vertices": ["v"],
            "edges": [["v", None, "incoming"], ["v", None, "outgoing"]],
            "incoming_indices": [5],
            "outgoing_indices": [2],
            "dim_m": 8,
        }))
        code, data, _ = run_json(capsys, "moduli-dim", str(path))
        assert code == 0
        assert data["payload"]["dimension"] == 3
        assert data["payload"]["first_betti"] == 0

    def test_bad_file(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text("{}")
        code, _, _ = run_json(capsys, "moduli-dim", str(path))
        assert code == 2


class TestUsageExit:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestCapacity:
    @pytest.mark.parametrize("argv", [
        ["cells", "300", "600"],
        ["polytope", "20", "40"],
        ["poincare", "300", "600"],
        ["cup", "10", "20", "(1,2,3,4,5,6,7,8,9,10)", "(1,2,3,4,5,6,7,8,9,11)"],
        ["witten", "builtin:grassmannian", "10", "20"],
        ["cells", "1000000000", "2000000000"],
        ["witten", "builtin:circle", "1000000"],
        ["witten", "builtin:rp", "1000000"],
        ["poincare", "300", "600", "closed"],
        ["poincare", "300", "600", "recurrence"],
        ["poincare", "1", "100000"],
        ["polytope", "3", "9"],
        ["polytope", "5", "10"],
        ["cells", "6", "22"],
        ["cells", "2", "447"],
        ["poincare", "1499", "1500", "cells"],
        ["polytope", "2", "447"],
    ])
    def test_refused_before_enumeration(self, capsys, argv):
        # each of these used to run until killed, or was refused by a rule of its own:
        # most enumerated C(n, k) symbols, the poincare routes without cells built huge
        # polynomials, the polytopes' face lattices exceed the facet intersection budget,
        # cells 6 22 and 2 447 have few enough cells but C(n, k) * n condition entries over
        # it, the cells route of poincare 1499 1500 built 1500 symbols of 1499 entries, and
        # polytope 2 447 listed all 99 681 vertices of 447 coordinates before its faces
        start = time.perf_counter()
        code, data, _ = run_json(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert data["code"] == "capacity"
        assert "MAX_SYMBOLS" in data["diagnostics"]

    def test_degree_gap_refused(self, capsys, tmp_path):
        # homology used to walk all three million empty degrees
        path = tmp_path / "gap.txt"
        path.write_text("degrees: 0 3000000\ngens 0: a\ngens 3000000: b\n")
        start = time.perf_counter()
        code, data, _ = run_json(capsys, "witten", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert data["code"] == "capacity"
        assert "MAX_SYMBOLS" in data["diagnostics"]

    def test_text_mode_names_the_code(self, capsys):
        code, out, err = run(capsys, "cells", "300", "600")
        assert code == 2 and out == ""
        assert err.startswith("error (capacity): ")


class TestOnePrinter:
    def test_main_alone_prints_and_picks_the_exit_code(self):
        # each cmd_* returns (payload, text); _print is the one printer, main its one caller and _ERRORS the one
        # table of exit codes, so no command prints or names an exit code
        import ast

        import morsegrass.cli

        tree = ast.parse(Path(morsegrass.cli.__file__).read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

        def calls(function):
            return {ast.unparse(node.func) for node in ast.walk(function) if isinstance(node, ast.Call)}

        assert {f.name for f in functions if calls(f) & {"print", "json.dump"}} == {"_print"}
        assert {f.name for f in functions if "_print" in calls(f)} == {"main"}
        commands = [f for f in functions if f.name.startswith("cmd_")]
        assert len(commands) == 8
        assert not [(f.name, node.id) for f in commands for node in ast.walk(f)
                    if isinstance(node, ast.Name) and node.id.startswith("EXIT_")]


class TestBrokenPipe:
    def test_closed_stdout_exits_zero_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "morsegrass.cli", "cells", "4", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        proc.stdout.close()  # the reader goes away before anything is written
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    @pytest.mark.parametrize("argv,code", [
        (["--json", "cells", "2", "3"], 0),
        # the refusal was printed outside the guarded flush, so the exit flush failed with a BrokenPipeError
        (["--json", "cells", "300", "600"], 2),
    ])
    def test_closed_pipe_keeps_the_exit_code(self, argv, code):
        read, write = os.pipe()
        os.close(read)  # a pipe whose reader is gone before the child writes
        try:
            proc = subprocess.run([sys.executable, "-m", "morsegrass.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, env=child_env(), timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (code, b"")


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ["flow", "{p}", "2,1", "1.0"],
        ["limit", "{p}", "2,1", "down"],
    ])
    def test_frame_that_is_not_rows_of_pairs(self, capsys, tmp_path, argv):
        path = tmp_path / "p.json"
        path.write_text("[1, 2]")
        code, data, _ = run_json(capsys, *[a.format(p=path) for a in argv])
        assert code == 2
        assert data["code"] == "usage"
        assert "[re, im]" in data["diagnostics"]

    @pytest.mark.parametrize("doc", [[], {"vertices": 5, "edges": [], "dim_m": 3}])
    def test_graph_of_the_wrong_shape(self, capsys, tmp_path, doc):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, data, _ = run_json(capsys, "moduli-dim", str(path))
        assert code == 2
        assert data["code"] == "usage"

    @pytest.mark.parametrize("doc,value", [
        pytest.param({"vertices": ["v"], "edges": [["v", None, "incoming"]] * 3,
                      "incoming_indices": [2.5, 2.9, 0.7], "dim_m": 4.9},
                     "a Morse index of type float is not an integer", id="doc0-2.5"),
        ({"vertices": "vw", "edges": [["v", "w", "internal"]], "dim_m": 4}, "'vw'"),
        ({"vertices": ["v", "v"], "edges": [["v", None, "incoming"]],
          "incoming_indices": [2], "dim_m": 4}, "names vertex 'v' more than once"),
        ({"vertices": ["v"], "edges": [], "dim_m": -4}, "a dim_m must be at least 0, got -4"),
    ])
    def test_graph_numbers_and_vertices_are_kept(self, capsys, tmp_path, doc, value):
        # these printed "moduli dimension: -4", read "vw" as {'v', 'w'} and ["v", "v"] as one
        # vertex ("moduli dimension: 2"), with exit 0
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, data, _ = run_json(capsys, "moduli-dim", str(path))
        assert code == 2
        assert data["code"] == "usage"
        assert value in data["diagnostics"]

    def test_repeated_complex_lines(self, capsys, tmp_path):
        # the second block replaced d_1 = [1] and gave H_1 = Z with exit 0
        path = tmp_path / "twice.txt"
        path.write_text("degrees: 0 1\ngens 0: a\ngens 1: x\nd 1:\n1\nd 1:\n0\n")
        code, data, _ = run_json(capsys, "witten", str(path))
        assert code == 2
        assert data["code"] == "usage"
        assert "line 6: repeated 'd 1:' line" in data["diagnostics"]

    def test_repeated_generator_name(self, capsys, tmp_path):
        # this printed H_0 = Z, H_1 = 0 with exit 0
        path = tmp_path / "twice.txt"
        path.write_text("degrees: 0 1\ngens 0: a a\ngens 1: x\nd 1:\n1\n1\n")
        code, data, _ = run_json(capsys, "witten", str(path))
        assert code == 2
        assert data["code"] == "usage"
        assert "generator name 'a' is used more than once" in data["diagnostics"]

    def test_end_labels_of_the_wrong_shape(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": ["v"], "edges": [], "dim_m": None}))
        code, data, _ = run_json(capsys, "moduli-dim", str(path))
        assert code == 2
        assert data["code"] == "usage"

    @pytest.mark.parametrize("argv", [["limit", "{p}", "2,1", "down"], ["flow", "{p}", "2,1", "1.0"]])
    def test_bool_in_a_frame_pair(self, capsys, tmp_path, argv):
        # a JSON true was read as 1: limit answered (1) with exit 0
        path = tmp_path / "b.json"
        path.write_text("[[[true, false]], [[0, 0]]]")
        code, data, err = run_json(capsys, *[a.format(p=path) for a in argv])
        assert (code, data["code"]) == (2, "usage") and "Traceback" not in err
        assert data["diagnostics"] == "a frame entry of type bool is not a real number"

    def test_ragged_frame(self, capsys, tmp_path):
        # this printed numpy's "setting an array element with a sequence"
        path = tmp_path / "ragged.json"
        path.write_text("[[[1, 0]], [[0, 1], [1, 1]]]")
        code, data, err = run_json(capsys, "limit", str(path), "2,1", "down")
        assert (code, data["code"]) == (2, "usage") and "Traceback" not in err
        assert data["diagnostics"] == "a frame must have rows of one length"

    def test_nan_frame(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text("[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]]")
        code, data, _ = run_json(capsys, "flow", str(path), "3,2,1", "1.0")
        assert code == 2
        assert "finite" in data["diagnostics"]

    @pytest.mark.parametrize("spectrum,t", [("3,2,1", "inf"), ("3,2,1", "nan"), ("nan,2,1", "1.0")])
    def test_non_finite_time_or_spectrum(self, capsys, tmp_path, spectrum, t):
        path = write_point(tmp_path, [[1, 0], [0, 1], [0, 0]])
        code, data, _ = run_json(capsys, "flow", path, spectrum, t)
        assert code == 2
        assert "finite" in data["diagnostics"]

    def test_unknown_builtin_names_it(self, capsys):
        code, data, _ = run_json(capsys, "witten", "builtin:sphere", "2")
        assert code == 2
        assert "sphere" in data["diagnostics"]

    def test_dd_failure_names_the_degrees(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("degrees: 0 2\ngens 0: a\ngens 1: b\ngens 2: c\nd 1:\n1\nd 2:\n1\n")
        code, data, _ = run_json(capsys, "witten", str(path))
        assert code == 2
        assert "between degrees 2 and 0" in data["diagnostics"]

    def test_cup_symbol_of_another_grassmannian(self, capsys):
        # the symbols used to be read in Gr(2, 3) whatever k said
        code, data, _ = run_json(capsys, "cup", "5", "3", "(1,2)")
        assert code == 2
        assert "expected 5" in data["diagnostics"]


# Runs main(argv) in a fresh interpreter; the last stderr line reports whether
# numpy was imported, the exit code and the morsegrass modules that were loaded.
PROBE = """
import sys
from morsegrass.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
modules = sorted(m for m in sys.modules if m.split(".")[0] == "morsegrass")
introspection = ",".join(m for m in ("dataclasses", "inspect") if m in sys.modules) or "none"
print("numpy" in sys.modules, code, introspection, *modules, file=sys.stderr)
"""


def probe(tmp_path, *argv):
    """(numpy loaded, exit code, sorted loaded morsegrass modules, loaded of dataclasses and inspect) of ``main(argv)``.

    Runs in a fresh process; the last is "none" when neither module loaded, else their names joined by commas.
    """
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    numpy_loaded, code, introspection, *modules = proc.stderr.splitlines()[-1].split()
    return numpy_loaded == "True", int(code), modules, introspection


POLYTOPE_MODULES = ["morsegrass", "morsegrass.cli", "morsegrass.polytopes", "morsegrass.symbols"]


class TestLazyLoading:
    def test_import_loads_no_submodule(self):
        code = ("import sys, morsegrass\n"
                "print(sorted(m for m in sys.modules if m.startswith(('morsegrass', 'numpy'))))")
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.strip() == "['morsegrass']"

    @pytest.mark.parametrize("argv", [
        ["cells", "2", "4"],
        ["poincare", "2", "5"],
        ["cup", "2", "4", "(2,4)", "(2,4)"],
        ["witten", "builtin:grassmannian", "2", "4"],
        ["witten", "circle.txt", "mod2"],
        ["moduli-dim", "graph.json"],
        ["polytope", "3", "6", "(2,4,6)"],
        ["polytope", "2", "4"],
    ])
    def test_exact_subcommands_run_without_numpy(self, tmp_path, argv):
        from morsegrass.witten import circle_complex, dump_complex

        (tmp_path / "circle.txt").write_text(dump_complex(circle_complex(3)))
        (tmp_path / "graph.json").write_text(json.dumps(
            {"vertices": ["v"], "edges": [["v", None, "incoming"]], "incoming_indices": [2], "dim_m": 4}))
        numpy_loaded, code, _, introspection = probe(tmp_path, *argv)
        assert (numpy_loaded, code, introspection) == (False, 0, "none")

    def test_cells_loads_no_number_tower(self):
        # symbols.reals imports numbers only for values other than ints and finite floats
        code = ("import sys\n"
                "from morsegrass.cli import main\n"
                "assert main(['cells', '2', '4']) == 0\n"
                "print([m for m in ('numbers', 'fractions', 'decimal') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("argv", [
        ["polytope", "3", "9"],
        ["polytope", "2", "4", "(1,2,3)"],
        ["flow", "missing.json", "4,3,2,1", "1.0"],
    ])
    def test_refusals_run_without_numpy(self, tmp_path, argv):
        numpy_loaded, code, _, introspection = probe(tmp_path, *argv)
        assert (numpy_loaded, code, introspection) == (False, 2, "none")

    @pytest.mark.parametrize("argv", [["polytope", "3", "6", "(2,4,6)"], ["polytope", "3", "9"]])
    def test_polytope_loads_only_its_modules(self, tmp_path, argv):
        # a module-level import added to polytopes or cli shows up here by name
        assert probe(tmp_path, *argv)[2] == POLYTOPE_MODULES

    def test_usage_error_runs_without_numpy(self, tmp_path):
        numpy_loaded, code, _, introspection = probe(tmp_path, "cells", "two", "4")
        assert (numpy_loaded, code, introspection) == (False, 2, "none")

    def test_tol_nan_is_a_usage_error_before_flows_loads(self, tmp_path):
        assert probe(tmp_path, "--tol", "nan", "limit", "p.json", "4,3,2,1", "down")[:2] == (False, 2)

    def test_ambiguous_cell_exit_code_in_a_fresh_process(self, tmp_path):
        write_point(tmp_path, [[1, 0], [5e-7, 0], [0, 1], [0, 5e-7]], "p.json")
        assert probe(tmp_path, "--tol", "1e-6", "limit", "p.json", "4,3,2,1", "down")[:2] == (True, 4)

    def test_polytopes_loads_numpy_only_for_floats(self):
        code = ("import sys\n"
                "from morsegrass import polytopes\n"
                "P = polytopes.grassmannian_polytope(2, 4)\n"
                "assert polytopes.face_counts(P) == (6, 12, 8, 1) and polytopes.membership((1, 1, 0, 0), P)\n"
                "assert 'numpy' not in sys.modules and 'morsegrass.flows' not in sys.modules\n"
                "from morsegrass import flows\n"
                "mu = polytopes.moment_map(flows.GrassmannPoint([[1, 0], [0, 0], [0, 1], [0, 0]]))\n"
                "assert mu.coords == (1.0, 0.0, 1.0, 0.0) and polytopes.membership(mu, P)\n"
                "assert polytopes.flow is flows.flow and polytopes.projector is flows.projector\n"
                "assert 'flow' not in vars(polytopes) and 'projector' not in vars(polytopes)\n"
                "try:\n"
                "    polytopes.nope\n"
                "except AttributeError as exc:\n"
                "    assert 'nope' in str(exc)\n"
                "else:\n"
                "    raise AssertionError('polytopes.nope resolved')\n")
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=60)

    def test_submodule_resolves_after_bare_import(self):
        code = ("import sys, morsegrass\n"
                "assert 'numpy' not in sys.modules\n"
                "assert morsegrass.flows.flow is morsegrass.flow\n"
                "assert 'numpy' in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=60)


class TestPackageExports:
    def test_every_export_is_the_owning_modules_object(self):
        import importlib

        import morsegrass

        for module, names in morsegrass._EXPORTS.items():
            owner = importlib.import_module(f"morsegrass.{module}")
            assert getattr(morsegrass, module) is owner
            for name in names:
                assert getattr(morsegrass, name) is getattr(owner, name), name

    def test_dir_and_star_import(self):
        import morsegrass

        assert set(dir(morsegrass)) >= set(morsegrass.__all__) | set(morsegrass._EXPORTS)
        namespace = {}
        exec("from morsegrass import *", namespace)
        assert set(morsegrass.__all__) <= set(namespace)
        assert namespace["limit_symbol"] is morsegrass.flows.limit_symbol

    def test_unknown_name(self):
        import morsegrass

        with pytest.raises(AttributeError, match="nope"):
            morsegrass.nope
        assert not hasattr(morsegrass, "nope")

    def test_moved_names_are_shared(self):
        from morsegrass import flows, polytopes, symbols

        assert flows.AmbiguousCellError is symbols.AmbiguousCellError
        assert flows.tolerance is symbols.tolerance is polytopes.tolerance
        assert flows.DEFAULT_TOL == symbols.DEFAULT_TOL == 1e-9

    @pytest.mark.parametrize("module,name", [
        ("ring", "PartitionShape"), ("ring", "symbol_to_partition"), ("ring", "partition_to_symbol"),
        ("witten", "validate_complex"), ("polynomials", "partition_count"), ("symbols", "ndcm_shape"),
        ("polytopes", "CapacityError"), ("witten", "MAX_SYMBOLS"), ("polynomials", "_price_updates"),
    ])
    def test_removed_names(self, module, name):
        # second copies of what the package already does: ring._parts, the checks WittenComplex runs when it is
        # built, gaussian_generating's coefficients, zip(c.counts, c.blocks), and symbols' own names
        import importlib

        import morsegrass

        assert not hasattr(importlib.import_module(f"morsegrass.{module}"), name)
        if name not in ("CapacityError", "MAX_SYMBOLS"):  # both are still exported, from symbols
            with pytest.raises(AttributeError, match=name):
                getattr(morsegrass, name)
            assert name not in dir(morsegrass) and name not in morsegrass.__all__

    def test_general_division_removed(self):
        # Q of the Morse inequalities comes from the alternating sums of M - P, the one division the library needs
        from morsegrass.polynomials import IntPolynomial

        assert not hasattr(IntPolynomial, "divide_exact")

    def test_every_import_is_used(self):
        # each name a module of the package imports is read in that module; ring imports enumerate_symbols unused
        # because bench/selftest.py checks that its tracer wraps ring.enumerate_symbols
        import ast

        import morsegrass

        unused = []
        for path in sorted(Path(morsegrass.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [
                (path.name, bound)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names
                if (bound := (alias.asname or alias.name).split(".")[0]) not in read
            ]
        assert unused == [("ring.py", "enumerate_symbols")]
