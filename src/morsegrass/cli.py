"""Command-line interface.

Subcommand-per-module layout; each ``cmd_*`` returns its answer as (JSON
payload, text) and prints nothing.  ``main`` is the one place that prints an
outcome, answer or error, and the one place that maps an exception to its
exit code, the consistency error of exit 3 included, by the ``_ERRORS``
table.  ``--json`` switches every outcome from pretty text to
machine-readable JSON.  The default tolerance comes from ``--tol`` or the
MORSEGRASS_TOL environment variable.  Errors carry an error code, reported
as "code" in JSON and as "error (<code>): ..." on stderr in text mode:

  0  success (a reader that closes stdout early changes no exit code)
  2  usage: bad arguments or input files
  2  capacity: a cost over the one work budget MAX_SYMBOLS = 100000, stated
     before the work in each engine's unit: Schubert cells, cells-table
     condition entries, Witten degrees, builtin circle/rp entries,
     thousands of poincare coefficient updates, polytope vertex
     coordinates and facet intersections, or, counted as a cup product
     runs, the parts, strip prefixes and rows of its LR engine
  3  consistency: the three Poincare polynomial routes disagree
  4  ambiguous-cell: a point too close to a cell boundary to classify

Each subcommand imports only the modules it uses.  cells, poincare, witten,
cup, moduli-dim and polytope (but not --plot-data) run without numpy,
dataclasses or inspect, as do usage errors; flow and limit import numpy
(which loads inspect) through flows after reading input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import symbols

if TYPE_CHECKING:
    from . import flows, polytopes

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONSISTENCY = 3
EXIT_AMBIGUOUS = 4


class ConsistencyError(Exception):
    """Routes that must give the same answer gave different ones."""


def _print(args, document: dict, text: str = "") -> None:
    """Print one outcome: with --json its document on stdout; otherwise an answer's text on stdout, or an error's
    "error (<code>): <diagnostics>" on stderr.  Streams are looked up at call time, so redirections see them."""
    if args.json:
        json.dump(document, sys.stdout, indent=2)
        print()
    elif document["status"] == "ok":
        print(text)
    else:
        print(f"error ({document['code']}): {document['diagnostics']}", file=sys.stderr)


def _parse_symbol(text: str, k: int, n: int) -> symbols.SchubertSymbol:
    """The symbol of Gr(k, n) written as ASCII decimal entries separated by single commas, in at most one pair of
    parentheses ("()" or "" for k = 0); ValueError naming the text for any other spelling."""
    inner = text[1:-1] if text[:1] == "(" and text[-1:] == ")" else text
    items = inner.split(",") if inner else []
    if not all(x.isascii() and x.isdigit() for x in items):
        raise ValueError(f"malformed symbol {text!r}: expected decimal entries separated by single commas, as (2,4)")
    entries = tuple(map(int, items))
    u = symbols.SchubertSymbol(entries, n)
    if u.k != k:
        raise ValueError(f"symbol {u} has k={u.k}, expected {k}")
    return u


def _frame_and_spectrum(args) -> tuple[flows.GrassmannPoint, flows.HeightSpectrum]:
    # a missing or malformed file and a non-numeric spectrum are refused before numpy loads
    with open(args.matrix) as fh:
        data = json.load(fh)
    spectrum = tuple(float(x) for x in args.spectrum.split(","))
    from . import flows

    return flows.GrassmannPoint.from_json(data), flows.HeightSpectrum(spectrum)


def cmd_cells(args) -> tuple[dict, str]:
    k, n = args.k, args.n
    # each cell prints n condition entries
    symbols.check_budget(symbols.cell_count(k, n) * n, f"Schubert condition entries of Gr({k},{n}), C({n},{k})*{n}")
    rows = []
    for u in symbols.enumerate_symbols(k, n):
        rows.append(
            {
                "symbol": str(u),
                "dim": symbols.cell_dimension(u),
                "index_minus_f": symbols.critical_index(u, "for_minus_f"),
                "index_f": symbols.critical_index(u, "for_f"),
                "conditions": list(symbols.schubert_conditions(u)),
            }
        )
    lines = [f"{'symbol':<10}{'dim':>4}{'idx(-f)':>9}{'idx(f)':>8}  conditions"]
    for r in rows:
        lines.append(
            f"{r['symbol']:<10}{r['dim']:>4}{r['index_minus_f']:>9}{r['index_f']:>8}  "
            + ",".join(str(v) for v in r["conditions"])
        )
    return {"cells": rows}, "\n".join(lines)


def cmd_poincare(args) -> tuple[dict, str]:
    from . import polynomials

    routes = {"cells": polynomials.morse_polynomial_by_cells, "recurrence": polynomials.poincare_recurrence,
              "closed": polynomials.poincare_closed}
    results = dict.fromkeys(routes if args.method == "all" else [args.method])
    # cells runs last: the other routes refuse on arithmetic alone, before any cell is built
    for name in sorted(results, key="cells".__eq__):
        results[name] = routes[name](args.k, args.n)
    if args.method == "all" and len(set(results.values())) != 1:
        raise ConsistencyError("the three Poincare polynomial routes disagree: "
                               + "; ".join(f"{k0}: {v}" for k0, v in results.items()))
    payload = {name: p.to_json() for name, p in results.items()}
    if args.method == "all":
        payload["agreement"] = True
    poly = next(iter(results.values()))
    return payload, str(poly) + ("   (agreement=true)" if args.method == "all" else "")


def cmd_flow(args) -> tuple[dict, str]:
    V, a = _frame_and_spectrum(args)
    from . import flows, polytopes

    W = flows.flow(V, a, args.t)
    mu = polytopes.moment_map(W)
    payload = {
        "matrix": W.to_json(),
        "height": flows.height_value(W, a),
        "moment": mu.to_json(),
    }
    return payload, f"height={payload['height']:.6g}\nmoment={mu.to_json()}"


def cmd_limit(args) -> tuple[dict, str]:
    V, a = _frame_and_spectrum(args)
    from . import flows, polytopes

    u = flows.limit_symbol(V, args.direction, tol=args.tol, a=a)
    trace = polytopes.flow_moment_trace(V, a, [0.0, 1.0, 2.0, 4.0])
    payload = {
        "symbol": u.to_json(),
        "moment_trace": [p.to_json() for p in trace],
    }
    return payload, f"limit symbol: {u}"


def cmd_witten(args) -> tuple[dict, str]:
    from . import witten

    # builtin -> (builder, number of integer parameters); a file takes none
    builtins = {"circle": (witten.circle_complex, 1), "rp": (witten.rp_complex, 1),
                "torus": (witten.torus_complex, 0), "grassmannian": (witten.grassmannian_complex, 2)}
    params = list(args.params)
    mode = params.pop() if params[-1:] in (["integers"], ["mod2"]) else "integers"
    builtin = args.source.startswith("builtin:")
    name = args.source.removeprefix("builtin:")
    if builtin and name not in builtins:
        raise ValueError(f"unknown builtin {name!r}")
    build, arity = builtins[name] if builtin else (None, 0)
    if len(params) != arity:
        raise ValueError(f"{args.source} takes {arity} integer parameter(s) before integers|mod2, got {params}")
    if build is not None:
        c = build(*(int(p) for p in params))
    else:
        with open(args.source) as fh:
            c = witten.load_complex(fh.read())
    h = witten.homology(c, mode)
    lines = [f"H_{i} = {h.group_str(i)}" for i in h.ranks]
    return {"homology": h.to_json()}, "\n".join(lines)


def cmd_cup(args) -> tuple[dict, str]:
    from . import ring

    syms = [_parse_symbol(s, args.k, args.n) for s in args.symbols]
    out = ring.CohomologyClass.basis(syms[0])
    for u in syms[1:]:
        out = ring.cup_product(out, ring.CohomologyClass.basis(u))
    lhs = "".join(f"z{u}" for u in syms)
    return {"product": out.to_json()}, f"{lhs} = {out}"


def cmd_polytope(args) -> tuple[dict, str]:
    from . import polytopes

    if args.symbol:
        P = polytopes.schubert_polytope(_parse_symbol(args.symbol, args.k, args.n))
    else:
        P = polytopes.grassmannian_polytope(args.k, args.n)
    f = polytopes.face_counts(P)
    payload = {"polytope": P.to_json(), "f_vector": list(f)}
    text = f"vertices: {len(P.vertices)}\nf-vector: {f}"
    if args.plot_data:
        with open(args.plot_data, "w") as fh:
            fh.write(json.dumps(_octahedron_projection(P)))
        text += f"\nplot data written to {args.plot_data}"
        payload["plot_data"] = args.plot_data
    return payload, text


def _octahedron_projection(P: polytopes.VertexPolytope) -> list:
    """Vertex coordinates projected to the first three principal directions, one row of 3 per vertex: zero columns
    stand in for the directions that fewer than 3 vertices or coordinates lack."""
    import numpy as np

    verts = np.array(P.vertices, dtype=float)
    centered = verts - verts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    proj = centered @ vt[:3].T
    return np.pad(proj, ((0, 0), (0, 3 - proj.shape[1]))).tolist()


def cmd_moduli_dim(args) -> tuple[dict, str]:
    from . import graphs

    with open(args.graph) as fh:
        data = json.load(fh)
    g = graphs.FlowGraph.from_json(data)
    dim = graphs.moduli_dimension(g, graphs.LabeledEnds.from_json(data))
    payload = {"dimension": dim, "first_betti": graphs.graph_first_betti(g)}
    return payload, f"moduli dimension: {dim}"


def build_parser() -> argparse.ArgumentParser:
    # argparse reports its own usage errors with exit code 2
    parser = argparse.ArgumentParser(prog="morsegrass", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", action="store_true", help="emit JSON payloads")
    parser.add_argument(
        "--tol",
        type=symbols.tolerance,
        # a string default goes through the type at parse time, so a bad
        # MORSEGRASS_TOL is a usage error like a bad --tol
        default=os.environ.get("MORSEGRASS_TOL", symbols.DEFAULT_TOL),
        help="numerical tolerance (default 1e-9, or MORSEGRASS_TOL)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, grassmannian=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if grassmannian:
            p.add_argument("k", type=int)
            p.add_argument("n", type=int)
        return p

    command("cells", cmd_cells, "Schubert cell table of Gr_k(C^n)", grassmannian=True)

    p = command("poincare", cmd_poincare, "Poincare polynomial of Gr_k(C^n)", grassmannian=True)
    p.add_argument("method", nargs="?", default="all",
                   choices=["cells", "recurrence", "closed", "all"])

    p = command("flow", cmd_flow, "evolve a frame along the gradient flow")
    p.add_argument("matrix", help="JSON matrix file ([[re,im],...] rows)")
    p.add_argument("spectrum", help="comma-separated a_1,...,a_n")
    p.add_argument("t", type=float)

    p = command("limit", cmd_limit, "classify the limiting Schubert cell")
    p.add_argument("matrix")
    p.add_argument("spectrum")
    p.add_argument("direction", choices=["down", "up"])

    p = command("witten", cmd_witten, "homology of a Witten complex")
    p.add_argument("source", help="file path or builtin:{circle,rp,torus,grassmannian}")
    p.add_argument("params", nargs="*",
                   help="builtin parameters, optionally followed by integers|mod2")

    p = command("cup", cmd_cup, "cup product of Schubert classes", grassmannian=True)
    p.add_argument("symbols", nargs="+", help="symbols like (2,4)")

    p = command("polytope", cmd_polytope, "momentum polytope and f-vector", grassmannian=True)
    p.add_argument("symbol", nargs="?", default=None)
    p.add_argument("--plot-data", default=None, help="write projected 3-d vertex coordinates")

    p = command("moduli-dim", cmd_moduli_dim, "expected dimension of graph-flow moduli")
    p.add_argument("graph", help="JSON graph file with end labels and dim_m")

    return parser


# exception types -> (exit code, error code), first match wins: subclasses before
# bases.  ValueError covers JSONDecodeError, ComplexValidationError,
# DegenerateInputError and numpy's LinAlgError.
_ERRORS = (
    (symbols.CapacityError, EXIT_USAGE, "capacity"),
    (symbols.AmbiguousCellError, EXIT_AMBIGUOUS, "ambiguous-cell"),
    (ConsistencyError, EXIT_CONSISTENCY, "consistency"),
    ((OSError, ValueError, KeyError, IndexError), EXIT_USAGE, "usage"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text = args.func(args)
        document, code = {"status": "ok", "payload": payload}, EXIT_OK
    except Exception as exc:
        for kinds, code, error_code in _ERRORS:
            if isinstance(exc, kinds):
                document, text = {"status": "error", "code": error_code, "diagnostics": str(exc)}, ""
                break
        else:
            raise
    try:
        _print(args, document, text)
        sys.stdout.flush()  # a reader that closed early shows up here, not at exit
    except BrokenPipeError:
        # nobody reads stdout any more: send the interpreter's final flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
