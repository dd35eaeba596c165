"""Command-line interface.

Subcommand-per-module layout; ``--json`` switches every command from pretty
text to machine-readable JSON.  Exit codes: 0 ok, 2 usage error, 3 internal
consistency failure, 4 numerical ambiguity.  The default tolerance comes
from ``--tol`` or the MORSEGRASS_TOL environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import flows, graphs, polynomials, polytopes, ring, symbols, witten

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONSISTENCY = 3
EXIT_AMBIGUOUS = 4


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _emit(args, payload: dict, text: str) -> int:
    if args.json:
        json.dump({"status": "ok", "payload": payload}, sys.stdout, indent=2)
        print()
    else:
        print(text)
    return EXIT_OK


def _fail(args, code: int, error_code: str, message: str) -> int:
    if args.json:
        json.dump(
            {"status": "error", "code": error_code, "diagnostics": message},
            sys.stdout,
            indent=2,
        )
        print()
    else:
        print(f"error ({error_code}): {message}", file=sys.stderr)
    return code


def _parse_symbol(text: str, n: int) -> symbols.SchubertSymbol:
    entries = tuple(int(x) for x in text.strip("()").split(",") if x)
    return symbols.SchubertSymbol(entries, n)


def _load_matrix(path: str) -> flows.GrassmannPoint:
    with open(path) as fh:
        return flows.GrassmannPoint.from_json(json.load(fh))


def _spectrum(text: str) -> flows.HeightSpectrum:
    return flows.HeightSpectrum(tuple(float(x) for x in text.split(",")))


def cmd_cells(args) -> int:
    try:
        syms = symbols.enumerate_symbols(args.k, args.n)
    except ValueError as exc:
        return _fail(args, EXIT_USAGE, "usage", str(exc))
    rows = []
    for u in syms:
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
    return _emit(args, {"cells": rows}, "\n".join(lines))


def cmd_poincare(args) -> int:
    k, n = args.k, args.n
    try:
        results = {}
        if args.method in ("cells", "all"):
            results["cells"] = polynomials.morse_polynomial_by_cells(k, n)
        if args.method in ("recurrence", "all"):
            results["recurrence"] = polynomials.poincare_recurrence(k, n)
        if args.method in ("closed", "all"):
            results["closed"] = polynomials.poincare_closed(k, n)
    except ValueError as exc:
        return _fail(args, EXIT_USAGE, "usage", str(exc))
    agreement = len(set(results.values())) == 1
    if args.method == "all" and not agreement:
        return _fail(
            args,
            EXIT_CONSISTENCY,
            "consistency",
            "the three Poincare polynomial routes disagree: "
            + "; ".join(f"{k0}: {v}" for k0, v in results.items()),
        )
    payload = {name: p.to_json() for name, p in results.items()}
    if args.method == "all":
        payload["agreement"] = True
    poly = next(iter(results.values()))
    text = str(poly) + ("   (agreement=true)" if args.method == "all" else "")
    return _emit(args, payload, text)


def cmd_flow(args) -> int:
    try:
        V = _load_matrix(args.matrix)
        a = _spectrum(args.spectrum)
        W = flows.flow(V, a, args.t)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(args, EXIT_USAGE, "usage", str(exc))
    mu = polytopes.moment_map(W)
    payload = {
        "matrix": W.to_json(),
        "height": flows.height_value(W, a),
        "moment": mu.to_json(),
    }
    return _emit(
        args,
        payload,
        f"height={payload['height']:.6g}\nmoment={mu.to_json()}",
    )


def cmd_limit(args) -> int:
    try:
        V = _load_matrix(args.matrix)
        a = _spectrum(args.spectrum)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(args, EXIT_USAGE, "usage", str(exc))
    if not a.is_strict:
        return _fail(
            args,
            EXIT_USAGE,
            "usage",
            "tied spectrum values request Morse-Bott mode: limits land on "
            "critical manifolds, not points; use a strict spectrum",
        )
    try:
        u = flows.limit_symbol(V, args.direction, tol=args.tol, a=a)
    except flows.AmbiguousCellError as exc:
        return _fail(args, EXIT_AMBIGUOUS, "ambiguous-cell", str(exc))
    trace = polytopes.flow_moment_trace(V, a, [0.0, 1.0, 2.0, 4.0])
    payload = {
        "symbol": u.to_json(),
        "moment_trace": [p.to_json() for p in trace],
    }
    return _emit(args, payload, f"limit symbol: {u}")


def cmd_witten(args) -> int:
    mode = "integers"
    params = []
    for tok in args.params:
        if tok in ("integers", "mod2"):
            mode = tok
        else:
            params.append(tok)
    try:
        if args.source.startswith("builtin:"):
            name = args.source.split(":", 1)[1]
            if name == "circle":
                c = witten.circle_complex(int(params[0]))
            elif name == "rp":
                c = witten.rp_complex(int(params[0]))
            elif name == "torus":
                c = witten.torus_complex()
            elif name == "grassmannian":
                c = witten.grassmannian_complex(int(params[0]), int(params[1]))
            else:
                return _fail(args, EXIT_USAGE, "usage", f"unknown builtin {name!r}")
        else:
            with open(args.source) as fh:
                c = witten.load_complex(fh.read())
        h = witten.homology(c, mode)  # an invalid complex raises ComplexValidationError
    except (OSError, ValueError, IndexError) as exc:
        return _fail(args, EXIT_USAGE, "usage", str(exc))
    degs = sorted(set(c.degrees) | set(h.ranks))
    lines = [f"H_{i} = {h.group_str(i)}" for i in degs]
    return _emit(args, {"homology": h.to_json()}, "\n".join(lines))


def cmd_cup(args) -> int:
    try:
        syms = [_parse_symbol(s, args.n) for s in args.symbols]
    except ValueError as exc:
        return _fail(args, EXIT_USAGE, "usage", str(exc))
    if not syms:
        return _fail(args, EXIT_USAGE, "usage", "need at least one symbol")
    try:
        out = ring.CohomologyClass.basis(syms[0])
        for u in syms[1:]:
            out = ring.cup_product(out, ring.CohomologyClass.basis(u))
    except ValueError as exc:
        return _fail(args, EXIT_USAGE, "usage", str(exc))
    lhs = "".join(f"z{u}" for u in syms)
    return _emit(args, {"product": out.to_json()}, f"{lhs} = {out}")


def cmd_polytope(args) -> int:
    try:
        if args.symbol:
            u = _parse_symbol(args.symbol, args.n)
            if u.k != args.k:
                raise ValueError(f"symbol {u} has k={u.k}, expected {args.k}")
            P = polytopes.schubert_polytope(u)
        else:
            P = polytopes.grassmannian_polytope(args.k, args.n)
        f = polytopes.face_counts(P)
    except polytopes.CapacityError as exc:
        return _fail(args, EXIT_USAGE, "capacity", str(exc))
    except ValueError as exc:
        return _fail(args, EXIT_USAGE, "usage", str(exc))
    payload = {"polytope": P.to_json(), "f_vector": list(f)}
    text = f"vertices: {len(P.vertices)}\nf-vector: {f}"
    if args.plot_data:
        coords = _octahedron_projection(P)
        with open(args.plot_data, "w") as fh:
            json.dump(coords, fh)
        text += f"\nplot data written to {args.plot_data}"
        payload["plot_data"] = args.plot_data
    return _emit(args, payload, text)


def _octahedron_projection(P: polytopes.VertexPolytope) -> list:
    """Vertex coordinates projected to the first three principal directions."""
    import numpy as np

    verts = np.array(P.vertices, dtype=float)
    centered = verts - verts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    proj = centered @ vt[:3].T
    return proj.tolist()


def cmd_moduli_dim(args) -> int:
    try:
        with open(args.graph) as fh:
            data = json.load(fh)
        g = graphs.FlowGraph.from_json(data)
        ends = graphs.LabeledEnds(
            tuple(data.get("incoming_indices", [])),
            tuple(data.get("outgoing_indices", [])),
            int(data["dim_m"]),
        )
        dim = graphs.moduli_dimension(g, ends)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return _fail(args, EXIT_USAGE, "usage", str(exc))
    payload = {"dimension": dim, "first_betti": graphs.graph_first_betti(g)}
    return _emit(args, payload, f"moduli dimension: {dim}")


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="morsegrass", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit JSON payloads")
    parser.add_argument(
        "--tol",
        type=flows.tolerance,
        # a string default goes through the type at parse time, so a bad
        # MORSEGRASS_TOL is a usage error like a bad --tol
        default=os.environ.get("MORSEGRASS_TOL", flows.DEFAULT_TOL),
        help="numerical tolerance (default 1e-9, or MORSEGRASS_TOL)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cells", help="Schubert cell table of Gr_k(C^n)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("poincare", help="Poincare polynomial of Gr_k(C^n)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("method", nargs="?", default="all",
                   choices=["cells", "recurrence", "closed", "all"])
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("flow", help="evolve a frame along the gradient flow")
    p.add_argument("matrix", help="JSON matrix file ([[re,im],...] rows)")
    p.add_argument("spectrum", help="comma-separated a_1,...,a_n")
    p.add_argument("t", type=float)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("limit", help="classify the limiting Schubert cell")
    p.add_argument("matrix")
    p.add_argument("spectrum")
    p.add_argument("direction", choices=["down", "up"])
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("witten", help="homology of a Witten complex")
    p.add_argument("source", help="file path or builtin:{circle,rp,torus,grassmannian}")
    p.add_argument("params", nargs="*",
                   help="builtin parameters, optionally followed by integers|mod2")
    p.set_defaults(func=cmd_witten)

    p = sub.add_parser("cup", help="cup product of Schubert classes")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("symbols", nargs="+", help="symbols like (2,4)")
    p.set_defaults(func=cmd_cup)

    p = sub.add_parser("polytope", help="momentum polytope and f-vector")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("symbol", nargs="?", default=None)
    p.add_argument("--plot-data", default=None, help="write projected 3-d vertex coordinates")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("moduli-dim", help="expected dimension of graph-flow moduli")
    p.add_argument("graph", help="JSON graph file with end labels and dim_m")
    p.set_defaults(func=cmd_moduli_dim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
