"""Span tracer that wraps morsegrass functions from outside the package.

``Tracer.install`` rebinds every public function found in a morsegrass
module's namespace, including names one module imports from another (such
as ``ring.enumerate_symbols`` or ``polytopes.flow``) and names called from
inside the same module (``witten.smith_normal_form`` as ``homology`` calls
it).  A span is recorded only while ``active`` is set, which the harness
does around each timed query, so oracle calls made between queries are not
traced.  Spans stay in memory; ``summary`` reduces them to per-layer self
time, counters and latency samples, and ``layer_metrics`` turns summaries
into the benchmark's per-layer metrics.

A span's layer is the module that defines the function.  Its self time is
its duration minus the durations of its child spans; time spent in counter
hooks is excluded from the parent as well.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from collections import defaultdict
from fractions import Fraction
from math import comb

# Marks the summary line a traced CLI child writes to stderr.
STATS_PREFIX = "@@bench-stats "

LAYERS = ("ring", "symbols", "witten", "polytopes", "flows", "polynomials", "graphs", "cli")

# Calls whose individual durations are kept, for medians.
SAMPLED = ("flows.flow", "flows.limit_symbol", "flows.plucker_embed")


# ------------------------------------------------------------ counter hooks

def _cup(c, args, kwargs, out, dur):
    z1, z2 = args[:2]
    pairs = len(z1.coefficients) * len(z2.coefficients)
    c["ring.basis_products"] += pairs
    c["ring.candidate_shapes"] += pairs * comb(z1.n, z1.k)
    c["ring.output_terms"] += len(out.coefficients)


def _lr(c, args, kwargs, out, dur):
    c["ring.lr_calls"] += 1
    c["ring.lr_nonzero"] += out != 0
    c["ring.lr_busy_s"] += dur


def _enumerate(c, args, kwargs, out, dur):
    c["symbols.symbols_enumerated"] += len(out)


def _snf(c, args, kwargs, out, dur):
    m = args[0]
    d = out[0]
    c["witten.snf_calls"] += 1
    c["witten.snf_busy_s"] += dur
    c["witten.snf_cells"] += len(m) * (len(m[0]) if m else 0)
    bits = max((abs(d[t][t]).bit_length() for t in range(min(len(d), len(d[0]) if d else 0))), default=0)
    c["witten.divisor_bits_max"] = max(c["witten.divisor_bits_max"], bits)


def _homology(c, args, kwargs, out, dur):
    cx = args[0]
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "integers")
    c["witten.homology_busy_s"] += dur
    if mode == "mod2":
        c["witten.mod2_busy_s"] += dur
        return
    degs = cx.degrees
    if degs:
        c["witten.boundaries"] += sum(
            1 for i in range(min(degs) + 1, max(degs) + 1) if cx.boundary(i) and cx.boundary(i)[0]
        )


def _load(c, args, kwargs, out, dur):
    c["witten.parse_busy_s"] += dur
    c["witten.parse_bytes"] += len(args[0])


def _faces(c, args, kwargs, out, dur):
    nv, d = len(args[0].vertices), len(out) - 1
    c["polytopes.face_busy_s"] += dur
    c["polytopes.face_subsets"] += comb(nv, d) if d > 0 else 0
    c["polytopes.facets"] += out[d - 1] if d > 0 else 0


def _membership(c, args, kwargs, out, dur):
    x = args[0]
    coords = x.coords if hasattr(x, "coords") else tuple(x)
    exact = all(isinstance(v, (int, Fraction)) for v in coords)  # the library's own rule
    c["polytopes.membership_exact_busy_s" if exact else "polytopes.membership_float_busy_s"] += dur


def _rk4(c, args, kwargs, out, dur):
    steps = args[3] if len(args) > 3 else kwargs.get("steps", 100)
    c["flows.rk4_steps"] += steps
    c["flows.rk4_busy_s"] += dur


HOOKS = {
    "ring.cup_product": _cup,
    "ring.lr_coefficient": _lr,
    "symbols.enumerate_symbols": _enumerate,
    "witten.smith_normal_form": _snf,
    "witten.homology": _homology,
    "witten.load_complex": _load,
    "polytopes.face_counts": _faces,
    "polytopes.membership": _membership,
    "flows.integrate_flow": _rk4,
}


# ------------------------------------------------------------------- tracer

class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: list = []   # [name, layer, start, end, parent, hook_s, error]
        self.stack: list[int] = []
        self.active = False
        self.counters = defaultdict(float)
        self._saved: list = []

    def install(self):
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__.startswith("morsegrass.")):
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, self._wrap(obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        qualname = f"{layer}.{fn.__name__}"
        hook = HOOKS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(qualname, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, type(exc).__name__)
                raise
            end = tracer.close(idx)
            if hook is not None:
                hook(tracer.counters, args, kwargs, out, end - tracer.spans[idx][2])
                tracer.spans[idx][5] = time.perf_counter() - end
            return out

        return wrapper

    def open(self, name, layer) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, 0.0, None])
        self.stack.append(idx)
        return idx

    def close(self, idx, error=None) -> float:
        end = time.perf_counter()
        span = self.spans[idx]
        span[3] = end
        span[6] = error
        self.stack.pop()
        return end

    def summary(self) -> dict:
        """Self time per layer, counters and sampled durations of the spans so far."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, hook_s, _ in self.spans:
            if parent >= 0:
                child[parent] += (end - start) + hook_s
        self_s = defaultdict(float)
        calls = defaultdict(int)
        samples = defaultdict(list)
        counters = dict(self.counters)
        for (name, layer, start, end, parent, hook_s, error), inner in zip(self.spans, child):
            self_s[layer] += (end - start) - inner
            calls[layer] += 1
            if name in SAMPLED:
                samples[name].append(end - start)
            if error == "AmbiguousCellError" and name == "flows.limit_symbol":
                counters["flows.ambiguous"] = counters.get("flows.ambiguous", 0) + 1
        return {"self": dict(self_s), "calls": dict(calls), "counters": counters,
                "samples": dict(samples)}


def merge(summaries) -> dict:
    out = {"self": defaultdict(float), "calls": defaultdict(int),
           "counters": defaultdict(float), "samples": defaultdict(list)}
    for s in summaries:
        for key in ("self", "calls"):
            for name, v in s.get(key, {}).items():
                out[key][name] += v
        for name, v in s.get("counters", {}).items():
            if name.endswith("_max"):
                out["counters"][name] = max(out["counters"][name], v)
            else:
                out["counters"][name] += v
        for name, v in s.get("samples", {}).items():
            out["samples"][name].extend(v)
    return out


def _p50_us(samples, name):
    return statistics.median(samples[name]) * 1e6 if samples.get(name) else 0.0


def layer_metrics(summary, total_s: float, health: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from a merged summary.

    ``total_s`` is the wall time the shares are taken of: the summed query
    latencies of the traced phase.  Metrics of layers a workload does not
    touch are reported as 0.
    """
    self_s, calls, c, samples = (summary[k] for k in ("self", "calls", "counters", "samples"))

    def get(name):
        return float(c.get(name, 0.0))

    m = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = (self_s.get(layer, 0.0), "s")
        m[f"{layer}.self_share"] = (self_s.get(layer, 0.0) / total_s if total_s else 0.0, "ratio")
    for layer in ("polynomials", "graphs"):
        m[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    lr = get("ring.lr_calls")
    m.update({
        "ring.basis_products": (get("ring.basis_products"), "count"),
        "ring.candidate_shapes": (get("ring.candidate_shapes"), "count"),
        "ring.lr_calls": (lr, "count"),
        "ring.lr_busy_s": (get("ring.lr_busy_s"), "s"),
        "ring.output_terms": (get("ring.output_terms"), "count"),
        "ring.useful_ratio": (get("ring.lr_nonzero") / lr if lr else 0.0, "ratio"),
        "symbols.symbols_enumerated": (get("symbols.symbols_enumerated"), "count"),
        "witten.snf_calls": (get("witten.snf_calls"), "count"),
        "witten.snf_busy_s": (get("witten.snf_busy_s"), "s"),
        "witten.snf_cells": (get("witten.snf_cells"), "count"),
        "witten.snf_per_boundary": (
            get("witten.snf_calls") / get("witten.boundaries") if get("witten.boundaries") else 0.0,
            "ratio"),
        "witten.homology_busy_s": (get("witten.homology_busy_s"), "s"),
        "witten.divisor_bits_max": (get("witten.divisor_bits_max"), "bits"),
        "witten.mod2_busy_s": (get("witten.mod2_busy_s"), "s"),
        "witten.parse_busy_s": (get("witten.parse_busy_s"), "s"),
        "witten.parse_bytes": (get("witten.parse_bytes"), "bytes"),
        "polytopes.face_busy_s": (get("polytopes.face_busy_s"), "s"),
        "polytopes.face_subsets": (get("polytopes.face_subsets"), "count"),
        "polytopes.facets": (get("polytopes.facets"), "count"),
        "polytopes.useful_ratio": (
            get("polytopes.facets") / get("polytopes.face_subsets") if get("polytopes.face_subsets") else 0.0,
            "ratio"),
        "polytopes.membership_exact_busy_s": (get("polytopes.membership_exact_busy_s"), "s"),
        "polytopes.membership_float_busy_s": (get("polytopes.membership_float_busy_s"), "s"),
        "flows.flow_p50_us": (_p50_us(samples, "flows.flow"), "us"),
        "flows.limit_p50_us": (_p50_us(samples, "flows.limit_symbol"), "us"),
        "flows.plucker_p50_us": (_p50_us(samples, "flows.plucker_embed"), "us"),
        "flows.rk4_steps": (get("flows.rk4_steps"), "count"),
        "flows.rk4_step_us": (
            get("flows.rk4_busy_s") / get("flows.rk4_steps") * 1e6 if get("flows.rk4_steps") else 0.0, "us"),
        "flows.ambiguous": (get("flows.ambiguous"), "count"),
        "flows.rk4_span_dist_max": (health.get("rk4_span_dist_max", 0.0), "1"),
        "flows.projector_drift_max": (health.get("projector_drift_max", 0.0), "1"),
    })
    return m
