#!/usr/bin/env python3
"""The morsegrass benchmark.

One run:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

All workloads, untraced and traced, with a summary table:
    python3 bench/run.py --all [--seed N] [--seconds S] [--record FILE]

Run from the root of a checkout; the package is imported from ``src/``
without installing it.  Workloads are defined in ``workloads.py``.  The load
is a closed loop: one client in this process issues the next query only
after the previous one returned and was checked.  The last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` warms up for a second, measures for S seconds and reports the
end-to-end metrics.  Every time is in nominal seconds (see ``reference.py``):
the wall time divided by the time of a fixed reference loop measured on the
same core around it, times the loop's nominal time, so the host's drift of
up to 1.8x cancels out.  The wall-clock figures are printed beside them.

- throughput_qps: queries that passed their check per second of query time
  (the summed time of the calls into the library or, for cli_cold, of the
  processes).
- latency_p50_ms / latency_tail_ms: median and the highest of p99.9, p99,
  p95, p90, p50 with at least ten samples beyond it (percentile and sample
  count are printed beside it).
- setup_s: median of three timings of ``import morsegrass`` in a fresh
  interpreter, taken apart from the queries; each is scaled by the
  reference loop timed in that interpreter right after the import.
- peak_rss_mb: peak resident memory of this process, or for cli_cold the
  largest of the child processes.

Every query's output is checked (see ``workloads.py``): a wrong answer, an
unexpected exception, a wrong exit code or a traceback counts in ``failed``
and makes ``correct`` false.

``--trace 1`` is the separate traced run.  It replays a fixed number of
queries (set by the workload and S, so counts repeat exactly between
commits) first untraced and then under the tracer of ``tracing.py``, and
reports the per-layer metrics; the difference between the two is the
tracing overhead.  The traced cli_cold run also runs the ROADMAP item 1
repros that the seed gets wrong, apart from the loop, and lists each of them
beside ``cli.known_defects``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("schubert_calculus", "witten_homology", "moment_polytopes", "flow_limits", "cli_cold")
SETUP_REPEATS = 3
WARMUP_S = 1.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
# The tail percentile of each workload: the ladder's pick for a 20 s run at
# the first baseline, kept fixed so that a faster or slower commit reports the
# same percentile (moment_polytopes runs just under 1000 queries).
TAIL_PERCENTILE = {
    "schubert_calculus": 99.0,
    "witten_homology": 99.0,
    "moment_polytopes": 95.0,
    "flow_limits": 99.0,
    "cli_cold": 50.0,
}
# Traced-run query count per second of --seconds.  The count depends only on
# --seconds, so counters repeat exactly between commits; at the seed the
# untraced replay of that many queries takes about a quarter of --seconds,
# and for cli_cold it covers every subcommand once at 20 s.
TRACE_RATE = {
    "schubert_calculus": 75,
    "witten_homology": 24,
    "moment_polytopes": 14,
    "flow_limits": 15,
    "cli_cold": 0.55,
}
# A slower commit may make the fixed-count traced phases longer; each stops
# here regardless, to keep a run within its time limit.
PHASE_GUARD_S = 70.0


def _threads() -> str:
    return str(len(os.sched_getaffinity(0)))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = _threads()
    return env


SETUP_CODE = """\
import json, sys, time
t = time.perf_counter()
import morsegrass
t = time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
import reference
print(json.dumps([t, reference.time_loops(reference.Reference.MAX_REPS)]))
"""


def measure_setup(env) -> list[tuple[float, float]]:
    """(wall seconds, nominal seconds) of ``import morsegrass`` in fresh interpreters.

    Each interpreter times the reference loop right after the import, and
    the nominal time scales the import by it.
    """
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE)], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        wall, loops = json.loads(proc.stdout)
        out.append((wall, wall * reference.NOMINAL_S / statistics.median(loops)))
    return out


def tail_latency(lat: list[float], p: "float | None" = None) -> tuple[float, float]:
    """(percentile, value) at percentile p; by default the highest ladder
    percentile with >= 10 samples beyond."""
    n = len(lat)
    if p is None:
        p = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), TAIL_LADDER[-1])
    ordered = sorted(lat)
    return p, ordered[max(0, ceil(p / 100.0 * n) - 1)]


def drive(stream, count=None, seconds=None, tracer=None, ref=None):
    """Closed loop over the stream; returns (latencies, start times, failure reasons)."""
    lat, starts, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while (count is None or len(lat) < count) and time.perf_counter() < deadline:
        q = next(stream)
        if ref is not None:
            ref.tick()
        if tracer is not None:
            root = tracer.open("bench.query", "bench")
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, err = q.call(), None
        except Exception as exc:  # a failed query is counted, not fatal
            out, err = None, f"unexpected {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
            tracer.close(root)
        if err is None:
            err = q.check(out)
        lat.append(t1 - t0)
        starts.append(t0)
        if err:
            failures.append(f"{q.kind}: {err}")
    if ref is not None:
        ref.tick(force=True)
    return lat, starts, failures


def _peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(args, ctx, workloads):
    setup = measure_setup(ctx.env)
    stream = workloads.WORKLOADS[args.workload](args.seed, ctx)
    warm, _, warm_failures = drive(stream, seconds=WARMUP_S)
    ref = reference.Reference()
    lat, starts, failures = drive(stream, seconds=args.seconds, ref=ref)
    scaled = [ref.scale(t0, t0 + t) for t, t0 in zip(lat, starts)]
    ok = len(lat) - len(failures)
    p, tail = tail_latency(scaled, TAIL_PERCENTILE[args.workload])
    beyond = len(lat) - ceil(p / 100 * len(lat))
    notes = {
        "throughput_qps": f"wall {ok / sum(lat):.4g} /s",
        "latency_p50_ms": f"wall {statistics.median(lat) * 1e3:.4g} ms",
        "latency_tail_ms": f"p{p:g} of {len(lat)} samples, {beyond} beyond; "
                           f"wall {tail_latency(lat, p)[1] * 1e3:.4g} ms",
        "setup_s": f"median of {len(setup)} fresh imports, wall " + ", ".join(f"{w:.3f}" for w, _ in setup),
        "reference": f"{len(ref.loops)} loops, median {statistics.median(ref.loops) * 1e3:.4g} ms, "
                     f"range {min(ref.loops) * 1e3:.4g}..{max(ref.loops) * 1e3:.4g} ms "
                     f"(nominal {reference.NOMINAL_S * 1e3:g} ms)",
    }
    metrics = {
        "throughput_qps": (ok / sum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(n for _, n in setup), "s"),
        "peak_rss_mb": (_peak_rss_mb(args.workload), "MB"),
    }
    return metrics, notes, len(warm) + len(lat), warm_failures + failures


def traced_run(args, ctx, workloads):
    import tracing
    from morsegrass import cli, flows, graphs, polynomials, polytopes, ring, symbols, witten

    make = workloads.WORKLOADS[args.workload]
    count = max(3, round(TRACE_RATE[args.workload] * args.seconds))
    ref = reference.Reference()
    lat0, starts0, fail0 = drive(make(args.seed, ctx), count=count, seconds=PHASE_GUARD_S, ref=ref)
    process_p50 = statistics.median(lat0)
    ctx.health.clear()
    ctx.cli.clear()
    tracer = tracing.Tracer([symbols, polynomials, flows, polytopes, witten, ring, graphs, cli])
    tracer.install()
    ctx.traced = True
    try:
        lat1, starts1, fail1 = drive(make(args.seed, ctx), count=len(lat0), seconds=PHASE_GUARD_S,
                                     tracer=None if args.workload == "cli_cold" else tracer, ref=ref)
    finally:
        ctx.traced = False
        tracer.uninstall()
    total = sum(lat1)
    # the overhead compares nominal times, so the host's drift between the phases cancels
    nominal0 = sum(ref.scale(t0, t0 + t) for t, t0 in zip(lat0, starts0))
    nominal1 = sum(ref.scale(t0, t0 + t) for t, t0 in zip(lat1, starts1))
    summary = tracing.merge([tracer.summary()] + ctx.child_summaries)
    metrics = tracing.layer_metrics(summary, total, ctx.health)
    imports = [s["import_s"] for s in ctx.child_summaries]
    import_s = statistics.median(imports) if imports else 0.0
    processes = ctx.cli["processes"]
    metrics.update({
        "import.self_share": (sum(imports) / total, "ratio"),
        "cli.import_s": (import_s, "s"),
        "cli.process_p50_s": (process_p50 if processes else 0.0, "s"),
        "cli.process_minus_import_s": (process_p50 - import_s if processes else 0.0, "s"),
        "cli.exit_nonzero": (ctx.cli["exit_nonzero"], "count"),
        "cli.tracebacks": (ctx.cli["tracebacks"], "count"),
        "cli.stdout_bytes": (ctx.cli["stdout_bytes"] / processes if processes else 0.0, "bytes"),
    })
    shares = sum(v for name, (v, _) in metrics.items() if name.endswith(".self_share"))
    failures = fail0 + fail1
    metrics.update({
        "bench.queries": (len(lat1), "count"),
        "bench.trace_overhead": (nominal1 / nominal0 - 1.0, "ratio"),
        "bench.error_rate": (len(failures) / (len(lat0) + len(lat1)), "ratio"),
        "bench.unattributed_share": (1.0 - shares, "ratio"),
    })
    if len(lat1) < len(lat0) or len(lat0) < count:
        print(f"note: phase guard of {PHASE_GUARD_S:.0f} s cut the replay short "
              f"({len(lat0)} untraced, {len(lat1)} traced of {count}); counts will not repeat")
    _write_spans(args, tracer)
    notes = {"bench.trace_overhead": f"traced {nominal1:.3f} s against untraced {nominal0:.3f} s nominal "
                                     f"(wall {total:.3f} s, {sum(lat0):.3f} s) for the same {len(lat1)} queries"}
    # ROADMAP item 1 repros, run apart from the loop and listed by name
    defects = workloads.known_defects(ctx) if args.workload == "cli_cold" else []
    metrics["cli.known_defects"] = (sum(1 for _, err in defects if err), "count")
    if defects:
        notes["cli.known_defects"] = "; ".join(f"{name}: {err or 'fixed'}" for name, err in defects)
    return metrics, notes, len(lat0) + len(lat1), failures


def _write_spans(args, tracer):
    """Spans of the traced phase, one JSON array per line, under .bench_out/."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{args.workload}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def single_run(args) -> int:
    if not (SRC / "morsegrass" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'morsegrass'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    reference.pin_one_core()
    env = child_env()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = env[var]
    sys.path.insert(0, str(SRC))
    import workloads  # after the thread caps, so numpy sees them

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = workloads.Context(workdir=workdir, env=env)
    try:
        run = traced_run if args.trace else timed_run
        metrics, notes, attempted, failures = run(args, ctx, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} queries, {len(failures)} failed")
    for reason in failures[:20]:
        print(f"  FAILED {reason}")
    for name, (value, unit) in sorted(metrics.items()):
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:>14.6g} {unit}{extra}")
    if "reference" in notes:
        print(f"  reference loop: {notes['reference']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def environment() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": int(_threads()), "cpu": cpu, "commit": commit}


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process, then a table."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results[(name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    e2e = sorted(results[(WORKLOAD_NAMES[0], 0)]["metrics"])
    print("\nend-to-end (untraced)")
    print(f"  {'metric':<18}" + "".join(f"{w:>19}" for w in WORKLOAD_NAMES))
    for metric in e2e:
        unit = results[(WORKLOAD_NAMES[0], 0)]["metrics"][metric]["unit"]
        row = "".join(f"{results[(w, 0)]['metrics'][metric]['value']:>19.5g}" for w in WORKLOAD_NAMES)
        print(f"  {metric + ' [' + unit + ']':<18}{row}")
    print("\ntraced self-time share per layer, and tracing overhead")
    shares = sorted(m for m in results[(WORKLOAD_NAMES[0], 1)]["metrics"]
                    if m.endswith("_share") or m == "bench.trace_overhead")
    for metric in shares:
        row = "".join(f"{results[(w, 1)]['metrics'][metric]['value']:>19.3f}" for w in WORKLOAD_NAMES)
        print(f"  {metric:<28}{row}")
    correct = all(r["correct"] for r in results.values())
    print(f"\nall outputs correct: {correct}")
    if args.record:
        record(args, results)
    return 0 if correct else 1


def record(args, results):
    """Append this run as a point of the trajectory kept in the --record file."""
    path = Path(args.record)
    doc = json.loads(path.read_text()) if path.exists() else {"trajectory": []}
    point = {"date": time.strftime("%Y-%m-%d"), "seed": args.seed, "seconds": args.seconds,
             "environment": environment(), "workloads": {}}
    for name in WORKLOAD_NAMES:
        point["workloads"][name] = {
            "attempted": results[(name, 0)]["attempted"],
            "failed": results[(name, 0)]["failed"],
            "end_to_end": {m: v["value"] for m, v in results[(name, 0)]["metrics"].items()},
            "per_layer": {m: v["value"] for m, v in results[(name, 1)]["metrics"].items()},
        }
    doc["trajectory"].append(point)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--record", help="with --all: append the results to this trajectory file")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
