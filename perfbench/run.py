"""owllab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; owllab is imported from ./src.
Every repetition runs in a fresh interpreter (see NOTES.md for why), one
after another, and every output is checked. Human-readable lines come
first; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import stats
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBES_PER_REP = 3  # set-up-only interpreters before each timed repetition
MIN_REPS = 3  # plain repetitions per untraced run, even past the deadline
MIN_TRACED = 2  # plain/traced pairs per traced run; traced call counts must agree
REP_TIMEOUT_S = 150
LIVE_RANGE = (0.3, 0.7)


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed), mode]
    try:
        proc = subprocess.run(
            argv + [repr(time.monotonic())],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} repetition exceeded {REP_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} {mode} repetition exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def host_context() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), model
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "loadavg": loadavg(),
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as f:
            return " ".join(f.read().split()[:3])
    except OSError:
        return "unknown"


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[list, list, list]:
    """Set-up probes and timed repetitions, interleaved, until `seconds` have
    passed. A traced run alternates plain and traced repetitions, so its
    plain ones give the base for the tracing overhead."""
    deadline = time.monotonic() + seconds
    probes, plain, tracedreps = [], [], []
    while True:
        t0 = time.monotonic()
        probes += [spawn(workload, seed, "setup") for _ in range(PROBES_PER_REP)]
        plain.append(spawn(workload, seed, "plain"))
        if traced:
            tracedreps.append(spawn(workload, seed, "traced"))
        took = time.monotonic() - t0
        enough = len(plain) >= (MIN_TRACED if traced else MIN_REPS)
        if enough and time.monotonic() + took > deadline:
            break
    return probes, plain, tracedreps


def check_reps(reps: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all timed repetitions."""
    attempted = sum(r["check"]["attempted"] for r in reps)
    failed = sum(r["check"]["failed"] for r in reps)
    problems = []
    digests = {r["check"].get("digest") for r in reps}
    if len(digests) > 1:
        problems.append(f"repetitions saw different inputs: {sorted(digests)}")
    return attempted, failed, problems


def end_to_end(probes: list, reps: list, item: str, timed: str) -> tuple[dict, list[str]]:
    """Times are means over the run's repetitions: the host switches between
    a fast and a slow state every few seconds, and the median of a few
    repetitions jumps between the two where the mean averages over them.
    Latency percentiles are taken per repetition, whose item count is fixed,
    so that the rank each falls on does not depend on how many repetitions
    fit in the run, and then averaged the same way."""
    n = len(reps)
    cpu = sum(r["cpu_s"] for r in reps)
    items = sum(r["check"]["attempted"] for r in reps)
    ordered = [sorted(r["item_ms"]) for r in reps]
    tails = [stats.tail(o) for o in ordered]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in probes + reps), "s"),
        "cpu_s": (cpu / n, "s"),
        "wall_s": (sum(r["wall_s"] for r in reps) / n, "s"),
        "items_per_s": (items / cpu, "1/s"),
        "item_p50_ms": (sum(stats.percentile(o, 50) for o in ordered) / n, "ms"),
        "item_tail_ms": (sum(t for _, t in tails) / n, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    notes = [
        f"setup_s: median of {len(probes) + n} fresh interpreters",
        f"items_per_s: {item}s per CPU second, {items // n} {item}s per repetition",
        f"item_p50_ms, item_tail_ms: p50 and {tails[0][0]} of the {len(ordered[0])} {timed}s "
        f"timed (CPU) in each repetition, averaged over {n} repetitions",
    ]
    return metrics, notes


def per_layer(plain: list, traced: list) -> tuple[dict, list[str], list[str]]:
    med = statistics.median
    summaries = [r["trace"] for r in traced]
    problems = [f for s in summaries for f in s["faults"]]
    first = summaries[0]
    for s in summaries[1:]:
        if s["calls"] != first["calls"] or s["counters"] != first["counters"]:
            problems.append("wrapped call counts differ between traced repetitions")
    calls, counters = first["calls"], first["counters"]

    def self_s(name: str) -> float:
        return med(s["self_s"].get(name, 0.0) for s in summaries)

    def layer_self(layer: str) -> float:
        return med(
            sum(v for k, v in s["self_s"].items() if k.startswith(layer + ".")) for s in summaries
        )

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    n_mul = calls.get("matrix.multiply", 0)
    scanned = counters.get("exits.extensions_scanned", 0)
    hits = counters.get("owl.symbol_matrix.hits", 0)
    tdfa_self = layer_self("tdfa")
    metrics = {
        "matrix.multiply.calls": (n_mul, "count"),
        "matrix.multiply.self_s": (self_s("matrix.multiply"), "s"),
        "matrix.multiply.us_per_call": (ratio(self_s("matrix.multiply") * 1e6, n_mul), "us"),
        "matrix.identity.calls": (calls.get("matrix.identity", 0), "count"),
        "owl.connectivity.calls": (calls.get("owl.connectivity", 0), "count"),
        "owl.connectivity.symbols": (counters.get("owl.connectivity.symbols", 0), "count"),
        "owl.connectivity.self_s": (self_s("owl.connectivity"), "s"),
        "owl.is_live.calls": (calls.get("owl.is_live", 0), "count"),
        "owl.nfa_live.calls": (calls.get("owl.nfa_live", 0), "count"),
        "owl.nfa_live.self_s": (self_s("owl.nfa_live"), "s"),
        "owl.symbol_matrix.hit_ratio": (
            ratio(hits, hits + counters.get("owl.symbol_matrix.misses", 0)),
            "ratio",
        ),
        "tdfa.runs": (counters.get("tdfa.runs", 0), "count"),
        "tdfa.steps": (counters.get("tdfa.steps", 0), "count"),
        "tdfa.self_s": (tdfa_self, "s"),
        "tdfa.steps_per_s": (ratio(counters.get("tdfa.steps", 0), tdfa_self), "1/s"),
        "tdfa.loop_ratio": (ratio(counters.get("tdfa.loops", 0), counters.get("tdfa.runs", 0)), "ratio"),
        "exits.descend_generic.calls": (calls.get("exits.descend_generic", 0), "count"),
        "exits.descend_generic.self_s": (self_s("exits.descend_generic"), "s"),
        "exits.traversal_map.calls": (calls.get("exits.traversal_map", 0), "count"),
        "exits.traversal_map.self_s": (self_s("exits.traversal_map"), "s"),
        "exits.extensions_scanned": (scanned, "count"),
        "exits.candidates_simulated": (counters.get("exits.candidates_simulated", 0), "count"),
        "exits.filter_pass_ratio": (
            ratio(counters.get("exits.candidates_simulated", 0), scanned),
            "ratio",
        ),
        "sequence.build_sequence.self_s": (self_s("sequence.build_sequence"), "s"),
        "sequence.verify_sequence.self_s": (self_s("sequence.verify_sequence"), "s"),
        "sequence.checks_run": (counters.get("sequence.checks_run", 0), "count"),
        "adversary.exit_chain.self_s": (self_s("adversary.exit_chain"), "s"),
        "adversary.pump.calls": (calls.get("adversary.pump", 0), "count"),
        "adversary.pump.self_s": (self_s("adversary.pump"), "s"),
        "adversary.counterexamples": (counters.get("adversary.counterexamples", 0), "count"),
        "cli.main.calls": (calls.get("cli.main", 0), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.overhead": (
            med(r["cpu_s"] for r in traced) / med(r["cpu_s"] for r in plain) - 1,
            "ratio",
        ),
    }
    names = sorted({k for s in summaries for k in s["self_s"]})
    ranked = sorted(((self_s(k), k) for k in names), reverse=True)
    notes = [f"self {s:10.6f} s  {calls.get(k, 1):>9} calls  {k}" for s, k in ranked]
    return metrics, notes, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "owllab", "__init__.py")):
        print(f"error: no owllab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    host = host_context()
    try:
        probes, plain, traced = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reps = plain + traced
    attempted, failed, problems = check_reps(reps)
    checks = [r["check"] for r in reps]
    live = checks[0].get("live_fraction")
    if live is not None and not LIVE_RANGE[0] <= live <= LIVE_RANGE[1]:
        print(f"error: live fraction {live:.3f} outside {LIVE_RANGE}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, notes, trace_problems = per_layer(plain, traced)
        problems += trace_problems
    else:
        w = WORKLOADS[args.workload]
        metrics, notes = end_to_end(probes, plain, w.item, w.timed)
    host_end = loadavg()

    print(f"# owllab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# host: python {host['python']}, nproc {host['nproc']}, cpu {host['cpu']!r}, "
          f"loadavg {host['loadavg']} at start, {host_end} at end")
    print(f"# {len(probes)} setup probes, {len(plain)} plain and {len(traced)} traced "
          "repetitions, each in a fresh interpreter")
    if live is not None:
        print(f"# inputs: edge density {checks[0]['density']:.4f}/h, live fraction {live:.4f}")
    for key in ("findings", "counterexamples"):
        if key in checks[0]:
            print(f"# {key} per repetition (expected, not failures): {checks[0][key]}")
    for note in notes:
        print(f"# {note}")
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")
    print(f"{'failed_ratio':<34} {failed / attempted:.6g} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
