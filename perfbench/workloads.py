"""The four workloads: what each sets up, runs under the clock, and checks.

Each workload has `setup()` (import owllab and build machines; counted in
setup_s), `inputs(seed)` (made by the benchmark, not timed), `job(ctx,
inputs)` (the timed part; returns outputs and per-item nanoseconds) and
`check(inputs, outputs)` (against references outside the code under test).
owllab functions are looked up on their modules at call time, so a traced
repetition sees them through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import time

import inputs as gen

# checks_run per height, recorded from the seed code; the ROADMAP forbids
# changing these counts.
VERIFY_CHECKS = {40: 10454, 48: 14699, 56: 19748, 64: 25538}
EXIT_MACHINES = ("subset:3", "broken:3:1", "broken:3:2", "accept_all:3")
EXIT_STEPS = 6  # chain length N = h(h+1)/2 at h = 3


def _run_cli(argvs):
    from owllab import cli

    outputs, item_ns = [], []
    clock = time.process_time_ns
    for argv in argvs:
        buf = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        item_ns.append(clock() - t0)
        outputs.append((rc, buf.getvalue()))
    return outputs, item_ns


def _report(text: str) -> dict:
    try:
        return json.loads(text)["result"]
    except (ValueError, KeyError, TypeError):
        return {}


def _non_increasing(xs) -> bool:
    return isinstance(xs, list) and all(a >= b for a, b in zip(xs, xs[1:]))


class VerifyChain:
    """`owl verify-seq` at the heights users run cold; an item is one check."""

    item, timed = "identity check", "CLI call"

    def setup(self):
        import owllab.cli  # noqa: F401

    def inputs(self, seed):
        return [
            ["--no-timing", "--seed", str(seed), "verify-seq", "--height", str(h)]
            for h in VERIFY_CHECKS
        ]

    def job(self, ctx, argvs):
        return _run_cli(argvs)

    def check(self, argvs, outputs):
        attempted = failed = 0
        for h, (rc, text) in zip(VERIFY_CHECKS, outputs):
            want = VERIFY_CHECKS[h]
            rep = _report(text)
            attempted += want
            if rc != 0 or rep.get("checks_run") != want or rep.get("ok") is not True:
                failed += min(want, max(1, len(rep.get("failures") or [])))
        return {"attempted": attempted, "failed": failed}


class ExitChain:
    """`owl chain`, `owl pump` at every step and an ext-len-2 `owl generic`
    pair on h = 3 machines; an item is one CLI call."""

    item = timed = "CLI call"

    def setup(self):
        import owllab.cli  # noqa: F401

    def inputs(self, seed):
        base = ["--no-timing", "--seed", str(seed)]
        argvs = []
        for m in EXIT_MACHINES:
            argvs.append(base + ["chain", "--machine", m])
            argvs += [base + ["pump", "--machine", m, "--index", str(t)] for t in range(1, EXIT_STEPS + 1)]
        for side in ("lr", "rl"):
            argvs.append(
                base
                + ["generic", "--machine", "broken:3:2", "--conn", "3", "--max-ext-len", "2", "--side", side]
            )
        return argvs

    def job(self, ctx, argvs):
        return _run_cli(argvs)

    def check(self, argvs, outputs):
        failed = counterexamples = 0
        for argv, (rc, text) in zip(argvs, outputs):
            ok = self._check_one(argv, rc, _report(text))
            failed += not ok
            counterexamples += ok and rc == 1
        return {"attempted": len(argvs), "failed": failed, "counterexamples": counterexamples}

    @staticmethod
    def _check_one(argv, rc, rep) -> bool:
        cmd, machine = argv[3], argv[5]
        if cmd == "chain":
            return rc == 0 and _non_increasing(rep.get("a_sizes")) and _non_increasing(rep.get("b_sizes"))
        if cmd == "generic":
            hist = rep.get("size_history")
            return (
                rc == 0
                and _non_increasing(hist)
                and len(set(hist)) == len(hist)
                and hist[-1] == rep.get("exit_size")
            )
        want_rc = {"subset:3": 0, "accept_all:3": 1}.get(machine)
        if rc not in (0, 1) or (want_rc is not None and rc != want_rc):
            return False
        if rc == 0:
            return rep.get("found") is False
        strings = rep.get("inputs") or []
        if rep.get("found") is not True or len(strings) != 2 or None in strings:
            return False
        short, pumped = (gen.live(*gen.masks_from_json(z)) for z in strings)
        return short != pumped


class _RandomStrings:
    """Seeded random strings; an item is one string."""

    item = timed = "string"
    h: int
    count: int
    density: float

    def inputs(self, seed):
        from owllab.owl import OwlString, OwlSymbol

        h = self.h
        raw = gen.random_strings(seed, self.name, h, self.count, self.density)
        # Same symbols as OwlSymbol.from_mask, built from per-row edge lists
        # in a third less time: conversion is most of a repetition's wall time.
        full, rows = (1 << h) - 1, {}

        def edges(mask):
            out = []
            for i in range(h):
                key = (i, mask >> (i * h) & full)
                if key not in rows:
                    rows[key] = [(i + 1, j + 1) for j in range(h) if key[1] >> j & 1]
                out += rows[key]
            return frozenset(out)

        strings = [OwlString(h, tuple(OwlSymbol(h, edges(m)) for m in s)) for s in raw]
        live = [gen.live(h, s) for s in raw]
        # The strings stay alive through the job, where a fuzzer would drop
        # each one; keep the collector from re-scanning them, so that its
        # pauses are those of the program's own allocations.
        gc.freeze()
        return {
            "strings": strings,
            "live": live,
            "digest": gen.digest(raw),
            "density": gen.edge_threshold(self.h, self.density) / 256 * self.h,
        }

    def _summary(self, data, failed, **extra):
        live = data["live"]
        return {
            "attempted": len(live),
            "failed": failed,
            "live_fraction": sum(live) / len(live),
            "density": data["density"],
            "digest": data["digest"],
            **extra,
        }


class FuzzDecide(_RandomStrings):
    """h = 8 strings through the exact and the truncating subset solver and
    the NFA oracle: the simulator carries the job."""

    name = "fuzz-decide"
    h, count, density = 8, 4000, 1.3

    def setup(self):
        from owllab import tdfa

        return tdfa.build_subset_solver(8), tdfa.build_broken_solver(8, 4)

    def job(self, ctx, data):
        from owllab import owl, tdfa

        exact, broken = ctx
        decide, nfa_live = tdfa.decide, owl.nfa_live
        clock = time.process_time_ns
        outputs, item_ns = [], []
        for z in data["strings"]:
            t0 = clock()
            out = (decide(exact, z), decide(broken, z), nfa_live(z))
            item_ns.append(clock() - t0)
            outputs.append(out)
        return outputs, item_ns

    def check(self, data, outputs):
        failed = findings = 0
        for live, (exact, broken, nfa) in zip(data["live"], outputs):
            failed += nfa != live or exact != ("accept" if live else "reject") or broken not in ("accept", "reject")
            findings += (broken == "accept") != live
        return self._summary(data, failed, findings=findings)


class OracleRandom(_RandomStrings):
    """h = 16 strings through both liveness oracles: random multiply
    operands, so the per-operand product memo misses."""

    name = "oracle-random"
    h, count, density = 16, 1500, 1.2

    def setup(self):
        import owllab.owl  # noqa: F401

    def job(self, ctx, data):
        from owllab import owl

        is_live, nfa_live = owl.is_live, owl.nfa_live
        clock = time.process_time_ns
        outputs, item_ns = [], []
        for z in data["strings"]:
            t0 = clock()
            out = (is_live(z), nfa_live(z))
            item_ns.append(clock() - t0)
            outputs.append(out)
        return outputs, item_ns

    def check(self, data, outputs):
        failed = sum(out != (live, live) for live, out in zip(data["live"], outputs))
        return self._summary(data, failed)


WORKLOADS = {
    "verify-chain": VerifyChain,
    "exit-chain": ExitChain,
    "fuzz-decide": FuzzDecide,
    "oracle-random": OracleRandom,
}
