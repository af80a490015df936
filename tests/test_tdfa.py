"""Unit tests for the two-way automaton simulator and machine builders."""

import dataclasses
import itertools
import json
import math
import os
import random

import pytest

from owllab import cli, exits, owl, sequence, tdfa
from owllab.owl import OwlString, OwlSymbol, all_symbols, full_symbol, identity_symbol
from owllab.tdfa import (
    ACCEPT,
    HIT_LEFT,
    HIT_RIGHT,
    LEND,
    LOOP,
    REJECT,
    REND,
    Computation,
    Tdfa,
    build_accept_all,
    build_broken_solver,
    build_subset_solver,
    comp,
    decide,
    lcomp,
    rcomp,
    run_on_tape,
    verdict,
)


def pingpong_machine(h=2):
    """Loops on any nonempty bare string: p steps right, q steps back left."""

    def delta(state, sym):
        if sym == LEND:
            return "p", "R"
        if sym == REND:
            if state in (ACCEPT, REJECT):
                return state, "R"
            return ACCEPT, "R"
        return ("q", "R") if state == "p" else ("p", "L")

    return Tdfa(["p", "q", ACCEPT, REJECT], h, "p", ACCEPT, REJECT, delta)


HALTING_RULES = {
    ACCEPT: {LEND: (ACCEPT, "R"), REND: (ACCEPT, "R"), "default": (ACCEPT, "R")},
    REJECT: {LEND: (REJECT, "R"), REND: (REJECT, "L"), "default": (REJECT, "R")},
}


def table_json(rules, h=1, states=("s", ACCEPT, REJECT)):
    """A machine file's object with these rules; the first state starts."""
    return {
        "h": h,
        "states": list(states),
        "start": states[0],
        "accept": ACCEPT,
        "reject": REJECT,
        "delta": {q: {k: list(v) for k, v in r.items()} for q, r in rules.items()},
    }


def table_machine():
    """Two-state table machine over h=1 that accepts everything."""
    rules = {"s": {LEND: ("s", "R"), REND: (ACCEPT, "R"), "default": ("s", "R")}, **HALTING_RULES}
    return Tdfa.from_json(table_json(rules))


def refusal(build) -> str:
    """The violations in the ValueError that build() raises."""
    with pytest.raises(ValueError, match="^machine 'tdfa' is invalid: ") as info:
        build()
    return str(info.value).removeprefix("machine 'tdfa' is invalid: ")


def test_constructor_checks_height():
    for h in (0, 70, "2"):
        with pytest.raises(ValueError, match="dimension"):
            Tdfa(["s"], h, "s", "s", "s", lambda q, s: (q, "R"))
    with pytest.raises(ValueError, match="dimension"):
        build_accept_all(0)


def test_subset_builders_check_height_before_using_it():
    with pytest.raises(ValueError, match="dimension must be an integer"):
        build_subset_solver(-1)
    with pytest.raises(ValueError, match="dimension must be an integer"):
        build_broken_solver(-1, 1)


@pytest.mark.parametrize("m", [build_subset_solver(2), build_subset_solver(4), build_accept_all(2)])
def test_runs_refuse_an_input_of_another_height(m):
    z = OwlString(3, [identity_symbol(3), full_symbol(3)])
    want = f"input height 3 does not match machine height {m.h}"
    runs = (
        lambda: decide(m, z),
        lambda: lcomp(m, m.start, z),
        lambda: rcomp(m, m.start, z),
        lambda: exits.traversal_map(m, z, exits.LR),
        lambda: exits.traversal_map(m, z, exits.RL),
    )
    for run in runs:
        with pytest.raises(ValueError, match=want):
            run()


def test_validate_builtins_clean():
    # Every builtin builds at the extremes of its parameters; building validates.
    machines = [build_accept_all(1), build_accept_all(64)]
    machines += [build_subset_solver(h) for h in range(1, 13)]
    machines += [build_broken_solver(16, 2), build_broken_solver(64, 1)]
    machines += [table_machine(), pingpong_machine(), bouncing_table_machine()]
    assert [len(m.states) for m in machines[:3]] == [3, 3, 4]
    assert [len(m.states) for m in machines[13:16]] == [4098, 139, 67]


def test_validate_catches_unknown_special_states():
    def build():
        return Tdfa(["s"], 1, "s", "missing", "s", lambda q, sym: ("s", "R"))

    assert refusal(build) == "accept state 'missing' not in state set"


def test_machine_is_frozen_with_identity_equality():
    m = build_subset_solver(2)
    for f in dataclasses.fields(Tdfa):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, f.name, getattr(m, f.name))
    twin = build_subset_solver(2)
    assert m == m and m != twin
    assert len({m, twin}) == 2


def test_constructor_refuses_duplicate_states():
    def build():
        return Tdfa(["s", "s", ACCEPT, REJECT], 1, "s", ACCEPT, REJECT, lambda q, sym: (ACCEPT, "R"))

    assert refusal(build) == "state 's' is listed 2 times"


def test_validate_catches_endmarker_violations():
    def bad_left(q, sym):
        return "s", "L" if sym == LEND else "R"

    def left():
        return Tdfa(["s"], 1, "s", "s", "s", bad_left)

    assert refusal(left) == "delta('s', LEND) moves left off the left endmarker"

    def bad_right(q, sym):
        return "s", "R"  # falls off the right but not into accept/reject

    def right():
        return Tdfa(["s", ACCEPT, REJECT], 1, "s", ACCEPT, REJECT, bad_right)

    want = "delta({q!r}, REND) moves right into 's', which is neither accept nor reject"
    assert refusal(right) == "; ".join(want.format(q=q) for q in ("s", ACCEPT, REJECT))


def test_constructor_refuses_a_raising_delta():
    def delta(q, sym):
        if q == "q" and sym == identity_symbol(2):
            raise KeyError("no rule")
        return (ACCEPT, "R") if sym == REND else ("q", "R")

    def build():
        return Tdfa(["q", ACCEPT, REJECT], 2, "q", ACCEPT, REJECT, delta)

    assert refusal(build) == "delta('q', 9) failed: 'no rule'"


def test_constructor_reports_each_probe_symbol_once():
    # At h = 1 the identity symbol is the full symbol, so the three probe
    # symbols are two, and a delta that fails on both is refused once for each.
    def delta(q, sym):
        if sym == LEND:
            return (q, "R")
        if sym == REND:
            return (ACCEPT, "R")
        raise KeyError("no rule")

    states = ["q", ACCEPT, REJECT]
    want = "; ".join(f"delta({q!r}, {x}) failed: 'no rule'" for x in "01" for q in states)
    assert refusal(lambda: Tdfa(states, 1, "q", ACCEPT, REJECT, delta)) == want


def test_validate_catches_table_gaps():
    s = {LEND: ("s", "R"), REND: (ACCEPT, "R"), "default": ("s", "R")}
    no_default = {"s": {LEND: ("s", "R"), REND: (ACCEPT, "R")}, **HALTING_RULES}
    assert refusal(lambda: Tdfa.from_json(table_json(no_default))) == "state 's' has no default rule"
    undeclared = {"s": s, "ghost": s, **HALTING_RULES}
    want = "delta has entries for undeclared state 'ghost'"
    assert refusal(lambda: Tdfa.from_json(table_json(undeclared))) == want
    missing = {"s": s, ACCEPT: HALTING_RULES[ACCEPT]}
    assert refusal(lambda: Tdfa.from_json(table_json(missing))) == f"state {REJECT!r} has no transition entries"


def test_validate_catches_bad_targets_and_directions():
    rules = {"s": {LEND: ("s", "R"), REND: (ACCEPT, "R"), "1": ("s", "X"), "default": ("ghost", "R")}}
    want = "delta('s', 1) has bad direction 'X'; delta('s', default) targets unknown state 'ghost'"
    assert refusal(lambda: Tdfa.from_json(table_json({**rules, **HALTING_RULES}))) == want


def test_comp_boundary_positions():
    m = build_accept_all(2)
    z = OwlString(2, [identity_symbol(2)] * 2)
    left = comp(m, "go", 0, z)
    assert left.outcome == HIT_LEFT and left.state == "go" and left.steps == 0
    right = comp(m, "go", 3, z)
    assert right.outcome == HIT_RIGHT and right.state == "go" and right.steps == 0
    with pytest.raises(ValueError):
        comp(m, "go", 4, z)
    with pytest.raises(ValueError):
        comp(m, "go", -1, z)


def test_lcomp_rcomp_empty_string():
    m = build_accept_all(2)
    z = OwlString(2, ())
    assert lcomp(m, "go", z).outcome == HIT_RIGHT
    assert lcomp(m, "go", z).steps == 0
    assert rcomp(m, "go", z).outcome == HIT_LEFT


def test_one_way_machine_crosses_in_length_steps():
    m = build_accept_all(3)
    for n in range(5):
        z = OwlString(3, [full_symbol(3)] * n)
        c = lcomp(m, "go", z)
        assert c.outcome == HIT_RIGHT and c.steps == n
        full = run_on_tape(m, z)
        assert full.outcome == HIT_RIGHT and full.steps == n + 2
        assert full.state == ACCEPT


def test_trace_records_configurations():
    m = build_accept_all(2)
    z = OwlString(2, [identity_symbol(2)])
    res = run_on_tape(m, z)
    assert res.trace[0] == (m.start, 1)
    assert res.trace[-1] == (ACCEPT, 4)


def test_trace_kept_up_to_limit():
    m = build_accept_all(2)
    z = OwlString(2, [identity_symbol(2)] * 3)
    configs = len(z) + 3  # LEND, each symbol and REND, plus the final fall-off
    full = run_on_tape(m, z, trace_limit=configs)
    assert len(full.trace) == configs
    assert full.trace[-1] == (ACCEPT, configs)
    assert run_on_tape(m, z, trace_limit=configs - 1).trace is None
    assert run_on_tape(m, z, trace_limit=0).trace is None


def test_bare_computations_record_no_trace():
    m = pingpong_machine()
    z = OwlString(2, [identity_symbol(2)] * 3)
    runs = [comp(m, "p", j, z) for j in range(len(z) + 2)]
    runs += [lcomp(m, "p", z), rcomp(m, "q", z)]
    runs += [lcomp(m, "p", OwlString(2, ())), rcomp(m, "p", OwlString(2, ()))]
    assert LOOP in {c.outcome for c in runs}
    assert [c.trace for c in runs] == [None] * len(runs)


def test_decide_records_no_trace(monkeypatch):
    seen = []
    real = tdfa.run_on_tape

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(tdfa, "run_on_tape", spy)
    m = build_accept_all(2)
    assert decide(m, OwlString(2, [identity_symbol(2)])) == ACCEPT
    assert [c.trace for c in seen] == [None]


def test_loop_detection_on_bare_string():
    m = pingpong_machine()
    z = OwlString(2, [identity_symbol(2)] * 3)
    c = lcomp(m, "p", z)
    assert c.outcome == LOOP and c.state is None
    # The pigeonhole budget caps the number of steps.
    assert c.steps <= len(m.states) * len(z) + 1


def test_loop_decide_verdict():
    def delta(q, sym):
        if sym == LEND:
            return "p", "R"
        if sym == REND:
            return "p", "L"
        return ("q", "R") if q == "p" else ("p", "L")

    m = Tdfa(["p", "q", ACCEPT, REJECT], 2, "p", ACCEPT, REJECT, delta)
    z = OwlString(2, [identity_symbol(2)])
    assert decide(m, z) == LOOP


def test_accept_all_accepts_everything():
    m = build_accept_all(2)
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(0, 5)
        z = OwlString(2, [OwlSymbol.from_mask(2, rng.getrandbits(4)) for _ in range(n)])
        assert decide(m, z) == ACCEPT


def test_subset_solver_matches_oracle_short_h2():
    m = build_subset_solver(2)
    syms = all_symbols(2)
    for n in range(3):
        for combo in itertools.product(syms, repeat=n):
            z = OwlString(2, combo)
            want = ACCEPT if owl.nfa_live(z) else REJECT
            assert decide(m, z) == want


def test_subset_solver_matches_oracle_random_h3():
    m = build_subset_solver(3)
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(0, 6)
        z = OwlString(3, [OwlSymbol.from_mask(3, rng.getrandbits(9)) for _ in range(n)])
        want = ACCEPT if owl.nfa_live(z) else REJECT
        assert decide(m, z) == want


def test_subset_solver_size_cap():
    assert len(build_subset_solver(12).states) == 4098
    with pytest.raises(ValueError, match="at most 4098"):
        build_subset_solver(13)


def test_broken_solver_specific_error():
    # With cap 1 only node 1 is tracked, so a path through node 2 is missed.
    m = build_broken_solver(3, 1)
    z = OwlString(3, [OwlSymbol(3, [(2, 2)])])
    assert owl.nfa_live(z)
    assert decide(m, z) == REJECT


def test_broken_solver_agrees_when_cap_is_h():
    a, b = build_broken_solver(2, 2), build_subset_solver(2)
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(0, 4)
        z = OwlString(2, [OwlSymbol.from_mask(2, rng.getrandbits(4)) for _ in range(n)])
        assert decide(a, z) == decide(b, z)


def test_broken_solver_validation():
    with pytest.raises(ValueError):
        build_broken_solver(3, 0)


def test_broken_solver_past_h12_within_the_state_budget():
    # Node sets of at most 2 of 16 nodes: 1 + 16 + 120, plus accept and reject.
    m = build_broken_solver(16, 2)
    assert len(m.states) == sequence.chain_length(16) + 3 == 139
    z = OwlString(16, [OwlSymbol(16, [(2, 2)])])
    assert decide(m, z) == ACCEPT
    assert len(build_broken_solver(64, 1).states) == 67


def test_broken_solver_state_budget():
    # subset:12's 4098 states is the most any subset-like machine may have.
    for h, cap in ((13, 13), (16, 5), (64, 3)):
        with pytest.raises(ValueError, match="at most 4098"):
            build_broken_solver(h, cap)


def test_json_round_trip(tmp_path):
    m = table_machine()
    blob = m.to_json()
    m2 = Tdfa.from_json(blob)
    assert m2.states == m.states
    assert m2.delta("s", LEND) == ("s", "R")
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(blob))
    m3 = cli.load_machine(str(path))
    z = OwlString(1, [full_symbol(1)])
    assert decide(m3, z) == decide(m, z)


def test_from_json_missing_field():
    with pytest.raises(ValueError):
        Tdfa.from_json({"h": 1, "states": ["s"]})


def test_programmatic_machine_not_serializable():
    with pytest.raises(ValueError):
        build_accept_all(2).to_json()


def test_table_lookup_uses_hex_keys_and_default():
    ident = identity_symbol(1)
    s = {LEND: ("s", "R"), REND: (ACCEPT, "R"), ident.to_hex(): (REJECT, "R"), "default": ("s", "R")}
    m = Tdfa.from_json(table_json({"s": s, **HALTING_RULES}))
    assert m.delta("s", ident) == (REJECT, "R")
    assert m.delta("s", owl.empty_symbol(1)) == ("s", "R")


# subset:2 written as a table, with some symbol keys spelled "01", "0A", "00f".
SUBSET2_TABLE = os.path.join(os.path.dirname(__file__), "subset2_table.json")


def test_table_keys_in_any_hex_spelling_fire():
    m = cli.load_machine(SUBSET2_TABLE)
    ref = build_subset_solver(2)
    assert m.states == ref.states and m.start == ref.start
    for q in ref.states:
        for sym in (LEND, REND, *all_symbols(2)):
            assert m.delta(q, sym) == ref.delta(q, sym), (q, sym)
    # Edges (2,1) then (1,1): s3 -> s1, then key "01" keeps s1; live.
    z = OwlString(2, [OwlSymbol.from_mask(2, 4), OwlSymbol.from_mask(2, 1)])
    assert decide(m, z) == ACCEPT


def test_table_to_json_writes_canonical_hex():
    m = cli.load_machine(SUBSET2_TABLE)
    blob = m.to_json()
    keys = {k for rules in blob["delta"].values() for k in rules} - {LEND, REND, "default"}
    assert keys == {f"{mask:x}" for mask in range(16)}
    assert "1" in blob["delta"]["s1"] and "01" not in blob["delta"]["s1"]
    assert Tdfa.from_json(blob).delta == m.delta


def test_a_loaded_table_cannot_be_changed():
    # The constructor's checks hold only if the rules they checked stay put.
    m = cli.load_machine(SUBSET2_TABLE)
    with pytest.raises(TypeError):
        m.delta["s3"][LEND] = ("s3", "L")
    with pytest.raises(TypeError):
        m.delta["s3"] = {LEND: ("s3", "L"), "default": ("s3", "R")}
    with pytest.raises(TypeError):
        del m.delta["s3"][LEND]
    z = OwlString(2, [OwlSymbol.from_mask(2, 4), OwlSymbol.from_mask(2, 1)])
    assert m.delta("s3", LEND) == ("s3", "R")
    assert decide(m, z) == ACCEPT


def test_table_keys_are_parsed_when_built():
    def build(*keys):
        rules = {LEND: ("s", "R"), REND: (ACCEPT, "R"), "default": ("s", "R")}
        rules.update((k, (REJECT, "R")) for k in keys)
        return Tdfa.from_json(table_json({"s": rules, **HALTING_RULES}, h=2))

    assert build("1", "2").delta("s", OwlSymbol.from_mask(2, 2)) == (REJECT, "R")
    for keys in (("1", "01"), ("a", "A"), ("f", "000F")):
        with pytest.raises(ValueError, match="twice"):
            build(*keys)
    for key in ("zz", "10", "-1", "", "-0", "0x3", " 3 ", "1_0", "0_1", "\u0661"):
        with pytest.raises(ValueError, match="bad symbol key"):
            build(key)


# No machine that builds can run off either end in any other way, so
# verdict, which decide hands every run to, is given such runs directly.
def test_decide_rejects_left_fall_off():
    m = build_accept_all(2)
    with pytest.raises(ValueError, match="ends by hit_left in state 'go'"):
        verdict(m, Computation(HIT_LEFT, "go", 1))


def test_decide_rejects_right_exit_into_non_halting_state():
    m = build_accept_all(2)
    with pytest.raises(ValueError, match="ends by hit_right in state 'go'"):
        verdict(m, Computation(HIT_RIGHT, "go", 3))


def _reference_subset_like(h, cap):
    """States, start and transition of the subset solver as first written:
    every step parses and formats a state name and truncates the image."""

    def image(mask, sym):
        out = 0
        for i, j in sym.sorted_edges:
            if (mask >> (i - 1)) & 1:
                out |= 1 << (j - 1)
        return out

    def truncate(mask, cap):
        out = 0
        for _ in range(cap):
            if not mask:
                break
            low = mask & -mask
            out |= low
            mask ^= low
        return out

    full = (1 << h) - 1
    start_mask = truncate(full, cap)
    masks = [m for m in range(full + 1) if bin(m).count("1") <= cap]
    states = [f"s{m}" for m in masks] + [ACCEPT, REJECT]

    def delta(q, sym):
        if sym == LEND:
            return f"s{start_mask}", "R"
        if q in (ACCEPT, REJECT):
            if sym == REND:
                return q, "R"
            return "s0", "R"
        mask = int(q[1:])
        if sym == REND:
            return (ACCEPT if mask else REJECT), "R"
        return f"s{truncate(image(mask, sym), cap)}", "R"

    return states, f"s{start_mask}", delta


def _probe_symbols(h, rng):
    syms = [owl.empty_symbol(h), identity_symbol(h), full_symbol(h)]
    if h <= 3:
        return syms + list(all_symbols(h))
    count = 400 if h == 4 else 12
    return syms + [OwlSymbol.from_mask(h, rng.getrandbits(h * h)) for _ in range(count)]


def _admitted_caps(h):
    """Every cap from 1 to h + 1 whose machine fits the 4098-state budget."""
    return [
        cap
        for cap in range(1, h + 2)
        if sum(math.comb(h, n) for n in range(min(cap, h) + 1)) + 2 <= tdfa._MAX_SUBSET_STATES
    ]


@pytest.mark.parametrize("h", [*range(1, 13), 13, 16])
def test_subset_transitions_match_reference(h):
    # Every state up to h = 4; above that the start state, the halting
    # states and a seeded sample of 16 others. Up to h = 12 a step looks its
    # move up in a table; above that it truncates the image itself.
    rng = random.Random(h)
    probes = [LEND, REND] + _probe_symbols(h, rng)
    caps = _admitted_caps(h)
    assert caps == {13: [1, 2, 3, 4, 5, 6], 16: [1, 2, 3, 4]}.get(h, list(range(1, h + 2)))
    machines = [(build_subset_solver(h), h)] if h <= 12 else []
    machines += [(build_broken_solver(h, cap), cap) for cap in caps]
    for m, cap in machines:
        states, start, delta = _reference_subset_like(h, min(cap, h))
        assert list(m.states) == states
        assert m.start == start
        if h > 4:
            states = [start, ACCEPT, REJECT] + rng.sample(states, min(16, len(states)))
        for q in states:
            for sym in probes:
                assert m.delta(q, sym) == delta(q, sym), (m.name, q, sym)


@pytest.mark.parametrize("h, cap, truncates", [(8, 4, False), (12, 2, False), (13, 2, True), (16, 2, True)])
def test_subset_steps_truncate_only_above_the_move_table_bound(monkeypatch, h, cap, truncates):
    # Up to h = 12 every move, truncated or not, is in the table built with
    # the machine, so a run truncates nothing; above that it truncates.
    m = build_broken_solver(h, cap)
    calls = []

    def counted(mask, cap):
        calls.append(mask)
        return truncate(mask, cap)

    truncate = tdfa._truncate_mask
    monkeypatch.setattr(tdfa, "_truncate_mask", counted)
    rng = random.Random(h)
    for _ in range(20):
        z = OwlString(h, [OwlSymbol.from_mask(h, rng.getrandbits(h * h)) for _ in range(3)])
        assert decide(m, z) in (ACCEPT, REJECT)
    assert bool(calls) == truncates


def test_computation_is_immutable():
    c = Computation(HIT_RIGHT, "go", 3)
    assert c.trace is None
    with pytest.raises(AttributeError):
        c.steps = 4
    assert c == Computation(HIT_RIGHT, "go", 3, None)


def _reference_run(m, tape, state, pos, lo, hi):
    """Step through m.delta until the head leaves [lo, hi] or
    the pigeonhole budget |Q| * len(tape) + 1 is spent."""
    budget = len(m.states) * len(tape) + 1
    trace = [(state, pos)]
    while lo <= pos <= hi:
        if len(trace) > budget:
            return LOOP, None, budget, tuple(trace)
        state, d = m.delta(state, tape[pos - 1])
        pos += 1 if d == "R" else -1
        trace.append((state, pos))
    return (HIT_LEFT if pos < lo else HIT_RIGHT), state, len(trace) - 1, tuple(trace)


def bouncing_table_machine(h=3):
    """Table machine that sweeps right in p and, on a full symbol, turns
    back left in q until an empty symbol or LEND sends it right again. Its
    endmarked runs loop on any string with a full symbol, and so do its bare
    runs through an empty symbol and then a full one."""
    full, empty = full_symbol(h).to_hex(), owl.empty_symbol(h).to_hex()
    rules = {
        "p": {LEND: ("p", "R"), REND: (ACCEPT, "R"), full: ("q", "L"), "default": ("p", "R")},
        "q": {LEND: ("p", "R"), REND: (REJECT, "R"), empty: ("p", "R"), "default": ("q", "L")},
        ACCEPT: {LEND: (ACCEPT, "R"), REND: (ACCEPT, "R"), "default": (ACCEPT, "R")},
        REJECT: {LEND: (REJECT, "R"), REND: (REJECT, "R"), "default": (REJECT, "R")},
    }
    return Tdfa.from_json(table_json(rules, h=h, states=("p", "q", ACCEPT, REJECT)))


def test_simulator_matches_reference_loop():
    machines = [
        build_subset_solver(3),
        build_broken_solver(3, 1),
        build_broken_solver(3, 2),
        build_accept_all(3),
        bouncing_table_machine(3),
    ]
    rng = random.Random(7)
    pool = [owl.empty_symbol(3), identity_symbol(3), full_symbol(3)]

    def symbol():
        if rng.random() < 0.5:
            return rng.choice(pool)
        return OwlSymbol.from_mask(3, rng.getrandbits(9))

    loops = {"tape": 0, "bare": 0}
    for n in range(7):
        for _ in range(12):
            z = OwlString(3, [symbol() for _ in range(n)])
            tape = (LEND,) + z.symbols + (REND,)
            for m in machines:
                want = _reference_run(m, tape, m.start, 1, 1, len(tape))
                runs = [(run_on_tape(m, z), want, "tape")]
                for p in m.states:
                    runs.append((lcomp(m, p, z), _reference_run(m, z.symbols, p, 1, 1, n), "bare"))
                    runs.append((rcomp(m, p, z), _reference_run(m, z.symbols, p, n, 1, n), "bare"))
                for got, want, kind in runs:
                    assert (got.outcome, got.state, got.steps) == want[:3]
                    assert got.trace == (want[3] if kind == "tape" else None)
                    if got.outcome == LOOP:  # the budget ran out: some configuration repeated
                        loops[kind] += 1
                        assert len(set(want[3])) < len(want[3])
    assert loops["tape"] > 0 and loops["bare"] > 0
