"""Unit tests for exit sets, the alpha/beta maps, and the genericity descent."""

import itertools
import os
import random

import pytest

from owllab import adversary, cli, exits, matrix, owl, sequence, tdfa
from owllab.exits import (
    LR,
    RL,
    PartialMap,
    alpha,
    beta,
    default_generators,
    descend_generic,
    exit_size,
    is_permutation,
    permutation_order,
    traversal_map,
)
from owllab.matrix import BoolMatrix
from owllab.owl import OwlString, OwlSymbol, identity_symbol

from test_tdfa import pingpong_machine

SUBSET2_TABLE = "subset2_table.json"
TWOWAY2_TABLE = "twoway2_table.json"


def random_string(rng, h, max_len):
    n = rng.randint(0, max_len)
    return OwlString(h, [OwlSymbol.from_mask(h, rng.getrandbits(h * h)) for _ in range(n)])


def test_traversal_map_accept_all():
    m = tdfa.build_accept_all(2)
    y = OwlString(2, [identity_symbol(2)] * 2)
    tm = traversal_map(m, y, LR)
    # Every state sweeps right and comes out in "go".
    assert tm.exit_states == frozenset({"go"})
    assert exit_size(m, y, LR) == 1
    assert all(c.outcome == tdfa.HIT_RIGHT for _, c in tm.outcomes)


def test_traversal_map_subset_solver_identity_string():
    m = tdfa.build_subset_solver(2)
    y = OwlString(2, [identity_symbol(2)])
    tm = traversal_map(m, y, LR)
    # The identity symbol preserves each tracked subset; accept and reject
    # feed into s0, which is already among the subset states.
    assert tm.exit_states == frozenset({"s0", "s1", "s2", "s3"})
    assert exit_size(m, y, LR) == 4


def test_traversal_map_rl_side():
    m = tdfa.build_accept_all(2)
    y = OwlString(2, [identity_symbol(2)])
    tm = traversal_map(m, y, RL)
    # A one-way machine never exits left from its last symbol.
    assert tm.exit_states == frozenset()
    assert exit_size(m, y, RL) == 0


def test_traversal_map_bad_side():
    m = tdfa.build_accept_all(2)
    with pytest.raises(ValueError):
        traversal_map(m, OwlString(2, ()), "UD")
    # Every reader of a side refuses one that is neither LR nor RL.
    y = owl.representative(matrix.identity(2))
    for refused in (
        lambda: traversal_map(m, y, "XY"),
        lambda: exits.TraversalMap("XY", ()).exit_states,
        lambda: exits.extend(y, y, "XY"),
        lambda: descend_generic(m, matrix.identity(2), side="XY"),
    ):
        with pytest.raises(ValueError, match="bad side 'XY'"):
            refused()


def test_exit_monotonicity_random():
    rng = random.Random(0)
    m = tdfa.build_subset_solver(2)
    for _ in range(100):
        y, z = random_string(rng, 2, 3), random_string(rng, 2, 3)
        yz = y + z
        # Right extension can only shrink the LR exit set of the prefix.
        assert exit_size(m, yz, LR) <= exit_size(m, y, LR)
        # The LR exit set of yz sits inside that of the suffix z.
        assert traversal_map(m, yz, LR).exit_states <= traversal_map(m, z, LR).exit_states
        # Symmetric statements for the RL side.
        assert exit_size(m, yz, RL) <= exit_size(m, z, RL)
        assert traversal_map(m, yz, RL).exit_states <= traversal_map(m, y, RL).exit_states


def test_alpha_domain_and_image():
    rng = random.Random(1)
    m = tdfa.build_subset_solver(2)
    for _ in range(50):
        y, z = random_string(rng, 2, 3), random_string(rng, 2, 3)
        pm = alpha(m, y, z)  # re-checks image == Q_LR(yz)
        assert pm.domain == traversal_map(m, y, LR).exit_states
        assert pm.image == traversal_map(m, y + z, LR).exit_states
        assert set(dict(pm.mapping)) <= set(pm.domain)


def test_beta_domain_and_image():
    rng = random.Random(2)
    m = tdfa.build_subset_solver(2)
    for _ in range(50):
        y, z = random_string(rng, 2, 3), random_string(rng, 2, 3)
        pm = beta(m, z, y)
        assert pm.domain == traversal_map(m, y, RL).exit_states
        assert pm.image == traversal_map(m, z + y, RL).exit_states


def two_way_machine():
    """A valid h = 2 machine that moves both ways. l0/l1 run left and r0/r1
    run right, each pair swapping on symbols with edge (1,1) (resp. (2,2))
    and falling to l0 (resp. r0) on the empty symbol; b runs right until a
    symbol with edge (1,2) turns it into l1."""
    partner = {"l0": "l1", "l1": "l0", "r0": "r1", "r1": "r0"}

    def delta(q, sym):
        if sym == tdfa.LEND:
            return ("b" if q == "b" else "r0"), "R"
        if sym == tdfa.REND:
            return ("accept" if q in ("r0", "accept") else "reject"), "R"
        if q in ("accept", "reject"):
            return q, "R"
        rows = sym.rows
        if q == "b":
            return ("l1", "L") if rows[0] & 2 else ("b", "R")
        d = "L" if q[0] == "l" else "R"
        if not any(rows):
            return q[0] + "0", d
        swap = rows[0] & 1 if d == "L" else rows[1] & 2
        return (partner[q] if swap else q), d

    states = ["b", "l0", "l1", "r0", "r1", "accept", "reject"]
    return tdfa.Tdfa(states, 2, "b", "accept", "reject", delta, name="two_way")


BUILT = {"two_way": two_way_machine, "pingpong": pingpong_machine}


def load(spec):
    """A builtin machine, a machine file in this directory, or one of the
    machines built above."""
    if spec in BUILT:
        return BUILT[spec]()
    if spec.endswith(".json"):
        spec = os.path.join(os.path.dirname(__file__), spec)
    return cli.load_machine(spec)


def walk(m, tape, q, pos):
    """Follow m.delta from state q at 1-based position pos until the head
    leaves the bare tape: (outcome, state), or None on a repeated
    configuration."""
    seen = set()
    while 1 <= pos <= len(tape):
        if (q, pos) in seen:
            return None
        seen.add((q, pos))
        q, d = m.delta(q, tape[pos - 1])
        pos += 1 if d == "R" else -1
    return (tdfa.HIT_LEFT if pos < 1 else tdfa.HIT_RIGHT), q


FAR = {LR: tdfa.HIT_RIGHT, RL: tdfa.HIT_LEFT}


def brute_exits(m, y, side):
    entry = 1 if side == LR else len(y)
    runs = (walk(m, y.symbols, q, entry) for q in m.states)
    return frozenset(r[1] for r in runs if r and r[0] == FAR[side])


def brute_continuation(m, y, z, side, shift=0):
    """alpha (LR, tape y+z) or beta (RL, tape z+y) by walking m.delta from
    the symbol of z next to y, moved `shift` cells to the right."""
    tape = (y + z if side == LR else z + y).symbols
    entry = (len(y) + 1 if side == LR else len(z)) + shift
    runs = {q: walk(m, tape, q, entry) for q in brute_exits(m, y, side)}
    return {q: r[1] for q, r in runs.items() if r and r[0] == FAR[side]}


def test_alpha_beta_refuse_a_z_of_another_height():
    m = tdfa.build_subset_solver(2)
    y = OwlString(2, [identity_symbol(2)])
    z = OwlString(3, [identity_symbol(3)])
    with pytest.raises(ValueError, match="height"):
        alpha(m, y, z)
    with pytest.raises(ValueError, match="height"):
        beta(m, z, y)


@pytest.mark.parametrize(
    "side, spec",
    [
        pytest.param(side, spec, id=side if spec == "two_way" else f"{side}-{spec}")
        for spec in ("two_way", "pingpong")
        for side in (LR, RL)
    ],
)
def test_continuation_matches_brute_force_on_a_two_way_machine(side, spec):
    # two_way leaves every non-empty string; pingpong loops on every
    # non-empty bare tape, so its continued runs take the loop path.
    m = load(spec)
    rng = random.Random(3)
    off_by_one = {-1: 0, 1: 0}
    loops = 0
    for _ in range(100):
        y, z = random_string(rng, 2, 3), random_string(rng, 2, 3)
        pm = alpha(m, y, z) if side == LR else beta(m, z, y)
        want = brute_continuation(m, y, z, side)
        assert pm.domain == brute_exits(m, y, side)
        assert len(y) == 0 or pm.domain or spec == "pingpong"
        assert dict(pm.mapping) == want
        ext = y + z if side == LR else z + y
        assert pm.image == brute_exits(m, ext, side) == traversal_map(m, ext, side).exit_states
        for shift in off_by_one:
            off_by_one[shift] += brute_continuation(m, y, z, side, shift) != want
        entry = len(y) + 1 if side == LR else len(z)
        loops += sum(walk(m, ext.symbols, q, entry) is None for q in pm.domain)
    # An entry one symbol off gives a different map on some draws, so the
    # comparison above pins the entry position.
    assert all(off_by_one.values()), off_by_one
    assert (loops > 0) == (spec == "pingpong")


@pytest.mark.parametrize(
    "spec", ["subset:3", "broken:3:2", SUBSET2_TABLE, "two_way", "pingpong", TWOWAY2_TABLE]
)
def test_continue_matches_simulate(spec):
    # _continue steps its runs inline, and tdfa._simulate is its reference.
    # Every state runs from every seam of seeded tapes, so on each side the
    # entry lies at both ends of the tape and everywhere between.
    m = load(spec)
    rng = random.Random(6)
    states = list(m.states)
    far = {LR: tdfa.HIT_RIGHT, RL: tdfa.HIT_LEFT}
    loops = 0
    for n in range(1, 6):
        for _ in range(6):
            tape = tuple(OwlSymbol.from_mask(m.h, rng.getrandbits(m.h * m.h)) for _ in range(n))
            for side, cut in itertools.product((LR, RL), range(n)):
                if side == LR:
                    y, e, entry = tape[:cut], tape[cut:], cut + 1
                else:
                    e, y, entry = tape[: cut + 1], tape[cut + 1 :], cut + 1
                runs = {q: tdfa._simulate(m, tape, q, entry) for q in states}
                want = {q: c.state for q, c in runs.items() if c.outcome == far[side]}
                assert exits._continue(m, states, y, (e,), side, len(states) + 1) == (tape, want)
                loops += sum(c.outcome == tdfa.LOOP for c in runs.values())
    assert loops > 0 or spec not in ("pingpong", TWOWAY2_TABLE)


@pytest.mark.parametrize("side", [LR, RL])
def test_continue_returns_the_first_candidate_below_the_bound(side):
    # The descent asks for the first candidate whose exit set is smaller than
    # y's; alpha and beta ask for the one candidate's map whatever its size.
    m = load(TWOWAY2_TABLE)
    rng = random.Random(8)
    y = random_string(rng, 2, 3)
    dom = sorted(traversal_map(m, y, side).exit_states)
    words = [random_string(rng, 2, 2).symbols for _ in range(30)]
    candidates = []
    for e in words:
        z = OwlString(2, e)
        candidates.append((exits.extend(y, z, side).symbols, brute_continuation(m, y, z, side)))
    sizes = {len(set(mapping.values())) for _, mapping in candidates}
    assert len(sizes) > 1
    for below in range(len(dom) + 2):
        want = next((c for c in candidates if len(set(c[1].values())) < below), None)
        assert exits._continue(m, dom, y.symbols, iter(words), side, below) == want


def test_partial_map_call():
    pm = PartialMap(frozenset({"a", "b"}), {"a": "b"})
    assert dict(pm.mapping).get("a") == "b"
    assert dict(pm.mapping).get("b") is None
    assert pm.image == frozenset({"b"})


def test_is_permutation():
    states = frozenset({"a", "b", "c"})
    ident = PartialMap(states, {q: q for q in states})
    assert is_permutation(ident)
    cycle = PartialMap(states, {"a": "b", "b": "c", "c": "a"})
    assert is_permutation(cycle)
    collapse = PartialMap(states, {"a": "b", "b": "b", "c": "a"})
    assert not is_permutation(collapse)
    partial = PartialMap(states, {"a": "b", "b": "a"})
    assert not is_permutation(partial)


def test_permutation_order():
    states = frozenset({"a", "b", "c", "d"})
    ident = PartialMap(states, {q: q for q in states})
    assert permutation_order(ident) == 1
    two_two = PartialMap(states, {"a": "b", "b": "a", "c": "d", "d": "c"})
    assert permutation_order(two_two) == 2
    three_one = PartialMap(states, {"a": "b", "b": "c", "c": "a", "d": "d"})
    assert permutation_order(three_one) == 3
    assert permutation_order(PartialMap(frozenset(), {})) == 1
    with pytest.raises(ValueError):
        permutation_order(PartialMap(states, {"a": "a"}))


def test_default_generators():
    # The descent lists extensions in generator order, so this is the one
    # place that fixes canonical order.
    assert len(default_generators(2)) == 16
    assert len(default_generators(3)) == 512
    gens4 = default_generators(4)
    assert owl.identity_symbol(4) in gens4
    assert owl.full_symbol(4) in gens4
    for gens in (default_generators(2), default_generators(3), gens4):
        assert list(gens) == sorted(gens, key=lambda s: s.sorted_edges)


def test_descend_generic_accept_all():
    m = tdfa.build_accept_all(2)
    target = tuple(sequence.build_sequence(2))[0]
    cert = descend_generic(m, target)
    # A single exit state cannot shrink further (a dead-end machine aside).
    assert cert.exit_size == 1
    assert cert.size_history == (1,)
    assert owl.connectivity(cert.y) == target


def test_descend_generic_stays_in_property():
    # On every builtin machine with h <= 3: every adoption shrinks the exit
    # set, so no descent searches more than |Q| rounds, and the certificate's
    # sizes are read off its history.
    specs = [f"{name}:{h}" for h in (1, 2, 3) for name in ("accept_all", "subset")]
    specs += [f"broken:{h}:{cap}" for h in (1, 2, 3) for cap in range(1, h + 1)]
    for spec in specs:
        m = cli.load_machine(spec)
        seq = tuple(sequence.build_sequence(m.h))
        for t, side in itertools.product(range(sequence.chain_length(m.h) + 1), (LR, RL)):
            cert = descend_generic(m, seq[t], side=side)
            assert owl.connectivity(cert.y) == seq[t]
            assert cert.side == side
            hist = cert.size_history
            assert all(a > b for a, b in zip(hist, hist[1:]))
            assert cert.exit_size == hist[-1]
            assert cert.exit_size == exit_size(m, cert.y, side)
            assert cert.rounds_searched <= len(m.states)
            assert cert.to_json()["exit_size"] == hist[-1]


def test_descend_generic_start_must_be_in_property():
    m = tdfa.build_subset_solver(2)
    target = tuple(sequence.build_sequence(2))[1]
    with pytest.raises(ValueError, match="not in the target property"):
        descend_generic(m, target, start=OwlString(2, ()))


@pytest.mark.parametrize(
    "spec, lr, rl",
    [("subset:2", (6, 4), (6, 0)), ("broken:3:2", (9, 7), (9, 0)), ("accept_all:2", (3, 1), (3, 0))],
)
def test_descend_generic_from_the_empty_string(spec, lr, rl):
    # Every run on an empty tape leaves it at once on its far end, so the
    # empty start's exit set is every state, on either side.
    m = cli.load_machine(spec)
    for side, history in ((LR, lr), (RL, rl)):
        cert = descend_generic(m, matrix.identity(m.h), side=side, start=OwlString(m.h, ()))
        assert cert.size_history == history
        assert history[0] == len(m.states) == exit_size(m, OwlString(m.h, ()), side)


def test_descend_generic_refuses_a_start_of_another_height():
    m = tdfa.build_subset_solver(2)
    target = tuple(sequence.build_sequence(2))[1]
    with pytest.raises(ValueError, match="start string height 3 does not match target height 2"):
        descend_generic(m, target, start=OwlString(3, [identity_symbol(3)]))


def test_descend_generic_refuses_a_negative_max_ext_len():
    m = tdfa.build_subset_solver(2)
    target = tuple(sequence.build_sequence(2))[1]
    with pytest.raises(ValueError, match="max_ext_len must be >= 0, got -1"):
        descend_generic(m, target, max_ext_len=-1)
    # Length 0 searches nothing: the start is its own certificate.
    cert = descend_generic(m, target, max_ext_len=0)
    assert cert.size_history == (exit_size(m, owl.representative(target), LR),)


def test_descend_generic_deterministic():
    m = tdfa.build_subset_solver(2)
    target = tuple(sequence.build_sequence(2))[1]
    a = descend_generic(m, target)
    b = descend_generic(m, target)
    assert a.y == b.y
    assert a.to_json() == b.to_json()


def test_certificate_json_shape():
    m = tdfa.build_accept_all(2)
    cert = descend_generic(m, tuple(sequence.build_sequence(2))[0])
    blob = cert.to_json()
    assert blob["exit_size"] == 1
    assert blob["side"] == LR
    assert blob["size_history"] == [1]
    assert blob["target"] == ["1", "2"]


def brute_force_extensions(generators, max_ext_len, target, side):
    """Every word up to max_ext_len as a symbol tuple, by length then in the
    order the generators are given, kept when a fresh owl.connectivity keeps
    the target's property."""
    h = target.h
    out = []
    for n in range(1, max_ext_len + 1):
        for word in itertools.product(generators, repeat=n):
            ce = owl.connectivity(OwlString(h, word))
            conn = matrix.multiply(target, ce) if side == LR else matrix.multiply(ce, target)
            if conn == target:
                out.append(word)
    return out


def filtered_extensions(generators, max_ext_len, target, side):
    ident = matrix.identity(target.h)
    left, right = (target, ident) if side == LR else (ident, target)
    return list(exits._extensions(exits._Alphabet.of(generators), max_ext_len, left, right, target))


def assert_filter_matches(generators, max_ext_len, target):
    for side in (LR, RL):
        want = brute_force_extensions(generators, max_ext_len, target, side)
        assert filtered_extensions(generators, max_ext_len, target, side) == want


@pytest.mark.parametrize("t", range(4))
def test_extensions_match_brute_force_h2(t):
    assert_filter_matches(owl.all_symbols(2), 3, tuple(sequence.build_sequence(2))[t])


@pytest.mark.parametrize("t", range(7))
def test_extensions_match_brute_force_h3_length_1(t):
    assert_filter_matches(owl.all_symbols(3), 1, tuple(sequence.build_sequence(3))[t])


@pytest.mark.parametrize("t", range(11))
def test_extensions_match_brute_force_h4_length_2(t):
    # The chain representatives, identity and all-edges symbols are not the
    # alphabet, so a generator's bit position is not its symbol mask.
    assert_filter_matches(default_generators(4), 2, tuple(sequence.build_sequence(4))[t])


def test_extensions_multiply_by_the_alphabet_matrices(monkeypatch):
    # Words longer than one letter extend prefix products by each generator's
    # matrix, which the alphabet holds, not the symbol_matrix cache.
    gens = default_generators(4)
    target = tuple(sequence.build_sequence(4))[6]
    want = brute_force_extensions(gens, 2, target, LR)

    def refuse(a):
        raise AssertionError("_extensions looked up symbol_matrix")

    monkeypatch.setattr(owl, "symbol_matrix", refuse)
    assert filtered_extensions(gens, 2, target, LR) == want
    assert any(len(word) == 2 for word in want)


def test_extensions_match_brute_force_h3_length_2_unsorted():
    # 19 distinct seeded symbols in draw order, then the second of them again.
    gens = [OwlSymbol.from_mask(3, mask) for mask in random.Random(5).sample(range(512), 19)]
    gens = tuple(gens + gens[1:2])
    assert list(gens) != sorted(gens, key=lambda s: s.sorted_edges)
    for target in sequence.build_sequence(3):
        assert_filter_matches(gens, 2, target)
    # The last targets keep many of these words, the duplicate's among them.
    words = filtered_extensions(gens, 2, tuple(sequence.build_sequence(3))[5], LR)
    assert len(words) == 308
    assert words.count((gens[1],)) == 2


def test_extensions_match_brute_force_non_idempotent_target():
    target = BoolMatrix.from_cells(2, [(1, 2)])
    assert not matrix.is_idempotent(target)
    assert_filter_matches(owl.all_symbols(2), 3, target)
    shift = BoolMatrix.from_cells(3, [(1, 2), (2, 3), (3, 3)])
    assert not matrix.is_idempotent(shift)
    assert_filter_matches(owl.all_symbols(3), 1, shift)


def test_extensions_keep_duplicate_generators():
    ident, full = owl.identity_symbol(2), owl.full_symbol(2)
    gens = (full, ident, OwlSymbol(2, [(1, 2)]), ident, owl.empty_symbol(2))
    for t in range(4):
        target = tuple(sequence.build_sequence(2))[t]
        assert_filter_matches(gens, 3, target)
    words = filtered_extensions(gens, 1, tuple(sequence.build_sequence(2))[0], LR)
    assert words.count((ident,)) == 2


def test_extensions_of_length_zero_are_none():
    target = tuple(sequence.build_sequence(2))[1]
    for side in (LR, RL):
        assert filtered_extensions(owl.all_symbols(2), 0, target, side) == []


@pytest.mark.parametrize("h", [2, 3, 4, 8])
def test_alphabet_is_the_default_generators(h):
    alphabet = exits._alphabet(h)
    assert alphabet.symbols == default_generators(h)
    want = tuple(owl.connectivity(OwlString(h, [g])) for g in alphabet.symbols)
    assert alphabet.matrices == want
    assert alphabet is exits._alphabet(h)
    if h == 3:
        assert len(alphabet.matrices) == 512


def test_alphabet_rows_index_generator_positions():
    ident, full = owl.identity_symbol(2), owl.full_symbol(2)
    gens = (full, ident, OwlSymbol(2, [(1, 2)]), ident)
    alphabet = exits._Alphabet.of(gens)
    assert alphabet.symbols == gens
    assert alphabet.matrices == tuple(owl.connectivity(OwlString(2, [g])) for g in gens)
    for k, pairs in enumerate(alphabet.rows):
        assert type(pairs) is tuple
        want = {}
        for pos, g in enumerate(gens):
            want[g.rows[k]] = want.get(g.rows[k], 0) | 1 << pos
        assert dict(pairs) == want and len(pairs) == len(want)
    with pytest.raises(ValueError):
        exits._Alphabet.of(())
    with pytest.raises(ValueError):
        exits._Alphabet.of((ident, owl.identity_symbol(3)))


def test_exit_chain_builds_the_alphabet_once():
    exits._alphabet.cache_clear()
    report = adversary.exit_chain(cli.load_machine("broken:4:2"), max_ext_len=1)
    info = exits._alphabet.cache_info()
    assert info.misses == 1 and info.currsize == 1
    # Both sides at every chain step fetch the one h = 4 alphabet.
    assert info.hits + info.misses == 2 * len(report.certs)
    # At h = 3 the one-letter chain and two-letter descents share one
    # alphabet, whose 512 matrices come with it.
    exits._alphabet.cache_clear()
    m = cli.load_machine("broken:3:2")
    report = adversary.exit_chain(m, max_ext_len=1)
    target = tuple(sequence.build_sequence(3))[3]
    for side in (LR, RL):
        exits.descend_generic(m, target, max_ext_len=2, side=side)
    info = exits._alphabet.cache_info()
    assert info.misses == 1 and info.currsize == 1
    assert info.hits + info.misses == 2 * len(report.certs) + 2


@pytest.mark.parametrize(
    "side, history, symbols",
    [(LR, (4, 3), ["137", "05f", "074"]), (RL, (0,), ["137"])],
)
def test_descend_generic_pinned_h3(side, history, symbols):
    m = tdfa.build_broken_solver(3, 2)
    cert = descend_generic(m, tuple(sequence.build_sequence(3))[3], max_ext_len=2, side=side)
    assert cert.size_history == history
    assert [s.to_hex() for s in cert.y.symbols] == symbols


def test_descent_builds_strings_only_on_adoption(monkeypatch):
    # Candidates are bare symbol tapes; an OwlString is built for the start
    # and for each adopted candidate, not for each of the scanned words.
    built = []
    check = OwlString.__post_init__

    def counting(self):
        built.append(len(self))
        check(self)

    monkeypatch.setattr(OwlString, "__post_init__", counting)
    target = tuple(sequence.build_sequence(3))[3]
    # subset:3 adopts nothing after a full ext-len-2 scan; broken:3:2 adopts once.
    for spec, history in (("subset:3", (4,)), ("broken:3:2", (4, 3))):
        built.clear()
        cert = descend_generic(cli.load_machine(spec), target, max_ext_len=2)
        assert cert.size_history == history
        assert len(built) <= len(history) + 2


def reference_descent(m, target, max_ext_len, side, start):
    """descend_generic with the extensions listed by brute force and every
    candidate sized by running every state of m over the whole of y + e:
    (y, size_history, exit_size, rounds_searched)."""
    y = start if start is not None else owl.representative(target)
    size = exit_size(m, y, side)
    history = [size]
    rounds = 0
    gens = default_generators(target.h)
    words = brute_force_extensions(gens, max_ext_len, target, side)
    extensions = [OwlString(target.h, word) for word in words]
    while rounds < len(m.states) and size > 0:
        improved = False
        for ext in extensions:
            cand = exits.extend(y, ext, side)
            cand_size = exit_size(m, cand, side)
            if cand_size < size:
                y, size = cand, cand_size
                history.append(size)
                improved = True
                break
        rounds += 1
        if not improved:
            break
    return y, tuple(history), size, rounds


@pytest.mark.parametrize(
    "spec, max_ext_len",
    [
        ("subset:2", 2),
        ("broken:2:1", 2),
        ("accept_all:2", 2),
        ("subset:3", 1),
        ("broken:3:1", 1),
        ("broken:3:2", 1),
        ("two_way", 2),
        ("pingpong", 2),
        (TWOWAY2_TABLE, 2),
    ],
)
def test_descent_matches_full_resimulation(spec, max_ext_len):
    # The descent sizes a candidate by continuing y's exit states across the
    # extension; re-running every state over y + e must give the same descent,
    # from each chain representative and from seeded random start strings.
    # pingpong and the two-way table loop on some continued runs.
    m = load(spec)
    rng = random.Random(4)
    starts = [(target, None) for target in sequence.build_sequence(m.h)]
    for _ in range(10):
        y = random_string(rng, m.h, 4)
        starts.append((owl.connectivity(y), y))
    for target, start in starts:
        for side in (LR, RL):
            cert = descend_generic(m, target, max_ext_len=max_ext_len, side=side, start=start)
            got = (cert.y, cert.size_history, cert.exit_size, cert.rounds_searched)
            want = reference_descent(m, target, max_ext_len, side, start)
            assert got == want, (side, target, start)
