"""Unit tests for symbols, strings, liveness, and property constructions."""

import json
import os
import random
import subprocess
import sys

import pytest

from owllab import matrix, owl
from owllab.matrix import BoolMatrix
from owllab.sequence import build_sequence
from owllab.owl import (
    OwlString,
    OwlSymbol,
    all_symbols,
    connectivity,
    empty_symbol,
    full_symbol,
    identity_symbol,
    is_live,
    nfa_live,
    representative,
    representative_symbol,
    sample_member,
    separation_context,
    suffix_of_choice_witness,
    symbol_matrix,
)


def random_symbol(rng, h):
    return OwlSymbol.from_mask(h, rng.getrandbits(h * h))


def random_string(rng, h, max_len):
    n = rng.randint(0, max_len)
    return OwlString(h, [random_symbol(rng, h) for _ in range(n)])


def test_symbol_edge_validation():
    with pytest.raises(ValueError):
        OwlSymbol(2, [(0, 1)])
    with pytest.raises(ValueError):
        OwlSymbol(2, [(1, 3)])


def test_symbol_mask_round_trip():
    rng = random.Random(0)
    for h in (1, 2, 3, 5):
        for _ in range(50):
            s = random_symbol(rng, h)
            assert OwlSymbol.from_mask(h, s.to_mask()) == s
            assert OwlSymbol.from_hex(h, s.to_hex()) == s


def test_symbol_mask_layout():
    # Edge (i, j) occupies bit (i-1)*h + (j-1), row-major.
    s = OwlSymbol(3, [(1, 1), (2, 3), (3, 1)])
    assert s.to_mask() == (1 << 0) | (1 << 5) | (1 << 6)


def test_mask_out_of_range():
    with pytest.raises(ValueError):
        OwlSymbol.from_mask(2, 1 << 4)
    with pytest.raises(ValueError):
        OwlSymbol.from_mask(2, -1)


def test_named_symbols():
    assert identity_symbol(3).sorted_edges == ((1, 1), (2, 2), (3, 3))
    assert empty_symbol(3).sorted_edges == ()
    assert len(full_symbol(3).sorted_edges) == 9


def test_all_symbols():
    syms = all_symbols(2)
    assert len(syms) == 16
    assert len(set(syms)) == 16
    assert list(syms) == sorted(syms, key=lambda s: s.sorted_edges)
    with pytest.raises(ValueError):
        all_symbols(4)


def mask_edges(h, mask):
    """Reference decoding of a symbol mask: edge (i, j) is bit (i-1)*h + (j-1)."""
    return {(b // h + 1, b % h + 1) for b in range(h * h) if mask >> b & 1}


def packed_form_masks():
    """(h, mask) for every symbol of height <= 3 and for seeded dense and
    sparse symbols of heights 1..8 and 64."""
    rng = random.Random(12)
    cases = [(h, m) for h in (1, 2, 3) for m in range(1 << (h * h))]
    for h in (*range(1, 9), 64):
        for _ in range(20):
            dense = rng.getrandbits(h * h)
            cases += [(h, dense), (h, dense & rng.getrandbits(h * h) & rng.getrandbits(h * h))]
    return cases


def test_packed_form_views():
    for h, mask in packed_form_masks():
        s = OwlSymbol.from_mask(h, mask)
        edges = mask_edges(h, mask)
        assert s.rows == tuple(sum(1 << (j - 1) for i, j in edges if i == r) for r in range(1, h + 1))
        rebuilt = OwlSymbol(h, edges)
        assert rebuilt == s and hash(rebuilt) == hash(s)
        assert s.to_mask() == mask
        assert OwlSymbol.from_hex(h, s.to_hex()) == s
        assert s.sorted_edges == tuple(sorted(edges))
        assert s.to_json() == [[i, j] for i, j in sorted(edges)]
        assert symbol_matrix(s).rows == s.rows
        assert representative_symbol(symbol_matrix(s)) == s


def test_all_symbols_in_sorted_edge_order():
    for h in (2, 3):
        reference = sorted(sorted(mask_edges(h, m)) for m in range(1 << (h * h)))
        assert [list(s.sorted_edges) for s in all_symbols(h)] == reference


def test_representative_symbol_round_trips_chain_matrices():
    for t, c in enumerate(build_sequence(64)):
        s = representative_symbol(c)
        assert s.rows == c.rows and symbol_matrix(s) == c
        if t % 64 == 0:
            assert OwlSymbol(64, s.sorted_edges) == s


def test_packed_form_refuses_bad_input():
    for h, edges in ((2, [(0, 1)]), (2, [(1, 3)]), (2, [(3, 2)]), (64, [(1, 65)])):
        with pytest.raises(ValueError, match="out of range"):
            OwlSymbol(h, edges)
    for h in (True, 0, 65):
        with pytest.raises(ValueError, match="dimension"):
            OwlSymbol(h, [])
        with pytest.raises(ValueError, match="dimension"):
            OwlSymbol.from_mask(h, 0)
    for h in (1, 2, 8, 64):
        with pytest.raises(ValueError, match="mask out of range"):
            OwlSymbol.from_mask(h, 1 << (h * h))
        with pytest.raises(ValueError, match="mask out of range"):
            OwlSymbol.from_hex(h, "1" + "0" * ((h * h + 3) // 4))
    # int(text, 16) takes every one of these; a symbol's hex is digits only.
    for text in ("", "-0", "+1", "0x3", " 3 ", "3\n", "1_0", "0_1", "\u0661"):
        with pytest.raises(ValueError, match="hex digits"):
            OwlSymbol.from_hex(2, text)
        with pytest.raises(ValueError, match="hex digits"):
            OwlString.loads(json.dumps({"h": 2, "symbols": [text]}))


def test_string_height_checks():
    with pytest.raises(ValueError):
        OwlString(2, [identity_symbol(3)])
    with pytest.raises(ValueError):
        OwlString(2, ()) + OwlString(3, ())


def test_string_concat_and_repeat():
    a = OwlString(2, [identity_symbol(2)])
    b = OwlString(2, [full_symbol(2)])
    assert len(a + b) == 2
    assert (a + b).symbols == a.symbols + b.symbols
    assert a.repeat(3).symbols == a.symbols * 3
    assert len(a.repeat(0)) == 0


def test_string_json_round_trip():
    rng = random.Random(1)
    for _ in range(30):
        z = random_string(rng, 3, 4)
        assert OwlString.loads(z.dumps()) == z


def test_string_loads_refuses_deeply_nested_json():
    with pytest.raises(ValueError, match="nested too deeply"):
        OwlString.loads("[" * 200000)


def test_string_json_accepts_hex_symbols():
    z = OwlString(2, [identity_symbol(2), full_symbol(2)])
    obj = {"h": 2, "symbols": [s.to_hex() for s in z.symbols]}
    assert OwlString.from_json(obj) == z


def test_empty_string_connectivity_is_identity():
    z = OwlString(3, ())
    assert connectivity(z) == matrix.identity(3)
    assert is_live(z)
    assert nfa_live(z)


def test_connectivity_hand_example():
    # {(1,2)} then {(2,1)}: the only end-to-end path is 1 -> 2 -> 1.
    z = OwlString(2, [OwlSymbol(2, [(1, 2)]), OwlSymbol(2, [(2, 1)])])
    assert connectivity(z) == BoolMatrix.from_cells(2, [(1, 1)])
    # Repeating the symbol gives a dead string: nothing leaves node 2.
    w = OwlString(2, [OwlSymbol(2, [(1, 2)]), OwlSymbol(2, [(1, 2)])])
    assert connectivity(w) == matrix.zero(2)
    assert not is_live(w)


def test_connectivity_is_multiplicative():
    rng = random.Random(2)
    for _ in range(200):
        h = rng.randint(1, 5)
        x, y = random_string(rng, h, 3), random_string(rng, h, 3)
        assert connectivity(x + y) == matrix.multiply(connectivity(x), connectivity(y))


def test_symbol_matrix_is_edge_relation():
    s = OwlSymbol(3, [(1, 3), (2, 2)])
    assert symbol_matrix(s) == BoolMatrix.from_cells(3, [(1, 3), (2, 2)])


def test_liveness_oracles_agree_exhaustively_h2():
    import itertools

    syms = all_symbols(2)
    for n in range(3):
        for combo in itertools.product(syms, repeat=n):
            z = OwlString(2, combo)
            assert is_live(z) == nfa_live(z)


def test_liveness_oracles_agree_random_h4():
    rng = random.Random(3)
    for _ in range(500):
        z = random_string(rng, 4, 6)
        assert is_live(z) == nfa_live(z)


def test_representative_in_property():
    rng = random.Random(4)
    for _ in range(50):
        h = rng.randint(1, 4)
        c = connectivity(random_string(rng, h, 3))
        z = representative(c)
        assert len(z) == 1
        assert connectivity(z) == c
        assert BoolMatrix.from_cells(c.h, representative_symbol(c).sorted_edges) == c


def test_sample_member_stays_in_property():
    rng = random.Random(5)
    for _ in range(50):
        h = rng.randint(1, 4)
        c = connectivity(random_string(rng, h, 3))
        z = sample_member(c, rng)
        assert connectivity(z) == c


def test_separation_context_hand_case():
    u, v, swapped = separation_context(matrix.zero(2), matrix.identity(2))
    assert u.sorted_edges == ((1, 1),)
    assert v.sorted_edges == ((1, 1),)
    assert swapped is False
    # Same pair in the other order flips the flag.
    _, _, swapped2 = separation_context(matrix.identity(2), matrix.zero(2))
    assert swapped2 is True


def test_separation_context_liveness_xor():
    rng = random.Random(6)
    checked = 0
    while checked < 100:
        h = rng.randint(2, 4)
        c1 = connectivity(random_string(rng, h, 3))
        c2 = connectivity(random_string(rng, h, 3))
        if c1 == c2:
            continue
        checked += 1
        u, v, swapped = separation_context(c1, c2)
        ustr, vstr = OwlString(h, [u]), OwlString(h, [v])
        live1 = is_live(ustr + sample_member(c1, rng) + vstr)
        live2 = is_live(ustr + sample_member(c2, rng) + vstr)
        assert live1 != live2
        assert live2 != swapped


def test_separation_context_equal_matrices_rejected():
    with pytest.raises(ValueError):
        separation_context(matrix.identity(2), matrix.identity(2))


def test_suffix_of_choice_on_chain_pair():
    from owllab import sequence

    rng = random.Random(7)
    seq = tuple(sequence.build_sequence(3))
    for t in range(1, sequence.chain_length(3) + 1):
        prev, nxt = seq[t - 1], seq[t]
        u = suffix_of_choice_witness(prev, nxt)
        ustr = OwlString(3, [u])
        for _ in range(5):
            x = sample_member(rng.choice([prev, nxt]), rng)
            v = sample_member(prev, rng)
            assert connectivity(x + ustr + v) == nxt


def test_suffix_of_choice_rejects_bad_pairs():
    with pytest.raises(ValueError):
        # identity does not absorb all-ones
        suffix_of_choice_witness(matrix.all_ones(2), matrix.identity(2))
    with pytest.raises(ValueError):
        suffix_of_choice_witness(matrix.identity(2), matrix.identity(3))


def test_json_is_stable():
    z = OwlString(2, [full_symbol(2), identity_symbol(2)])
    assert json.loads(z.dumps()) == z.to_json()
    assert z.dumps() == OwlString.loads(z.dumps()).dumps()


def test_named_symbols_equal_their_edge_list_forms():
    for h in (1, 2, 3, 7, 16, 64):
        nodes = range(1, h + 1)
        assert identity_symbol(h) == OwlSymbol(h, [(i, i) for i in nodes])
        assert empty_symbol(h) == OwlSymbol(h, [])
        assert full_symbol(h) == OwlSymbol(h, [(i, j) for i in nodes for j in nodes])
        assert type(identity_symbol(h).rows) is tuple
        assert identity_symbol(h) is identity_symbol(h)  # cached per height
    for make in (identity_symbol, empty_symbol, full_symbol):
        for bad in (0, 65, True):
            with pytest.raises(ValueError):
                make(bad)


def test_string_stores_a_list_as_a_tuple():
    s, t = identity_symbol(2), full_symbol(2)
    z = OwlString(2, [s])
    assert type(z.symbols) is tuple
    assert z == OwlString(2, [s])
    assert hash(z) == hash(OwlString(2, [s]))
    assert (z + OwlString(2, [t])).symbols == (s, t)
    assert z.repeat(2) == OwlString(2, [s, s])


def fold_of_multiply(z):
    """Connectivity as a left fold of `matrix.multiply` over symbol matrices."""
    c = matrix.identity(z.h)
    for s in z.symbols:
        c = matrix.multiply(c, BoolMatrix(z.h, s.rows))
    return c


def test_folds_match_a_left_fold_of_multiply():
    rng = random.Random(17)
    dies_early = 0
    for h in (1, 2, 3, 5, 16):
        for _ in range(60):
            n = rng.randint(0, 8)
            # Sparse symbols, so that many products reach zero before the end.
            syms = [
                OwlSymbol.from_mask(h, rng.getrandbits(h * h) & rng.getrandbits(h * h))
                for _ in range(n)
            ]
            z = OwlString(h, syms)
            want = fold_of_multiply(z)
            assert connectivity(z) == want
            assert is_live(z) == (want != matrix.zero(h)) == nfa_live(z)
            prefix = OwlString(h, syms[: n // 2])
            dies_early += n > 1 and fold_of_multiply(prefix) == matrix.zero(h)
    assert dies_early > 0
    for h in (1, 4, 64):
        empty = OwlString(h, ())
        assert connectivity(empty) == matrix.identity(h) == fold_of_multiply(empty)
        assert is_live(empty)


def _liveness_cases(rng, h):
    """Seeded strings for the liveness oracles: the empty string, dense and
    sparse random strings, permutation strings (whose products keep h
    distinct nonzero rows), and strings that die at their first or at their
    last symbol."""

    def dense():
        return OwlSymbol.from_mask(h, rng.getrandbits(h * h))

    def sparse():
        bits = rng.getrandbits
        return OwlSymbol.from_mask(h, bits(h * h) & bits(h * h) & bits(h * h))

    def permutation():
        cols = list(range(1, h + 1))
        rng.shuffle(cols)
        return OwlSymbol(h, [(i, j) for i, j in enumerate(cols, 1)])

    cases = [OwlString(h, ())]
    for make in (dense, sparse, permutation):
        for n in (1, 2, 5, 12):
            cases.append(OwlString(h, [make() for _ in range(n)]))
    for _ in range(4):
        tail = [dense() for _ in range(rng.randint(0, 4))]
        cases.append(OwlString(h, [empty_symbol(h)] + tail))
        # A prefix whose product reaches only some columns, then a last
        # symbol whose rows are empty exactly at those columns.
        narrow = rng.getrandbits(h) | 1
        funnel = owl._trusted(h, tuple(rng.getrandbits(h) & narrow or 1 for _ in range(h)))
        prefix = [dense(), permutation(), funnel, permutation()]
        reached = 0
        for row in connectivity(OwlString(h, prefix)).rows:
            reached |= row
        last = tuple(0 if reached >> k & 1 else rng.getrandbits(h) for k in range(h))
        cases.append(OwlString(h, prefix + [owl._trusted(h, last)]))
    return cases


@pytest.mark.parametrize("h", [1, 2, 3, 9, 13, 16, 64])
def test_is_live_matches_connectivity_and_nfa_live(h):
    rng = random.Random(1000 + h)
    cases = _liveness_cases(rng, h)
    widest = dies_first = dies_last = 0
    for z in cases:
        c = connectivity(z)
        assert is_live(z) == (c != matrix.zero(h)) == nfa_live(z)
        widest = max(widest, len(set(c.rows) - {0}))
        if z.symbols:
            dies_first += z.symbols[0] == empty_symbol(h)
            head = OwlString(h, z.symbols[:-1])
            dies_last += is_live(head) and not is_live(z) and z.symbols[-1] != empty_symbol(h)
    assert is_live(cases[0])
    assert widest == h
    assert dies_first >= 4
    assert dies_last > 0 or h == 1


@pytest.mark.parametrize("target", ["matrix._product_rows", "owl.symbol_matrix", "owl.nfa_live"])
def test_is_live_uses_neither_the_kernel_nor_the_other_oracle(monkeypatch, target):
    rng = random.Random(7)
    cases = [z for h in (1, 2, 3, 16, 64) for z in _liveness_cases(rng, h)]
    want = [connectivity(z) != matrix.zero(z.h) for z in cases]

    def refuse(*args, **kwargs):
        raise AssertionError(f"is_live called {target}")

    module, name = target.split(".")
    monkeypatch.setattr({"matrix": matrix, "owl": owl}[module], name, refuse)
    assert [is_live(z) for z in cases] == want


@pytest.mark.parametrize("target", ["matrix._product_rows", "owl.symbol_matrix", "owl.is_live"])
def test_nfa_live_uses_neither_the_kernel_nor_the_other_oracle(monkeypatch, target):
    rng = random.Random(7)
    cases = [z for h in (1, 2, 3, 9, 13, 16, 64) for z in _liveness_cases(rng, h)]
    want = [connectivity(z) != matrix.zero(z.h) for z in cases]

    def refuse(*args, **kwargs):
        raise AssertionError(f"nfa_live called {target}")

    module, name = target.split(".")
    monkeypatch.setattr({"matrix": matrix, "owl": owl}[module], name, refuse)
    assert [nfa_live(z) for z in cases] == want


def test_modules_import_only_what_they_use():
    # The package root re-exports nothing, so a module loads its own imports
    # and no more, in a fresh interpreter.
    src = os.path.dirname(os.path.dirname(os.path.abspath(owl.__file__)))
    probe = (
        "import json, sys; import owllab.{0}; "
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'owllab']))"
    )

    def loaded(module):
        out = subprocess.run(
            [sys.executable, "-c", probe.format(module)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return set(json.loads(out))

    base = loaded("owl")
    assert base == {"owllab", "owllab.matrix", "owllab.owl"}
    assert loaded("tdfa") == base | {"owllab.tdfa"}
