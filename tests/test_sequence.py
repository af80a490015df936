"""Unit tests for the connectivity chain and its verification suite."""

import functools
import gc
import tracemalloc
import weakref

import pytest

from owllab import matrix, owl, sequence
from owllab.matrix import BoolMatrix
from owllab.sequence import (
    ConnectivitySequence,
    SequenceReport,
    build_sequence,
    cell_index,
    chain_length,
    d_matrix,
    d_prime,
    e_matrix,
    e_prime,
    num_upper,
    stage2_column,
    verify_sequence,
)

from frozen import CHAIN_H5, D_H5, D_PRIME_H5, E_H5, E_PRIME_H5


def test_counts():
    assert num_upper(5) == 10
    assert chain_length(5) == 15
    assert num_upper(1) == 0
    assert chain_length(1) == 1
    assert num_upper(64) == 2016
    assert chain_length(64) == 2080


def test_cell_index_h5():
    # Stage 1 fills column h down to column 2, bottom to top in each column.
    assert cell_index(1, 5) == (4, 5)
    assert cell_index(2, 5) == (3, 5)
    assert cell_index(4, 5) == (1, 5)
    assert cell_index(5, 5) == (3, 4)
    assert cell_index(6, 5) == (2, 4)
    assert cell_index(8, 5) == (2, 3)
    assert cell_index(10, 5) == (1, 2)


def test_cell_index_covers_upper_triangle():
    for h in (2, 3, 6):
        seen = {cell_index(t, h) for t in range(1, num_upper(h) + 1)}
        assert seen == {(i, j) for j in range(2, h + 1) for i in range(1, j)}
        assert all(i < j for i, j in seen)


def test_cell_index_matches_the_column_walk():
    # cell_index finds the column in closed form; walking the columns from h
    # down is the definition.
    for h in range(1, 65):
        t = 0
        for j in range(h, 1, -1):
            for i in range(j - 1, 0, -1):
                t += 1
                assert cell_index(t, h) == (i, j), (t, h)
        assert t == num_upper(h)


def test_cell_index_range_errors():
    with pytest.raises(ValueError):
        cell_index(0, 5)
    with pytest.raises(ValueError):
        cell_index(11, 5)
    with pytest.raises(ValueError, match=r"t=1 outside stage 1 range \[1, 0\] for h=1"):
        cell_index(1, 1)


def test_widened_increments_refuse_heights_past_the_cap():
    # Both build their matrices on the trusted path; t is valid here, so
    # only the height check stands between them and a 65-row matrix.
    with pytest.raises(ValueError, match="dimension"):
        e_prime(1, 65)
    with pytest.raises(ValueError, match="dimension"):
        d_prime(num_upper(65) + 1, 65)


def test_stage2_column():
    assert stage2_column(11, 5) == 4
    assert stage2_column(12, 5) == 3
    assert stage2_column(14, 5) == 1
    with pytest.raises(ValueError):
        stage2_column(10, 5)
    with pytest.raises(ValueError):
        stage2_column(15, 5)


def test_chain_frozen_values_h5():
    seq = build_sequence(5)
    assert num_upper(5) == 10 and chain_length(5) == 15
    assert len(seq.matrices) == 16
    for t, text in CHAIN_H5.items():
        assert seq[t].to_text() == text, f"C_{t} mismatch"


def test_increment_frozen_values_h5():
    for t, text in E_H5.items():
        assert e_matrix(t, 5).to_text() == text
    for t, text in E_PRIME_H5.items():
        assert e_prime(t, 5).to_text() == text
    for t, text in D_H5.items():
        assert d_matrix(t, 5).to_text() == text
    for t, text in D_PRIME_H5.items():
        assert d_prime(t, 5).to_text() == text


def _cells(m):
    """The 1-cells of m, by row and then by column."""
    return owl.representative_symbol(m).sorted_edges


def test_e_prime_widens_to_the_right():
    assert _cells(e_prime(6, 5)) == ((2, 4), (2, 5))
    assert _cells(e_matrix(6, 5)) == ((2, 4),)


def test_chain_endpoints():
    for h in (1, 2, 5, 8):
        seq = build_sequence(h)
        n = chain_length(h)
        assert len(seq.matrices) == n + 1
        assert seq[0] == matrix.identity(h)
        assert seq[n - 1] == matrix.all_ones(h)
        assert seq[n] == matrix.zero(h)


def test_chain_adds_one_cell_per_stage1_step():
    seq = build_sequence(4)
    for t in range(1, num_upper(4) + 1):
        fresh = set(_cells(seq[t])) - set(_cells(seq[t - 1]))
        assert fresh == {cell_index(t, 4)}


def test_chain_stage2_fills_columns():
    seq = build_sequence(4)
    for t in range(num_upper(4) + 1, chain_length(4)):
        j = stage2_column(t, 4)
        fresh = set(_cells(seq[t])) - set(_cells(seq[t - 1]))
        assert fresh == {(i, j) for i in range(j + 1, 5)}


def test_sequence_json_round_trip():
    seq = build_sequence(3)
    blob = seq.to_json()
    rebuilt = ConnectivitySequence(
        blob["h"],
        tuple(BoolMatrix(blob["h"], tuple(int(r, 16) for r in rows)) for rows in blob["matrices"]),
    )
    assert rebuilt == seq


def test_verify_sequence_small_heights():
    for h in (1, 2, 3, 5):
        rep = verify_sequence(h)
        assert rep.ok
        assert rep.checks_run > 0
        blob = rep.to_json()
        assert blob["h"] == h and blob["N"] == chain_length(h)
        assert blob["U"] == num_upper(h)


def test_verify_sequence_is_deterministic():
    a = verify_sequence(4, seed=7)
    b = verify_sequence(4, seed=7)
    assert a.to_json() == b.to_json()


def test_report_records_failures():
    rep = SequenceReport(2)
    rep._check(True, "fine")
    rep._check(False, "broken")
    assert not rep.ok
    assert rep.failures == ["broken"]
    assert rep.checks_run == 2
    blob = rep.to_json()
    assert blob["ok"] is False
    assert (blob["U"], blob["N"]) == (1, 3)


def test_rank_one_checks_catch_a_wrong_outer(monkeypatch):
    # E' and D' are built from their rows, so a faulty outer shows up in
    # the rank-one checks instead of agreeing with itself.
    checks = verify_sequence(6).checks_run
    monkeypatch.setattr(sequence, "outer", lambda col, row, h: matrix.zero(h))
    rep = verify_sequence(6)
    assert rep.checks_run == checks
    e_fails = [f for f in rep.failures if f.startswith("E'_")]
    d_fails = [f for f in rep.failures if f.startswith("D'_")]
    assert e_fails == [f"E'_{t} != outer (h=6)" for t in range(1, 16)]
    assert d_fails == [f"D'_{t} != outer (h=6)" for t in range(16, 21)]


def test_product_checks_catch_a_wrong_product_row(monkeypatch):
    # Every product check compares the kernel's rows, so a kernel that sets
    # one wrong bit fails checks without changing how many run. The sampled
    # contracts are left out: their witnesses refuse a wrong product outright.
    checks = verify_sequence(6, oracle_samples=0).checks_run
    product_rows = matrix._product_rows

    def wrong(rows, b):
        out = product_rows(rows, b)
        return out[:-1] + (out[-1] ^ 1,)

    monkeypatch.setattr(matrix, "_product_rows", wrong)
    rep = verify_sequence(6, oracle_samples=0)
    assert rep.checks_run == checks
    assert not rep.ok
    for label in ("C_0^2 != C_0 (h=6)", "C_0C_1 != C_1 (h=6)", "(E'_1)^2 != 0 (h=6)",
                  "(D'_16)^2 != D'_16 (h=6)", "C_15D'_16 != D'_16 (h=6)"):
        assert label in rep.failures


def test_nothing_is_retained_between_calls():
    seq, ep = build_sequence(8), e_prime(3, 8)
    refs = [weakref.ref(seq), weakref.ref(seq[5]), weakref.ref(ep)]
    del seq, ep
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_symbol_matrix_cache_stays_bounded_without_losing_a_hit(monkeypatch):
    # The cache holds a fold's working set, not every representative the
    # contract checks ever sampled: an unbounded cache would hit no more.
    def run():
        owl.symbol_matrix.cache_clear()
        for h in (16, 20, 24):
            assert verify_sequence(h).ok
        return owl.symbol_matrix.cache_info()

    bounded = run()
    assert bounded.currsize <= bounded.maxsize < bounded.misses
    unbounded = functools.lru_cache(maxsize=None)(owl.symbol_matrix.__wrapped__)
    monkeypatch.setattr(owl, "symbol_matrix", unbounded)
    assert run().hits == bounded.hits


def test_verify_holds_two_chain_matrices_not_the_chain():
    # verify_sequence streams the chain, so its traced peak is the two
    # matrices it reads and their memos, not the N + 1 that build_sequence
    # returns. h = 32 keeps the row tuples past the interpreter's tuple free
    # list, which tracemalloc would count as still held.
    h = 32
    gc.collect()
    tracemalloc.start()
    try:
        seq = build_sequence(h)
        held = tracemalloc.get_traced_memory()[0]
        del seq
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = verify_sequence(h, oracle_samples=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.ok, rep.failures
    assert peak < held / 10, (peak, held)


def test_chain_cross_check_names_the_step(monkeypatch):
    # A widened increment that misses its own cell disagrees with the plain
    # one; both the builder and the verifier stop at that step.
    bad_t = 7

    def dropped(t, h):
        ep = e_prime(t, h)
        if t != bad_t:
            return ep
        return BoolMatrix(h, tuple(row & (row - 1) for row in ep.rows))

    monkeypatch.setattr(sequence, "e_prime", dropped)
    want = f"plain/widened increment disagree at t={bad_t}, h=6"
    with pytest.raises(AssertionError, match=want):
        build_sequence(6)
    with pytest.raises(AssertionError, match=want):
        verify_sequence(6)


# checks_run per height as first recorded; the work done must not change.
CHECKS_RUN = {1: 14, 2: 56, 3: 119, 5: 308, 8: 749, 16: 2237, 40: 10454}


@pytest.mark.parametrize("h", sorted(CHECKS_RUN))
def test_checks_run_is_pinned(h):
    rep = verify_sequence(h)
    assert rep.ok, rep.failures
    assert rep.checks_run == CHECKS_RUN[h]
