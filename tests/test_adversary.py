"""Unit tests for the pumping attack, exit chain, and differential fuzzer."""

import dataclasses

import pytest

from owllab import adversary, exits, owl, sequence, tdfa
from owllab.adversary import (
    Counterexample,
    NotFound,
    differential_fuzz,
    exit_chain,
    pump,
)


def test_pump_breaks_accept_all():
    for h in (2, 3):
        m = tdfa.build_accept_all(h)
        res = pump(m, 1)
        assert isinstance(res, Counterexample)
        assert res.kind == "pump"
        assert res.t == 1
        assert res.t_star == 1
        assert res.decisions[0] == res.decisions[1]
        assert res.liveness[0] != res.liveness[1]
        # One of the two inputs is necessarily misdecided.
        wrong = [
            (dec == tdfa.ACCEPT) != live
            for dec, live in zip(res.decisions, res.liveness)
        ]
        assert any(wrong)
        # theta is y_LR.y_RL with no infix: C_0 is idempotent, so it stays in.
        c_prev = tuple(sequence.build_sequence(h))[0]
        lr, rl = (exits.descend_generic(m, c_prev, side=side) for side in (exits.LR, exits.RL))
        assert res.theta == lr.y + rl.y
        assert owl.connectivity(res.theta) == c_prev


def test_pump_counterexample_json():
    res = pump(tdfa.build_accept_all(2), 1)
    blob = res.to_json()
    assert blob["found"] is True
    assert blob["kind"] == "pump"
    assert blob["t"] == 1 and blob["t_star"] == 1
    assert blob["input_lengths"] == [len(z) for z in res.inputs]
    assert len(blob["inputs"]) == 2 and None not in blob["inputs"]


def test_pump_json_elides_huge_inputs(monkeypatch):
    res = pump(tdfa.build_accept_all(2), 1)
    monkeypatch.setattr(adversary, "MAX_LISTED_LEN", 0)
    blob = res.to_json()
    assert blob["inputs"] == [None, None]
    assert blob["input_lengths"] == [len(z) for z in res.inputs]


def test_pump_sound_on_subset_solver():
    for h in (2, 3):
        m = tdfa.build_subset_solver(h)
        for t in range(1, sequence.chain_length(h) + 1):
            res = pump(m, t)
            assert isinstance(res, NotFound), (h, t)
            assert res.reason
            assert res.to_json()["found"] is False


def test_pump_index_out_of_range():
    m = tdfa.build_accept_all(2)
    with pytest.raises(ValueError):
        pump(m, 0)
    with pytest.raises(ValueError):
        pump(m, 4)


def test_pump_respects_size_cap(monkeypatch):
    monkeypatch.setattr(adversary, "MAX_PUMPED_LEN", 1)
    res = pump(tdfa.build_accept_all(2), 1)
    assert isinstance(res, NotFound)
    assert "cap" in res.detail


def test_exit_chain_sizes_match_its_json():
    rep = exit_chain(tdfa.build_broken_solver(3, 2))
    blob = rep.to_json()
    assert len(rep.certs) == sequence.chain_length(3) + 1
    assert rep.a_sizes == blob["a_sizes"] == [e["a"] for e in blob["chain"]]
    assert rep.b_sizes == blob["b_sizes"] == [e["b"] for e in blob["chain"]]
    assert [e["t"] for e in blob["chain"]] == list(range(len(rep.certs)))
    assert len(set(rep.a_sizes)) > 1  # the LR sizes do move on this machine


def test_exit_chain_monotone():
    for h in (2, 3):
        m = tdfa.build_subset_solver(h)
        rep = exit_chain(m)
        a_sizes, b_sizes = rep.a_sizes, rep.b_sizes
        assert all(x >= y for x, y in zip(a_sizes, a_sizes[1:]))
        assert all(x >= y for x, y in zip(b_sizes, b_sizes[1:]))
        assert rep.implied_bound <= len(m.states)
        assert rep.a_decrements <= len(m.states)
        blob = rep.to_json()
        assert blob["a_sizes"] == a_sizes
        assert blob["implied_bound"] == rep.implied_bound


def test_exit_chain_refuses_a_seed_outside_the_property(monkeypatch):
    # With the identity as forcing suffix, the seed y.u keeps C_{t-1} and
    # misses C_t; the descent's start check must refuse it, not restart
    # silently from the representative.
    monkeypatch.setattr(owl, "suffix_of_choice_witness", lambda prev, nxt: owl.identity_symbol(nxt.h))
    with pytest.raises(ValueError, match="not in the target property"):
        exit_chain(tdfa.build_subset_solver(2))


def test_differential_fuzz_finds_broken_solver():
    res = differential_fuzz(tdfa.build_broken_solver(3, 1), samples=200)
    assert isinstance(res, Counterexample)
    assert res.kind == "fuzz"
    z = res.inputs[0]
    assert (res.decisions[0] == tdfa.ACCEPT) != res.liveness[0]
    assert owl.nfa_live(z) == res.liveness[0]


def test_differential_fuzz_exhaustive_counts():
    res = differential_fuzz(tdfa.build_subset_solver(2), max_len=2, exhaustive=True)
    assert isinstance(res, NotFound)
    assert res.detail["strings_checked"] == 1 + 16 + 256


def test_differential_fuzz_random_clean_on_subset_solver():
    res = differential_fuzz(tdfa.build_subset_solver(3), samples=300, seed=5)
    assert isinstance(res, NotFound)
    assert res.detail["strings_checked"] == 300


def test_differential_fuzz_counts_by_length():
    res = differential_fuzz(tdfa.build_subset_solver(2), max_len=2, exhaustive=True)
    assert res.detail["strings_checked_by_length"] == {"0": 1, "1": 16, "2": 256}
    res = differential_fuzz(tdfa.build_subset_solver(3), max_len=6, samples=300, seed=5)
    by_length = res.detail["strings_checked_by_length"]
    assert sum(by_length.values()) == res.detail["strings_checked"] == 300
    assert sorted(by_length, key=int) == [str(n) for n in range(7)]
    again = differential_fuzz(tdfa.build_subset_solver(3), max_len=6, samples=300, seed=5)
    assert list(again.detail["strings_checked_by_length"].items()) == list(by_length.items())


def test_differential_fuzz_deterministic():
    a = differential_fuzz(tdfa.build_broken_solver(3, 1), samples=200, seed=9)
    b = differential_fuzz(tdfa.build_broken_solver(3, 1), samples=200, seed=9)
    assert a.to_json() == b.to_json()


def test_verify_counterexample_rejects_tampering():
    res = pump(tdfa.build_accept_all(2), 1)
    bad = dataclasses.replace(res, liveness=(res.liveness[0], res.liveness[0]))
    with pytest.raises(AssertionError):
        adversary._verify_counterexample(tdfa.build_accept_all(2), bad)
    flipped = dataclasses.replace(res, decisions=(tdfa.REJECT, tdfa.REJECT))
    with pytest.raises(AssertionError):
        adversary._verify_counterexample(tdfa.build_accept_all(2), flipped)


def test_notfound_json():
    nf = NotFound("nothing", {"why": 1})
    assert nf.to_json() == {"found": False, "reason": "nothing", "detail": {"why": 1}}
