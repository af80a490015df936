"""Every frozen type that a public function returns is a plain value: it
cannot change after it is built, it is hashable, and equal values hash
equal. A matrix's product memo, `BoolMatrix._prod_rows`, is the one
exception: it grows with every product against the matrix, and equality,
hashing and repr leave it out."""

import dataclasses
import os
from collections.abc import Mapping

import pytest

from owllab import adversary, cli, exits, matrix, owl, sequence, tdfa
from owllab.exits import LR, RL
from owllab.matrix import BoolMatrix
from owllab.owl import OwlString, OwlSymbol
from owllab.tdfa import Computation

TWOWAY2_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "twoway2_table.json")

# (type, field) of every field that equality leaves out.
EXCEPTIONS = {(BoolMatrix, "_prod_rows")}


def _values():
    """(name, value) for one value of each frozen type, built by public
    functions; each call builds every value anew."""
    c2, c3 = list(sequence.build_sequence(2))[1:3]
    product = matrix.multiply(c2, c3)  # fills both operands' memos
    y = owl.representative(c2) + OwlString(2, [OwlSymbol.from_hex(2, "9")])
    subset2 = tdfa.build_subset_solver(2)
    twoway2 = cli.load_machine(TWOWAY2_TABLE)  # alpha and beta are both non-empty on y
    fuzz_notfound = adversary.differential_fuzz(subset2, max_len=2, exhaustive=True)
    return [
        ("BoolMatrix", product),
        ("OwlSymbol", owl.representative_symbol(product)),
        ("OwlString", y),
        ("Computation", tdfa.run_on_tape(twoway2, y)),
        ("_Table", twoway2.delta),
        ("TraversalMap", exits.traversal_map(twoway2, y, RL)),
        ("PartialMap alpha", exits.alpha(twoway2, y, y)),
        ("PartialMap beta", exits.beta(twoway2, y, y)),
        ("GenericCertificate", exits.descend_generic(subset2, c2, 2, side=LR)),
        ("Counterexample pump", adversary.pump(tdfa.build_accept_all(2), 1)),
        ("Counterexample fuzz", adversary.differential_fuzz(tdfa.build_broken_solver(3, 1), samples=200, seed=9)),
        ("ExitChainReport", adversary.exit_chain(tdfa.build_broken_solver(2, 1))),
        ("NotFound pump", adversary.pump(subset2, 1)),
        ("NotFound fuzz", fuzz_notfound),
    ]


def _check_plain(value, path, left_out):
    """Fails if any part of `value` that its equality reads is a dict, list
    or set, or if a field of a frozen part can be assigned. Fields that
    equality leaves out are collected in `left_out` and not walked."""
    assert not isinstance(value, (dict, list, set, bytearray)), path
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            with pytest.raises(AttributeError):
                setattr(value, f.name, getattr(value, f.name))
            if f.compare:
                _check_plain(getattr(value, f.name), f"{path}.{f.name}", left_out)
            else:
                left_out.add((type(value), f.name))
    elif isinstance(value, Computation):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        for name, part in zip(value._fields, value):
            _check_plain(part, f"{path}.{name}", left_out)
    elif isinstance(value, (tuple, frozenset)):
        for i, part in enumerate(value):
            _check_plain(part, f"{path}[{i}]", left_out)
    elif isinstance(value, Mapping):  # a read-only view; its items are what it compares
        for key, part in value.items():
            _check_plain(key, f"{path} key {key!r}", left_out)
            _check_plain(part, f"{path}[{key!r}]", left_out)


def test_frozen_values_are_hashable_and_immutable():
    left_out = set()
    for (name, value), (again_name, again) in zip(_values(), _values()):
        assert name == again_name
        assert value is not again, name
        assert value == again, name
        assert hash(value) == hash(again), name
        _check_plain(value, name, left_out)
    assert left_out == EXCEPTIONS


def test_results_cannot_be_changed_after_the_fact():
    subset2 = tdfa.build_subset_solver(2)
    y = OwlString(2, [owl.identity_symbol(2)])
    pm = exits.alpha(subset2, y, y)
    assert exits.is_permutation(pm)
    with pytest.raises(AttributeError):
        pm.mapping.clear()
    assert exits.is_permutation(pm)
    assert hash(pm) == hash(exits.PartialMap(pm.domain, dict(pm.mapping)))
    nf = adversary.differential_fuzz(subset2, max_len=1, exhaustive=True)
    assert nf.to_json()["detail"] == {"strings_checked": 17, "strings_checked_by_length": {"0": 1, "1": 16}}
