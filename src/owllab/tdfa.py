"""Two-way deterministic finite automata over the two-column-graph alphabet.

A machine reads its input between endmarkers and halts only by falling off
the right endmarker into its accept or reject state. Computations on bare
infixes (no endmarkers) exit past either boundary or loop; looping is
detected exactly by a pigeonhole step budget.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional, Union

from .matrix import _check_h
from .owl import OwlString, OwlSymbol, empty_symbol, full_symbol, identity_symbol

LEND = "LEND"
REND = "REND"

TapeSymbol = Union[OwlSymbol, str]  # an alphabet symbol, or LEND/REND

HIT_LEFT = "hit_left"
HIT_RIGHT = "hit_right"
LOOP = "loop"

ACCEPT = "accept"
REJECT = "reject"


class Computation(NamedTuple):
    """Result of running a machine on a bare string from a given configuration.
    A named tuple: immutable, and cheaper to build than a frozen dataclass,
    which matters because exit analysis builds one per state per string."""

    outcome: str  # HIT_LEFT | HIT_RIGHT | LOOP
    state: Optional[str]  # exit state; None when looping
    steps: int
    trace: Optional[tuple[tuple[str, int], ...]] = None  # set only by run_on_tape


@dataclass(frozen=True, eq=False, slots=True)
class Tdfa:
    """2DFA with named states and a total transition function
    `delta(state, tape symbol) -> (state, direction)`.

    The constructor is the one way to build a machine, and it refuses an
    invalid one: state names are distinct and include start, accept and
    reject; every state moves right off the left endmarker and moves left on
    the right endmarker unless it steps right into accept or reject (the only
    way to halt); and delta gives a (declared state, "L"/"R") pair. A machine
    file's rules become a read-only `_Table` delta (see `from_json`). The
    machine is frozen, so no later assignment can skip these checks;
    equality and hashing are by identity.
    """

    states: tuple[str, ...]
    h: int
    start: str
    accept: str
    reject: str
    delta: Callable[[str, TapeSymbol], tuple[str, str]]
    name: str = "tdfa"

    def __post_init__(self) -> None:
        _check_h(self.h)
        object.__setattr__(self, "states", tuple(self.states))
        errs = _violations(self)
        if errs:
            raise _invalid(self.name, errs)

    def to_json(self) -> dict:
        if not isinstance(self.delta, _Table):
            raise ValueError("programmatic machine has no serializable table")
        return {
            "h": self.h,
            "states": list(self.states),
            "start": self.start,
            "accept": self.accept,
            "reject": self.reject,
            "delta": {q: {_key_text(k): list(v) for k, v in r.items()} for q, r in self.delta.items()},
        }

    @classmethod
    def from_json(cls, obj: dict, name: str = "tdfa") -> "Tdfa":
        """A machine file's object. Each state's rules are parsed into a
        `_Table`, which is checked for what only a table can get wrong before
        the constructor checks the machine."""
        if not isinstance(obj, dict):
            raise ValueError("machine JSON must be an object")
        for field in ("h", "states", "start", "accept", "reject", "delta"):
            if field not in obj:
                raise ValueError(f"machine JSON missing field {field!r}")
        delta = obj["delta"]
        if not (isinstance(delta, dict) and all(isinstance(e, dict) for e in delta.values())):
            raise ValueError("machine delta must map each state to an object of rules")
        rules = [v for entries in delta.values() for v in entries.values()]
        if not all(isinstance(v, list) and len(v) == 2 for v in rules):
            raise ValueError("every delta rule must be a [state, direction] pair")
        h, states = obj["h"], obj["states"]
        names = [obj["start"], obj["accept"], obj["reject"], *(x for v in rules for x in v)]
        if not (isinstance(states, list) and all(isinstance(q, str) for q in states + names)):
            raise ValueError("machine states, start/accept/reject and rule entries must be strings")
        _check_h(h)
        table = _Table(MappingProxyType({q: _parse_rules(h, q, entries) for q, entries in delta.items()}))
        declared = set(states)
        errs = [f"delta has entries for undeclared state {q!r}" for q in sorted(table.keys() - declared)]
        for q in dict.fromkeys(states):
            entries = table.get(q)
            if entries is None:
                errs.append(f"state {q!r} has no transition entries")
                continue
            if "default" not in entries:
                errs.append(f"state {q!r} has no default rule")
            for key, (nq, d) in entries.items():
                if nq not in declared:
                    errs.append(f"delta({q!r}, {_key_text(key)}) targets unknown state {nq!r}")
                elif d not in ("L", "R"):
                    errs.append(f"delta({q!r}, {_key_text(key)}) has bad direction {d!r}")
        if errs:
            raise _invalid(name, errs)
        return cls(states, h, obj["start"], obj["accept"], obj["reject"], table, name)


@dataclass(frozen=True, eq=False)
class _Table(Mapping):
    """A machine file's rules as a read-only transition function: state ->
    {LEND, REND, "default" or a symbol: (state, direction)}, both levels
    held as `MappingProxyType`s, so the rules cannot change once built. A
    symbol's own rule wins over the state's default; `from_json` has checked
    that every declared state has one. Equality is `Mapping`'s, by items,
    and the hash agrees with it."""

    _rules: Mapping[str, Mapping]

    def __getitem__(self, state: str) -> Mapping:
        return self._rules[state]

    def __iter__(self):
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __hash__(self) -> int:
        return hash(frozenset((q, frozenset(rules.items())) for q, rules in self._rules.items()))

    def __call__(self, state: str, sym: TapeSymbol) -> tuple[str, str]:
        rules = self._rules[state]
        return rules[sym] if sym in rules else rules["default"]


def _invalid(name: str, errs: list[str]) -> ValueError:
    return ValueError(f"machine {name!r} is invalid: " + "; ".join(errs))


def _parse_rules(h: int, state: str, rules: dict) -> Mapping:
    """One state's rules as tuples, keyed by LEND, REND, "default" or the
    symbol that a hex key names, in a read-only view."""
    parsed = {}
    for key, rule in rules.items():
        sym = key
        if key not in (LEND, REND, "default"):
            try:
                sym = OwlSymbol.from_hex(h, key)
            except ValueError as exc:
                raise ValueError(f"state {state!r}: bad symbol key {key!r}: {exc}") from None
            if sym in parsed:
                raise ValueError(f"state {state!r}: key {key!r} names symbol {sym.to_hex()} twice")
        parsed[sym] = tuple(rule)
    return MappingProxyType(parsed)


def _key_text(key: TapeSymbol) -> str:
    """A rule key as the machine format writes it: canonical hex for a symbol."""
    return key if isinstance(key, str) else key.to_hex()


def _violations(m: Tdfa) -> list[str]:
    """What makes m invalid (see `Tdfa`); empty when it is valid. delta is
    called on both endmarkers and on the empty, identity and full symbols
    from every state."""
    errs = [f"state {q!r} is listed {n} times" for q, n in Counter(m.states).items() if n > 1]
    declared = frozenset(m.states)
    for special, label in ((m.start, "start"), (m.accept, "accept"), (m.reject, "reject")):
        if special not in declared:
            errs.append(f"{label} state {special!r} not in state set")
    if errs:
        return errs

    def result(q, symname, sym):
        try:
            res = m.delta(q, sym)
            if not (isinstance(res, tuple) and len(res) == 2):
                errs.append(f"delta({q!r}, {symname}) is not a (state, direction) pair")
            elif res[0] not in declared:
                errs.append(f"delta({q!r}, {symname}) targets unknown state {res[0]!r}")
            elif res[1] not in ("L", "R"):
                errs.append(f"delta({q!r}, {symname}) has bad direction {res[1]!r}")
            else:
                return res
        except Exception as exc:  # a delta that raises, or an unhashable target
            errs.append(f"delta({q!r}, {symname}) failed: {exc}")
        return None

    for q in m.states:
        res = result(q, LEND, LEND)
        if res and res[1] != "R":
            errs.append(f"delta({q!r}, LEND) moves left off the left endmarker")
        res = result(q, REND, REND)
        if res and res[1] == "R" and res[0] not in (m.accept, m.reject):
            errs.append(
                f"delta({q!r}, REND) moves right into {res[0]!r}, "
                "which is neither accept nor reject"
            )
    # At h = 1 the identity is the full symbol; probe it, and report it, once.
    for sym in dict.fromkeys((empty_symbol(m.h), identity_symbol(m.h), full_symbol(m.h))):
        symname = sym.to_hex()
        for q in m.states:
            result(q, symname, sym)
    return errs


def _simulate(m, tape, state, pos, trace_limit=0):
    """Run until the head leaves the tape; positions index `tape` 1-based.

    Exceeding the pigeonhole budget |Q| * len(tape) + 1 means some
    configuration repeated, i.e. the run loops. The trace holds every
    configuration if there are at most trace_limit of them, else it is None.
    """
    n = len(tape)
    budget = len(m.states) * n + 1
    trace = [(state, pos)] if trace_limit > 0 else None
    step = m.delta
    steps = 0
    while 0 < pos <= n:
        if steps >= budget:
            return Computation(LOOP, None, steps, trace and tuple(trace))
        state, d = step(state, tape[pos - 1])
        pos += 1 if d == "R" else -1
        steps += 1
        if trace is not None:
            trace.append((state, pos))
            if len(trace) > trace_limit:
                trace = None
    outcome = HIT_LEFT if pos < 1 else HIT_RIGHT
    return Computation(outcome, state, steps, trace and tuple(trace))


def _check_height(m: Tdfa, z: OwlString) -> None:
    """Where every run starts: the machine fixes the height of its inputs."""
    if z.h != m.h:
        raise ValueError(f"input height {z.h} does not match machine height {m.h}")


def comp(m: Tdfa, p: str, j: int, z: OwlString) -> Computation:
    """Deterministic run on bare z from state p at position j (1-based); a
    start at 0 or |z| + 1 is already off z and ends there in 0 steps."""
    _check_height(m, z)
    n = len(z)
    if not 0 <= j <= n + 1:
        raise ValueError(f"start position {j} out of range for |z|={n}")
    return _simulate(m, z.symbols, p, j)


def lcomp(m: Tdfa, p: str, z: OwlString) -> Computation:
    """Left computation: enter z at its first symbol. Empty z exits right."""
    return comp(m, p, 1, z)


def rcomp(m: Tdfa, p: str, z: OwlString) -> Computation:
    """Right computation: enter z at its last symbol. Empty z exits left."""
    return comp(m, p, len(z), z)


def decide(m: Tdfa, z: OwlString) -> str:
    """Accept/reject/loop verdict of the full endmarked run.

    Any other end, off the left endmarker or right into a state that is
    neither accept nor reject, breaks the endmarker discipline and raises
    ValueError.
    """
    return verdict(m, run_on_tape(m, z, trace_limit=0))


def verdict(m: Tdfa, res: Computation) -> str:
    """Accept/reject/loop verdict of a full endmarked run `res` of m; see
    `decide` for the ValueError on any other end."""
    if res.outcome == HIT_RIGHT and res.state == m.accept:
        return ACCEPT
    if res.outcome == HIT_RIGHT and res.state == m.reject:
        return REJECT
    if res.outcome == LOOP:
        return LOOP
    raise ValueError(
        f"run of {m.name!r} ends by {res.outcome} in state {res.state!r}, "
        "not by a right exit into accept or reject"
    )


def run_on_tape(m: Tdfa, z: OwlString, trace_limit: int = 10**5) -> Computation:
    """Full run on LEND z REND from the start state; positions 1..|z|+2 on the tape."""
    _check_height(m, z)
    tape = (LEND,) + z.symbols + (REND,)
    return _simulate(m, tape, m.start, 1, trace_limit)


def _truncate_mask(mask: int, cap: int) -> int:
    """Keep only the cap lowest set bits."""
    out = 0
    for _ in range(cap):
        if not mask:
            break
        low = mask & -mask
        out |= low
        mask ^= low
    return out


# The most states a subset-like machine may have: subset:12's 2^12 node
# sets plus accept and reject.
_MAX_SUBSET_STATES = (1 << 12) + 2

# The highest h whose subset-like machines get a move table: its 2^h
# entries are the exact solver's own state count at this bound.
_MOVE_TABLE_MAX_H = 12


def _subset_like(h: int, cap: int, name: str) -> Tdfa:
    """States `s<mask>` for every node set of at most cap nodes, by mask
    value, plus accept and reject. The names, and each state's nodes as row
    indices, are built once; a step ORs the symbol's rows at those indices
    and looks the image's move up. Up to h = 12 the moves are one tuple,
    indexed by the image mask, of each image's move already truncated to
    its cap lowest nodes; above that an image that has more than cap nodes,
    and so names no state, is truncated at each step."""
    _check_h(h)  # before the shift and math.comb below, which a negative h would break
    size = sum(math.comb(h, n) for n in range(cap + 1)) + 2
    if size > _MAX_SUBSET_STATES:
        raise ValueError(f"{size} states at h={h}, cap={cap}; at most {_MAX_SUBSET_STATES} are allowed")
    full = (1 << h) - 1
    sets = (nodes for n in range(cap + 1) for nodes in itertools.combinations(range(h), n))
    by_mask = sorted((sum(1 << i for i in nodes), nodes) for nodes in sets)
    name_of = {m: f"s{m}" for m, _ in by_mask}
    nodes_of = {name_of[m]: nodes for m, nodes in by_mask}
    nodes_of[ACCEPT] = nodes_of[REJECT] = None
    start = name_of[_truncate_mask(full, cap)]
    empty_set = name_of[0]
    moves = None
    if h <= _MOVE_TABLE_MAX_H:
        moves = tuple((name_of.get(out) or name_of[_truncate_mask(out, cap)], "R") for out in range(full + 1))

    def delta(q: str, sym) -> tuple[str, str]:
        nodes = nodes_of[q]
        if sym.__class__ is str:  # an endmarker; cheaper than OwlSymbol.__eq__
            if sym == LEND:
                return start, "R"
            if nodes is None:
                return q, "R"
            return (ACCEPT if nodes else REJECT), "R"
        if nodes is None:
            return empty_set, "R"
        rows = sym.rows
        out = 0
        for k in nodes:
            out |= rows[k]
        if moves is not None:
            return moves[out]
        return name_of.get(out) or name_of[_truncate_mask(out, cap)], "R"

    states = [name_of[m] for m, _ in by_mask] + [ACCEPT, REJECT]
    return Tdfa(states, h, start, ACCEPT, REJECT, delta, name=name)


def build_subset_solver(h: int) -> Tdfa:
    """One-way machine tracking the exact reachable node set; correct but
    exponential (2^h subset states plus accept and reject), so the state
    budget refuses it above h = 12."""
    return _subset_like(h, h, f"subset:{h}")


def build_broken_solver(h: int, cap: int) -> Tdfa:
    """Subset solver whose tracked set is truncated to its cap smallest
    elements after every step; wrong for cap < h."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return _subset_like(h, min(cap, h), f"broken:{h}:{cap}")


def build_accept_all(h: int) -> Tdfa:
    """Sweeps right once and accepts everything (wrong on dead strings)."""
    states = ["go", ACCEPT, REJECT]

    def delta(q: str, sym) -> tuple[str, str]:
        if sym == REND:
            return (q, "R") if q in (ACCEPT, REJECT) else (ACCEPT, "R")
        return "go", "R"

    return Tdfa(states, h, "go", ACCEPT, REJECT, delta, name="accept_all")
