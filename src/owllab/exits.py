"""Exit-state analysis: which states a machine can leave a block in.

For a string y, the LR exit set collects the states hit right by left
computations on y over all entry states; the RL set is symmetric. Extending
y inside a property can only shrink these sets, which drives the bounded
genericity descent below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from . import matrix, owl, sequence, tdfa
from .matrix import BoolMatrix
from .owl import OwlString, OwlSymbol
from .tdfa import Computation, Tdfa

LR = "LR"
RL = "RL"

# The outcome that leaves a string on its far end: an LR computation enters
# on the left and exits right, an RL computation the reverse.
_FAR_END = {LR: tdfa.HIT_RIGHT, RL: tdfa.HIT_LEFT}


def extend(y: OwlString, e: OwlString, side: str) -> OwlString:
    """y extended by e on its far end: y + e for LR, e + y for RL."""
    return y + e if side == LR else e + y


@dataclass(frozen=True)
class TraversalMap:
    """Per-state outcomes of left (LR) or right (RL) computations on a
    string, as (state, outcome) pairs sorted by state."""

    side: str
    outcomes: tuple[tuple[str, Computation], ...]

    @property
    def exit_states(self) -> frozenset[str]:
        want = _FAR_END[self.side]
        return frozenset(c.state for _, c in self.outcomes if c.outcome == want)


def traversal_map(m: Tdfa, y: OwlString, side: str) -> TraversalMap:
    if side not in _FAR_END:
        raise ValueError(f"bad side {side!r}")
    runner = tdfa.lcomp if side == LR else tdfa.rcomp
    return TraversalMap(side, tuple((p, runner(m, p, y)) for p in sorted(m.states)))


def exit_size(m: Tdfa, y: OwlString, side: str) -> int:
    return len(traversal_map(m, y, side).exit_states)


@dataclass(frozen=True)
class PartialMap:
    """Partially defined map on a finite state set. `mapping` holds only the
    defined entries, as (state, state) pairs sorted by state; a mapping
    given as a dict or in any order is stored so."""

    domain: frozenset[str]
    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(sorted(dict(self.mapping).items())))

    @property
    def image(self) -> frozenset[str]:
        return frozenset(v for _, v in self.mapping)


def _continue(
    m: Tdfa,
    dom: list[str],
    y: tuple[OwlSymbol, ...],
    words: Iterable[tuple[OwlSymbol, ...]],
    side: str,
    below: int,
) -> Optional[tuple[tuple[OwlSymbol, ...], dict[str, str]]]:
    """Sizes the candidates extend(y, e, side) for the symbol tuples e of
    `words` in turn, as bare tapes: runs each state q of `dom` from the
    symbol of e next to y and maps q to the state in which the run leaves
    the tape on its far end; runs that leave otherwise or loop (the
    pigeonhole budget |Q| * len(tape) + 1 of `tdfa._simulate` is spent) are
    dropped. Returns the first candidate whose map has fewer than `below`
    distinct values, with that map, or None when none has. The heights are
    the caller's to check.

    When `dom` is y's exit set, a run from the near end of e is the run on
    y + e (or e + y) until it first leaves y, so the image is exactly the
    exit set of the candidate (Shepherdson's crossing argument); the run may
    cross back into y on the way. Every run is stepped here, in one loop
    over `m.delta`: most take one step, and a call per run (to
    `tdfa._simulate`, the tests' reference) would cost more than the step.
    """
    far_right = side == LR
    step = m.delta
    per_cell = len(m.states)
    for e in words:
        if far_right:
            tape, entry = y + e, len(y) + 1
        else:
            tape, entry = e + y, len(e)
        n = len(tape)
        budget = per_cell * n + 1
        mapping = {}
        for q in dom:
            state, pos, steps = q, entry, 0
            while 0 < pos <= n:
                if steps == budget:
                    break
                state, d = step(state, tape[pos - 1])
                pos += 1 if d == "R" else -1
                steps += 1
            else:
                if (pos > n) == far_right:
                    mapping[q] = state
        if len(set(mapping.values())) < below:
            return tape, mapping
    return None


def _continuation(m: Tdfa, y: OwlString, z: OwlString, side: str) -> PartialMap:
    """`_continue` on y's exit states as a partial map on them, re-checked:
    its image must be the exit set of extend(y, z, side)."""
    dom = traversal_map(m, y, side).exit_states  # checks y's height
    ext = extend(y, z, side)  # and OwlString.__add__ checks z's
    _, mapping = _continue(m, sorted(dom), y.symbols, (z.symbols,), side, len(dom) + 1)
    pm = PartialMap(dom, mapping)
    if pm.image != traversal_map(m, ext, side).exit_states:
        raise AssertionError(f"{side} continuation image does not match the extended exit set")
    return pm


def alpha(m: Tdfa, y: OwlString, z: OwlString) -> PartialMap:
    """LR exit states of y continued right across the appended z inside y+z."""
    return _continuation(m, y, z, LR)


def beta(m: Tdfa, z: OwlString, y: OwlString) -> PartialMap:
    """RL exit states of y continued left across the prepended z inside z+y."""
    return _continuation(m, y, z, RL)


def is_permutation(pm: PartialMap) -> bool:
    """Total on its domain, with image equal to the domain (so injective)."""
    mapping = dict(pm.mapping)
    return {mapping.get(q) for q in pm.domain} == pm.domain


def permutation_order(pm: PartialMap) -> int:
    """Least power at which the permutation becomes the identity: the lcm
    of its cycle lengths. The empty permutation has order 1."""
    if not is_permutation(pm):
        raise ValueError("map is not a permutation of its domain")
    mapping = dict(pm.mapping)
    order = 1
    seen = set()
    for q in pm.domain:
        if q in seen:
            continue
        length = 0
        cur = q
        while cur not in seen:
            seen.add(cur)
            cur = mapping[cur]
            length += 1
        order = math.lcm(order, length)
    return order


@dataclass(frozen=True)
class GenericCertificate:
    """A property member whose exit size no searched extension could shrink.

    Genericity proper quantifies over all in-property extensions, which is
    not searchable; the certificate is only as strong as its recorded
    bounds.
    """

    y: OwlString
    target: BoolMatrix
    side: str
    size_history: tuple[int, ...]
    generator_count: int
    max_ext_len: int

    @property
    def exit_size(self) -> int:
        return self.size_history[-1]

    @property
    def rounds_searched(self) -> int:
        """One scan per adoption, and a last one unless the set ran empty."""
        return len(self.size_history) - (self.exit_size == 0)

    def to_json(self) -> dict:
        return {
            "string": self.y.to_json(),
            "target": self.target.row_hex(),
            "side": self.side,
            "exit_size": self.exit_size,
            "size_history": list(self.size_history),
            "generator_count": self.generator_count,
            "max_ext_len": self.max_ext_len,
            "rounds_searched": self.rounds_searched,
        }


def default_generators(h: int) -> tuple[OwlSymbol, ...]:
    """Whole alphabet for h <= 3; chain representatives plus identity and
    all-edges symbols above that."""
    if h <= 3:
        return owl.all_symbols(h)
    syms = {owl.representative_symbol(c) for c in sequence.build_sequence(h)}
    syms.add(owl.identity_symbol(h))
    syms.add(owl.full_symbol(h))
    return tuple(sorted(syms, key=lambda s: s.sorted_edges))


@dataclass(frozen=True)
class _Alphabet:
    """A generator list indexed by rows: `rows[k]` pairs each value r that
    row k of some generator takes with the generators whose row k is r, as
    a bitset of their positions in `symbols`; `matrices` holds each
    generator's matrix, whose product memo every extension scan longer than
    one letter reuses. It depends only on the list, so the descent builds it
    once per height (`_alphabet`)."""

    symbols: tuple[OwlSymbol, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    matrices: tuple[BoolMatrix, ...]

    @classmethod
    def of(cls, generators) -> _Alphabet:
        symbols = tuple(generators)
        heights = {g.h for g in symbols}
        if len(heights) != 1:
            raise ValueError(f"generators must be non-empty and of one height, got {sorted(heights)}")
        h = heights.pop()
        positions = [{} for _ in range(h)]
        for pos, g in enumerate(symbols):
            for k, r in enumerate(g.rows):
                positions[k][r] = positions[k].get(r, 0) | 1 << pos
        rows = tuple(tuple(by_value.items()) for by_value in positions)
        return cls(symbols, rows, tuple(matrix._trusted(h, g.rows) for g in symbols))


@functools.lru_cache(maxsize=8)
def _alphabet(h: int) -> _Alphabet:
    """The alphabet of `default_generators(h)`, with its generators'
    matrices, built once per height."""
    return _Alphabet.of(default_generators(h))


def _extensions(
    alphabet: _Alphabet, max_ext_len: int, left: BoolMatrix, right: BoolMatrix, target: BoolMatrix
):
    """In-property extension words, as symbol tuples: those e with
    left * C(e) * right == target, by length, then lexicographically in the
    order of `alphabet.symbols` (a generator listed twice gives its words
    twice).

    A word is seen only through its prefix product P = left * C(prefix) and
    its last letter g. With B = C(g) * right, P * B == target exactly when
    (1) every row k of B lies inside U_k, the AND of the target rows i whose
    P row contains k, and (2) every column c of target row i is in row k of
    B for some k in P's row i. Row k of B depends only on g's row k, so both
    tests read bitsets over the generator positions: the alphabet's, mapped
    through `right` once per call. Each distinct prefix product is then
    settled with a few ANDs and ORs.
    """
    h = target.h
    gens = alphabet.symbols
    full = (1 << h) - 1
    values = tuple(dict.fromkeys(r for pairs in alphabet.rows for r, _ in pairs))
    image = dict(zip(values, matrix._product_rows(values, right)))
    # rows_of[k]: (row k of B, generators giving it); covers[k][c-1]: the
    # generators whose row k of B has column c.
    rows_of = [[(image[r], bits) for r, bits in pairs] for pairs in alphabet.rows]
    covers = [[0] * h for _ in range(h)]
    for k, pairs in enumerate(rows_of):
        for b, bits in pairs:
            while b:
                low = b & -b
                covers[k][low.bit_length() - 1] |= bits
                b ^= low

    def settle(prod: tuple[int, ...]) -> int:
        """The generators g with P * C(g) * right == target, as a bitset,
        for the prefix product P with rows `prod`."""
        ok = (1 << len(gens)) - 1
        for k in range(h):
            inside = full
            for p, t in zip(prod, target.rows):
                if p >> k & 1:
                    inside &= t
            if inside != full:
                ok &= sum(bits for b, bits in rows_of[k] if not b & ~inside)
        for p, t in zip(prod, target.rows):
            while t and ok:
                low = t & -t
                c = low.bit_length() - 1
                some = 0
                q = p
                while q:
                    kbit = q & -q
                    some |= covers[kbit.bit_length() - 1][c]
                    q ^= kbit
                ok &= some
                t ^= low
        return ok

    # Prefix products stay row tuples: they key last_letters and feed the
    # product kernel, and are never wrapped as matrices.
    last_letters = {}  # prefix product rows -> the generators that end an in-property word
    frontier = [((), left.rows)]
    for length in range(1, max_ext_len + 1):
        nxt = []
        for word, prod in frontier:
            ok = last_letters.get(prod)
            if ok is None:
                ok = last_letters[prod] = settle(prod)
            while ok:
                low = ok & -ok
                yield word + (gens[low.bit_length() - 1],)
                ok ^= low
            if length < max_ext_len:
                nxt.extend(
                    (word + (g,), matrix._product_rows(prod, c))
                    for g, c in zip(gens, alphabet.matrices)
                )
        frontier = nxt


def descend_generic(
    m: Tdfa,
    target: BoolMatrix,
    max_ext_len: int = 1,
    side: str = LR,
    start: Optional[OwlString] = None,
) -> GenericCertificate:
    """Greedy exit-size descent inside the property of `target`.

    Starting from the representative (or `start`), repeatedly adopt the
    first searched extension that stays in the property and strictly
    shrinks the exit set, at most |Q| times; stop when a full scan finds no
    decrease or the set is empty. LR extends on the right, RL on the left.
    A negative `max_ext_len` and a start of another height are refused.
    """
    h = target.h
    if h != m.h:
        raise ValueError(f"target height {h} does not match machine height {m.h}")
    if max_ext_len < 0:
        raise ValueError(f"max_ext_len must be >= 0, got {max_ext_len}")
    if start is not None and start.h != h:
        raise ValueError(f"start string height {start.h} does not match target height {h}")
    alphabet = _alphabet(h)
    y = start if start is not None else owl.representative(target)
    if owl.connectivity(y) != target:
        raise ValueError("start string is not in the target property")
    # The exit set of y + e is y's exit set continued across e, so each
    # candidate runs only those states, from the seam, on a bare symbol tape;
    # only an adopted candidate becomes a string.
    exit_states = sorted(traversal_map(m, y, side).exit_states)  # checks y's height
    history = [len(exit_states)]
    # y stays in the property, so an extension e keeps it there exactly when
    # target * C(e) == target (LR) or C(e) * target == target (RL).
    ident = matrix.identity(h)
    left, right = (target, ident) if side == LR else (ident, target)
    while exit_states:
        words = _extensions(alphabet, max_ext_len, left, right, target)
        found = _continue(m, exit_states, y.symbols, words, side, len(exit_states))
        if found is None:
            break
        tape, mapping = found
        y, exit_states = OwlString(h, tape), sorted(set(mapping.values()))
        history.append(len(exit_states))
    return GenericCertificate(
        y=y,
        target=target,
        side=side,
        size_history=tuple(history),
        generator_count=len(alphabet.symbols),
        max_ext_len=max_ext_len,
    )
