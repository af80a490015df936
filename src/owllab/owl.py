"""The two-column-graph alphabet, liveness, and connectivity-defined properties.

A symbol of height h is a set of edges between h left-column nodes and h
right-column nodes. A string of symbols is a layered graph; it is live when
some full-length left-to-right path exists, which is exactly when the Boolean
product of the per-symbol edge matrices is nonzero.
"""

from __future__ import annotations

import functools
import json
import string
from dataclasses import dataclass
from typing import Iterable

from . import matrix
from .matrix import BoolMatrix


@dataclass(frozen=True, init=False, slots=True)
class OwlSymbol:
    """One alphabet letter, a two-column graph kept as h row masks in the
    layout of BoolMatrix: bit j-1 of rows[i-1] is the edge (i, j). The sorted
    edges (canonical order) and mask and hex forms are views of the rows."""

    h: int
    rows: tuple[int, ...]

    def __init__(self, h: int, edges: Iterable[tuple[int, int]]) -> None:
        object.__setattr__(self, "rows", matrix._pair_rows(h, edges, "edge"))  # checks h
        object.__setattr__(self, "h", h)

    @property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        """The edges by row, then by column; canonical order sorts symbols by them."""
        return tuple(matrix._cells(self.rows))

    def to_json(self) -> list[list[int]]:
        """The symbol as reports write it: its sorted edges as [i, j] lists."""
        return list(map(list, self.sorted_edges))

    def to_mask(self) -> int:
        """Row-major bitmask: edge (i,j) is bit (i-1)*h + (j-1)."""
        return sum(row << (i * self.h) for i, row in enumerate(self.rows))

    @classmethod
    def from_mask(cls, h: int, mask: int) -> "OwlSymbol":
        matrix._check_h(h)
        if mask < 0 or mask >> (h * h):
            raise ValueError(f"mask out of range for h={h}")
        full = (1 << h) - 1
        return _trusted(h, tuple(mask >> (i * h) & full for i in range(h)))

    def to_hex(self) -> str:
        width = (self.h * self.h + 3) // 4
        return f"{self.to_mask():0{width}x}"

    @classmethod
    def from_hex(cls, h: int, text: str) -> "OwlSymbol":
        """The symbol whose mask `text` spells in ASCII hex digits, either case."""
        if not text or text.strip(string.hexdigits):  # int() also takes "-1", "0x1", " 1", "1_0"
            raise ValueError(f"symbol {text!r} is not a run of ASCII hex digits")
        return cls.from_mask(h, int(text, 16))


def _trusted(h: int, rows: tuple[int, ...]) -> OwlSymbol:
    """An OwlSymbol from h rows known to fit h bits each: a checked mask's
    or a BoolMatrix's rows. Skips the edge-by-edge constructor."""
    s = object.__new__(OwlSymbol)
    object.__setattr__(s, "h", h)
    object.__setattr__(s, "rows", rows)
    return s


@dataclass(frozen=True)
class OwlString:
    """A finite word of symbols, all of the same height."""

    h: int
    symbols: tuple[OwlSymbol, ...]

    def __post_init__(self) -> None:
        matrix._check_h(self.h)
        object.__setattr__(self, "symbols", tuple(self.symbols))
        for s in self.symbols:
            if s.h != self.h:
                raise ValueError(f"symbol of height {s.h} in string of height {self.h}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __add__(self, other: "OwlString") -> "OwlString":
        if self.h != other.h:
            raise ValueError("height mismatch in concatenation")
        return OwlString(self.h, self.symbols + other.symbols)

    def repeat(self, n: int) -> "OwlString":
        return OwlString(self.h, self.symbols * n)

    def to_json(self) -> dict:
        return {"h": self.h, "symbols": [s.to_json() for s in self.symbols]}

    @classmethod
    def from_json(cls, obj: dict) -> "OwlString":
        if not (isinstance(obj, dict) and isinstance(obj.get("symbols"), list)):
            raise ValueError("string JSON must be an object with 'h' and a 'symbols' list")
        h = obj.get("h")
        matrix._check_h(h)
        syms = []
        for entry in obj["symbols"]:
            if isinstance(entry, str):  # compact hex form
                syms.append(OwlSymbol.from_hex(h, entry))
            elif isinstance(entry, list) and all(
                isinstance(p, list) and [type(x) for x in p] == [int, int] for p in entry
            ):
                syms.append(OwlSymbol(h, entry))
            else:
                raise ValueError(f"symbol {entry!r} is neither a hex mask nor a list of [i, j] edges")
        return cls(h, tuple(syms))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "OwlString":
        try:
            obj = json.loads(text)
        except RecursionError:  # json's parser recurses once per nesting level
            raise ValueError("string JSON is nested too deeply") from None
        return cls.from_json(obj)


# Cached like all_symbols: sample_member pads every sample with it.
@functools.lru_cache(maxsize=8)
def identity_symbol(h: int) -> OwlSymbol:
    return representative_symbol(matrix.identity(h))


def empty_symbol(h: int) -> OwlSymbol:
    return representative_symbol(matrix.zero(h))


def full_symbol(h: int) -> OwlSymbol:
    return representative_symbol(matrix.all_ones(h))


@functools.lru_cache(maxsize=8)
def all_symbols(h: int) -> tuple[OwlSymbol, ...]:
    """Every symbol of height h, in canonical order. Only sane for h <= 3."""
    matrix._check_h(h)
    if h > 3:
        raise ValueError(f"refusing to enumerate 2^{h * h} symbols")
    # The set-bit positions of a mask, ascending, are its sorted edges, so
    # their bytes sort masks in canonical order. For 2^p <= m < 2^(p+1),
    # keys[m] is keys[m - 2^p] followed by p.
    n, full = h * h, (1 << h) - 1
    keys = [b""]
    for p in range(n):
        keys += [k + bytes((p,)) for k in keys]
    masks = sorted(range(1 << n), key=keys.__getitem__)
    return tuple(_trusted(h, tuple(m >> (i * h) & full for i in range(h))) for m in masks)


# A connectivity fold's working set: the identity padding and the few
# representatives a chain check has just sampled, so a repeated symbol keeps
# its product memo across folds. 64 holds that with room to spare, and
# bounds what a long run keeps alive; extension scans keep their
# generators' matrices in exits._matrices. is_live never looks anything up.
@functools.lru_cache(maxsize=64)
def symbol_matrix(a: OwlSymbol) -> BoolMatrix:
    """A one-symbol string's connectivity is its own edge relation."""
    return matrix._trusted(a.h, a.rows)


def connectivity(z: OwlString) -> BoolMatrix:
    """End-to-end path-existence matrix; multiplicative under concatenation.
    The running product stays a row tuple, so no BoolMatrix is built per
    step; the empty string's is the identity."""
    if not z.symbols:
        return matrix.identity(z.h)
    syms = iter(z.symbols)
    rows = next(syms).rows
    product_rows = matrix._product_rows
    for s in syms:
        rows = product_rows(rows, symbol_matrix(s))
    return matrix._trusted(z.h, rows)


def is_live(z: OwlString) -> bool:
    """Whether the product of z's symbol matrices is nonzero.

    Carries the set of distinct nonzero rows of the running product: each
    step maps every row to the OR of the next symbol's rows that its bits
    pick out and drops 0. Equal rows have equal products, so the set never
    holds more than h rows, and it is empty exactly when the product is
    zero. The empty string is live (its product is the identity).
    Independent of connectivity() and nfa_live(); all three must agree.
    """
    syms = iter(z.symbols)
    first = next(syms, None)
    if first is None:
        return True
    live = set(first.rows)
    live.discard(0)
    for s in syms:
        if not live:
            return False
        rows = s.rows
        nxt = set()
        for row in live:
            acc = 0
            while row:
                low = row & -row
                acc |= rows[low.bit_length() - 1]
                row ^= low
            nxt.add(acc)
        nxt.discard(0)
        live = nxt
    return bool(live)


# The set-bit positions of each byte value, ascending; nfa_live's own, so
# that the two oracles share no code.
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def nfa_live(z: OwlString) -> bool:
    """Subset simulation of the h-state one-way NFA for liveness.

    Starts from the full node set and pushes it through each symbol's edge
    relation, walking the set a byte at a time through the set-bit
    positions of each byte value; the string is live iff the final set is
    nonempty. Independent of connectivity(); the two must agree on every
    input.
    """
    reach = (1 << z.h) - 1
    byte_bits = _BYTE_BITS
    for s in z.symbols:
        rows = s.rows
        nxt = 0
        base = 0
        while reach:
            for i in byte_bits[reach & 255]:
                nxt |= rows[base + i]
            reach >>= 8
            base += 8
        reach = nxt
        if not reach:
            return False
    return True


def representative_symbol(c: BoolMatrix) -> OwlSymbol:
    """The symbol whose edges are exactly the 1-cells of c."""
    return _trusted(c.h, c.rows)


def representative(c: BoolMatrix) -> OwlString:
    """Canonical one-symbol member of the property defined by c."""
    return OwlString(c.h, [representative_symbol(c)])


def sample_member(c: BoolMatrix, rng) -> OwlString:
    """Random member of the property of c: its representative padded on each
    side with up to 3 identity symbols (connectivity-preserving)."""
    h = c.h
    ident = identity_symbol(h)
    pre = [ident] * rng.randint(0, 3)
    post = [ident] * rng.randint(0, 3)
    return OwlString(h, pre + [representative_symbol(c)] + post)


def separation_context(
    c: BoolMatrix, c_other: BoolMatrix
) -> tuple[OwlSymbol, OwlSymbol, bool]:
    """Context symbols (u, v) that make liveness tell the two matrices apart.

    Scans for the first differing cell (i, j) in row-major order. With
    swapped=False the cell is 0 in c and 1 in c_other, so u x v is dead for
    x with connectivity c and u z v is live for z with connectivity c_other;
    swapped=True means the roles of the two matrices are exchanged.
    """
    if c.h != c_other.h:
        raise ValueError("dimension mismatch")
    h = c.h
    for i in range(1, h + 1):
        diff = c.rows[i - 1] ^ c_other.rows[i - 1]
        if diff:
            j = (diff & -diff).bit_length()
            swapped = c.get(i, j) == 1
            u = OwlSymbol(h, [(1, i)])
            v = OwlSymbol(h, [(j, 1)])
            return u, v, swapped
    raise ValueError("matrices are equal; no separating cell")


def suffix_of_choice_witness(c_prev: BoolMatrix, c_next: BoolMatrix) -> OwlSymbol:
    """Symbol u such that x.u.v lands in the property of c_next for every
    x in either property and every v in the property of c_prev.

    Valid only when c_next absorbs c_prev on both sides and is idempotent,
    which holds along the connectivity chain; rejected otherwise.
    """
    if c_prev.h != c_next.h:
        raise ValueError("dimension mismatch")
    if matrix.multiply(c_next, c_prev) != c_next:
        raise ValueError("c_next * c_prev != c_next; witness invalid")
    if matrix.multiply(c_prev, c_next) != c_next:
        raise ValueError("c_prev * c_next != c_next; witness invalid")
    if not matrix.is_idempotent(c_next):
        raise ValueError("c_next is not idempotent; witness invalid")
    return representative_symbol(c_next)
