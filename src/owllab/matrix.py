"""Boolean semiring arithmetic on square bit matrices.

Rows are packed into Python ints (bit j-1 <=> column j, columns 1-based),
so products and sums reduce to word AND/OR operations. Dimension is capped
at 64 so a row always fits one machine word.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

MAX_H = 64

_BYTE_BITS = [tuple(b for b in range(8) if (v >> b) & 1) for v in range(256)]

# Set-bit positions per row value, shared across matrices; rows repeat heavily
# (identity rows, tail rows, all-ones), so this is a near-permanent hit. It
# pays: verify_sequence at h = 40, 48, 56 and 64 took 2.5-2.8 s of CPU with it,
# against 4.1-5.6 s for a lowest-bit walk and 4.8-5.5 s for an uncached walk
# over _BYTE_BITS (4 alternating fresh-process runs, 2-vCPU x86 host, CPython 3.11).
_ROW_BITS: dict[int, tuple[int, ...]] = {}
_ROW_BITS_CAP = 1 << 16


def _row_bits(row: int) -> tuple[int, ...]:
    bits = _ROW_BITS.get(row)
    if bits is None:
        if len(_ROW_BITS) >= _ROW_BITS_CAP:
            _ROW_BITS.clear()
        out = []
        off = 0
        rem = row
        while rem:
            byte = rem & 0xFF
            if byte:
                out.extend(b + off for b in _BYTE_BITS[byte])
            rem >>= 8
            off += 8
        bits = tuple(out)
        _ROW_BITS[row] = bits
    return bits


def _check_h(h: int) -> None:
    if not isinstance(h, int) or not 1 <= h <= MAX_H:
        raise ValueError(f"dimension must be an integer in [1, {MAX_H}], got {h!r}")


@dataclass(frozen=True)
class BoolMatrix:
    """h x h Boolean matrix, rows bit-packed into ints."""

    h: int
    rows: tuple[int, ...]
    _prod_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_h(self.h)
        if len(self.rows) != self.h:
            raise ValueError(f"expected {self.h} rows, got {len(self.rows)}")
        if min(self.rows) < 0 or max(self.rows) >> self.h:
            raise ValueError("row has bits outside the matrix dimension")

    def get(self, i: int, j: int) -> int:
        """Cell (i, j), 1-based."""
        if not (1 <= i <= self.h and 1 <= j <= self.h):
            raise IndexError(f"cell ({i},{j}) out of range for h={self.h}")
        return (self.rows[i - 1] >> (j - 1)) & 1

    def cells(self) -> list[tuple[int, int]]:
        """All 1-cells in row-major order."""
        out = []
        for i in range(1, self.h + 1):
            row = self.rows[i - 1]
            while row:
                low = row & -row
                out.append((i, low.bit_length()))
                row ^= low
        return out

    def is_zero(self) -> bool:
        return not any(self.rows)

    def to_text(self) -> str:
        """h lines of h characters from {0,1}, newline-terminated."""
        lines = []
        for row in self.rows:
            lines.append("".join("1" if (row >> j) & 1 else "0" for j in range(self.h)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BoolMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        h = len(lines)
        _check_h(h)
        rows = []
        for ln in lines:
            ln = ln.strip()
            if len(ln) != h or set(ln) - {"0", "1"}:
                raise ValueError(f"bad matrix line {ln!r} (expected {h} chars of 0/1)")
            rows.append(sum(1 << j for j, ch in enumerate(ln) if ch == "1"))
        return cls(h, tuple(rows))

    @classmethod
    def from_cells(cls, h: int, cells) -> "BoolMatrix":
        _check_h(h)
        rows = [0] * h
        for i, j in cells:
            if not (1 <= i <= h and 1 <= j <= h):
                raise ValueError(f"cell ({i},{j}) out of range for h={h}")
            rows[i - 1] |= 1 << (j - 1)
        return cls(h, tuple(rows))

    def row_hex(self) -> list[str]:
        """Rows as fixed-width hex masks, for JSON export."""
        width = (self.h + 3) // 4
        return [f"{row:0{width}x}" for row in self.rows]

    @classmethod
    def from_row_hex(cls, h: int, rows: list[str]) -> "BoolMatrix":
        return cls(h, tuple(int(r, 16) for r in rows))


@dataclass(frozen=True)
class BoolVector:
    """Length-h Boolean vector with a row/column orientation."""

    h: int
    orientation: str  # "row" | "col"
    bits: int

    def __post_init__(self) -> None:
        _check_h(self.h)
        if self.orientation not in ("row", "col"):
            raise ValueError(f"bad orientation {self.orientation!r}")
        if self.bits & ~((1 << self.h) - 1):
            raise ValueError("vector has bits outside its length")

    def get(self, i: int) -> int:
        if not 1 <= i <= self.h:
            raise IndexError(f"cell {i} out of range for h={self.h}")
        return (self.bits >> (i - 1)) & 1


def unit_col(i: int, h: int) -> BoolVector:
    """Column vector with a single 1 at cell i."""
    if not 1 <= i <= h:
        raise ValueError(f"cell {i} out of range for h={h}")
    return BoolVector(h, "col", 1 << (i - 1))


def tail_row(j: int, h: int) -> BoolVector:
    """Row vector with 1s in cells j, j+1, ..., h."""
    if not 1 <= j <= h:
        raise ValueError(f"cell {j} out of range for h={h}")
    return BoolVector(h, "row", ((1 << h) - 1) & ~((1 << (j - 1)) - 1))


def ones_col(h: int) -> BoolVector:
    _check_h(h)
    return BoolVector(h, "col", (1 << h) - 1)


def identity(h: int) -> BoolMatrix:
    _check_h(h)
    return BoolMatrix(h, tuple(1 << i for i in range(h)))


def zero(h: int) -> BoolMatrix:
    _check_h(h)
    return BoolMatrix(h, (0,) * h)


def all_ones(h: int) -> BoolMatrix:
    _check_h(h)
    return BoolMatrix(h, ((1 << h) - 1,) * h)


def _require_same_h(a, b) -> None:
    if a.h != b.h:
        raise ValueError(f"dimension mismatch: {a.h} vs {b.h}")


def multiply(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Boolean matrix product: cell (i,j) = OR_k a(i,k) AND b(k,j)."""
    _require_same_h(a, b)
    # A product row depends only on the left row's bit pattern, so cache it
    # on the right operand; successive left operands share most rows.
    memo = b._prod_rows
    if len(memo) > 4096:
        memo.clear()
    brows = b.rows
    row_bits = _row_bits
    out = []
    for row in a.rows:
        acc = memo.get(row, -1)
        if acc < 0:
            acc = 0
            for k in row_bits(row):
                acc |= brows[k]
            memo[row] = acc
        out.append(acc)
    return BoolMatrix(a.h, tuple(out))


def add(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Cell-wise OR."""
    _require_same_h(a, b)
    return BoolMatrix(a.h, tuple(map(operator.or_, a.rows, b.rows)))


def is_idempotent(a: BoolMatrix) -> bool:
    return multiply(a, a) == a


def outer(u: BoolVector, v: BoolVector) -> BoolMatrix:
    """Rank-one product of a column vector and a row vector."""
    if u.orientation != "col" or v.orientation != "row":
        raise ValueError("outer expects (column, row)")
    _require_same_h(u, v)
    rows = [0] * u.h
    for i in _row_bits(u.bits):
        rows[i] = v.bits
    return BoolMatrix(u.h, tuple(rows))


def inner(v: BoolVector, u: BoolVector) -> bool:
    """Scalar product of a row vector and a column vector."""
    if v.orientation != "row" or u.orientation != "col":
        raise ValueError("inner expects (row, column)")
    _require_same_h(v, u)
    return bool(v.bits & u.bits)


def mat_vec(a: BoolMatrix, u: BoolVector) -> BoolVector:
    """Matrix times column vector."""
    if u.orientation != "col":
        raise ValueError("mat_vec expects a column vector")
    _require_same_h(a, u)
    bits = 0
    for i, row in enumerate(a.rows):
        if row & u.bits:
            bits |= 1 << i
    return BoolVector(a.h, "col", bits)


def vec_mat(v: BoolVector, a: BoolMatrix) -> BoolVector:
    """Row vector times matrix."""
    if v.orientation != "row":
        raise ValueError("vec_mat expects a row vector")
    _require_same_h(v, a)
    bits = 0
    rem = v.bits
    while rem:
        low = rem & -rem
        bits |= a.rows[low.bit_length() - 1]
        rem ^= low
    return BoolVector(a.h, "row", bits)


def leq(a: BoolMatrix, b: BoolMatrix) -> bool:
    """Cell-wise order: every 1 of a is a 1 of b."""
    _require_same_h(a, b)
    return all(x & ~y == 0 for x, y in zip(a.rows, b.rows))
