"""Boolean semiring arithmetic on square bit matrices.

Rows are packed into Python ints (bit j-1 <=> column j, columns 1-based),
so products and sums reduce to word AND/OR operations. Dimension is capped
at 64 so a row always fits one machine word. Row and column vectors are
plain ints in the same layout (bit i-1 <=> cell i).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import compress, repeat

MAX_H = 64

# Rows a product memo keeps before it starts over; random right operands
# meet many distinct left rows and would otherwise grow without bound.
_MEMO_CAP = 4096

# Bit i-1 <=> cell i, as summands: `compress` picks the cells a vector has.
_BITS = tuple(1 << i for i in range(MAX_H))
# "0"/"1" characters as the bytes 0/1, for reading a vector's cells in order.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class _RowMemo(dict):
    """Product rows against one right operand, keyed by the left row masked
    to the operand's support (the bitmask of its nonzero rows).

    A left row's product is the OR of the right operand's rows that its bits
    pick out, so it depends only on the row's bits at the support: masking
    changes no product, and against an operand with one nonzero row, like
    E'_t, every left row is one of two keys. `support` is computed on the
    operand's first product; it is -1, which masks nothing and so is not
    applied, when no row is zero, as for every chain matrix. A miss is the
    key minus its lowest bit (looked up, and filled in the same way if
    missing too) ORed with one row. Chain matrices' rows share their tails,
    so a miss mostly costs one or two ORs, not one per set bit, and
    `_product_rows` maps the lookup over the left rows in C. The zero row is
    stored up front, so a miss always has a lowest bit.
    """

    __slots__ = ("brows", "support")

    def __init__(self, brows: tuple[int, ...]) -> None:
        self.brows = brows
        self.support = None
        self[0] = 0

    def __missing__(self, row: int) -> int:
        low = row & -row
        acc = self[row ^ low] | self.brows[low.bit_length() - 1]
        self[row] = acc
        return acc


def _cells(rows) -> list[tuple[int, int]]:
    """The 1-cells (i, j) of bit-packed rows, by row and then by column."""
    out = []
    for i, row in enumerate(rows, 1):
        while row:
            low = row & -row
            out.append((i, low.bit_length()))
            row ^= low
    return out


def _check_h(h: int) -> None:
    if type(h) is not int or not 1 <= h <= MAX_H:
        raise ValueError(f"dimension must be an integer in [1, {MAX_H}], got {h!r}")


def _pair_rows(h: int, pairs, what: str) -> tuple[int, ...]:
    """The h rows with bit j-1 of row i set for each pair (i, j) of cells or
    edges (`what` names them in the error for a pair outside [1, h])."""
    _check_h(h)
    rows = [0] * h
    for i, j in pairs:
        if not (1 <= i <= h and 1 <= j <= h):
            raise ValueError(f"{what} ({i},{j}) out of range for h={h}")
        rows[i - 1] |= 1 << (j - 1)
    return tuple(rows)


@dataclass(frozen=True)
class BoolMatrix:
    """h x h Boolean matrix, rows bit-packed into ints."""

    h: int
    rows: tuple[int, ...]
    _prod_rows: _RowMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_h(self.h)
        rows = tuple(self.rows)
        if len(rows) != self.h:
            raise ValueError(f"expected {self.h} rows, got {len(rows)}")
        if set(map(type, rows)) != {int}:  # bools too, as in _check_h
            raise ValueError(f"rows must be ints, got {rows!r}")
        if min(rows) < 0 or max(rows) >> self.h:
            raise ValueError("row has bits outside the matrix dimension")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_prod_rows", _RowMemo(rows))

    def get(self, i: int, j: int) -> int:
        """Cell (i, j), 1-based."""
        if not (1 <= i <= self.h and 1 <= j <= self.h):
            raise IndexError(f"cell ({i},{j}) out of range for h={self.h}")
        return (self.rows[i - 1] >> (j - 1)) & 1

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
        return _trusted(h, _pair_rows(h, cells, "cell"))

    def row_hex(self) -> list[str]:
        """Rows as fixed-width hex masks, for JSON export."""
        width = (self.h + 3) // 4
        return [f"{row:0{width}x}" for row in self.rows]


def identity(h: int) -> BoolMatrix:
    _check_h(h)
    return _trusted(h, tuple(1 << i for i in range(h)))


def zero(h: int) -> BoolMatrix:
    _check_h(h)
    return _trusted(h, (0,) * h)


def all_ones(h: int) -> BoolMatrix:
    _check_h(h)
    return _trusted(h, ((1 << h) - 1,) * h)


def _trusted(h: int, rows: tuple[int, ...]) -> BoolMatrix:
    """A BoolMatrix whose rows are known to be ints that fit h: products and
    sums of valid matrices, and rows built here from a checked height and
    cells. Skips __post_init__'s validation, and fills the frozen fields in
    one dict update rather than three object.__setattr__ calls: verify-seq
    at h = 40..64 builds 36,164, most in `add`, `e_prime`, `outer` and
    `from_cells`."""
    m = object.__new__(BoolMatrix)
    m.__dict__.update(h=h, rows=rows, _prod_rows=_RowMemo(rows))
    return m


def _require_same_h(a, b) -> None:
    if a.h != b.h:
        raise ValueError(f"dimension mismatch: {a.h} vs {b.h}")


def _product_rows(rows: tuple[int, ...], b: BoolMatrix) -> tuple[int, ...]:
    """The rows of the product of a matrix with these rows and b: the one
    product kernel. Callers that only fold or compare products keep the row
    tuples and skip building a BoolMatrix per step; the heights are theirs
    to match."""
    memo = b._prod_rows
    if len(memo) > _MEMO_CAP:
        memo.clear()
        memo[0] = 0
    support = memo.support
    if support is None:
        support = memo.support = sum(compress(_BITS, b.rows)) if 0 in b.rows else -1
    if support != -1:
        rows = map(operator.and_, rows, repeat(support))
    return tuple(map(memo.__getitem__, rows))


def multiply(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Boolean matrix product: cell (i,j) = OR_k a(i,k) AND b(k,j)."""
    _require_same_h(a, b)
    return _trusted(a.h, _product_rows(a.rows, b))


def add(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Cell-wise OR."""
    _require_same_h(a, b)
    return _trusted(a.h, tuple(map(operator.or_, a.rows, b.rows)))


def is_idempotent(a: BoolMatrix) -> bool:
    return multiply(a, a) == a


def _check_vector(bits: int, h: int) -> None:
    _check_h(h)
    if bits < 0 or bits >> h:
        raise ValueError(f"vector has bits outside dimension {h}")


def outer(col: int, row: int, h: int) -> BoolMatrix:
    """Rank-one product of a column and a row, both bit-packed like a row."""
    _check_vector(col, h)
    _check_vector(row, h)
    # Cell i of col, first to last, as 0 or 1 times the row.
    picks = f"{col:0{h}b}"[::-1].encode().translate(_DIGITS)
    return _trusted(h, tuple(map(operator.mul, repeat(row), picks)))


def mat_vec(a: BoolMatrix, col: int) -> int:
    """Matrix times bit-packed column: bit i-1 is set iff row i meets col."""
    _check_vector(col, a.h)
    return sum(compress(_BITS, map(operator.and_, a.rows, repeat(col))))


def vec_mat(row: int, a: BoolMatrix) -> int:
    """Bit-packed row times matrix: the product kernel on one row."""
    _check_vector(row, a.h)
    return _product_rows((row,), a)[0]


def leq(a: BoolMatrix, b: BoolMatrix) -> bool:
    """Cell-wise order: every 1 of a is a 1 of b, so a OR b is b."""
    _require_same_h(a, b)
    return tuple(map(operator.or_, a.rows, b.rows)) == b.rows
