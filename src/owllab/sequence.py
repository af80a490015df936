"""The quadratically-long chain of idempotent connectivities.

Starting from the identity, the chain fills the strict upper triangle one
cell at a time (stage 1), then the strict lower triangle one column at a
time (stage 2), and finally drops to the zero matrix (stage 3). Each build
cross-checks the plain single-cell/single-column increments against their
widened variants, whose algebra carries the idempotence and absorption
identities this module also verifies. Nothing is kept between calls: each
call rebuilds what it needs from its arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import matrix, owl
from .matrix import BoolMatrix, mat_vec, outer, vec_mat


def num_upper(h: int) -> int:
    """Number of strict-upper-triangle cells, C(h, 2)."""
    return h * (h - 1) // 2


def chain_length(h: int) -> int:
    """Total number of steps in the chain, C(h+1, 2)."""
    return h * (h + 1) // 2


def cell_index(t: int, h: int) -> tuple[int, int]:
    """The t-th strict-upper-triangle cell: columns h down to 2, and bottom
    to top within each column; always i < j."""
    u = num_upper(h)
    if not 1 <= t <= u:
        raise ValueError(f"t={t} outside stage 1 range [1, {u}] for h={h}")
    # Columns h..j+1 hold u - j(j-1)/2 cells, so cell t lies in the least
    # column j with j(j-1)/2 > u - t. The greatest k with k(k-1)/2 <= u - t
    # is (1 + isqrt(8(u - t) + 1)) // 2, exactly, and j = k + 1.
    j = (1 + math.isqrt(8 * (u - t) + 1)) // 2 + 1
    return (j - t + u - j * (j - 1) // 2, j)


def e_matrix(t: int, h: int) -> BoolMatrix:
    """Single 1 at the t-th cell."""
    matrix._check_h(h)
    return BoolMatrix.from_cells(h, [cell_index(t, h)])


def _tail_bits(j: int, h: int) -> int:
    """A row with 1s in columns j..h."""
    return ((1 << h) - 1) >> (j - 1) << (j - 1)


def e_prime(t: int, h: int) -> BoolMatrix:
    """The t-th cell plus all cells to its right in the same row; built
    without `outer`, which verify_sequence checks it against."""
    matrix._check_h(h)
    i, j = cell_index(t, h)
    rows = [0] * h
    rows[i - 1] = _tail_bits(j, h)
    return matrix._trusted(h, tuple(rows))


def stage2_column(t: int, h: int) -> int:
    """Column filled at step t of stage 2."""
    u, n = num_upper(h), chain_length(h)
    if not u + 1 <= t <= n - 1:
        raise ValueError(f"t={t} outside stage 2 range [{u + 1}, {n - 1}] for h={h}")
    return h - (t - u)


def d_matrix(t: int, h: int) -> BoolMatrix:
    """1s in the stage-2 column strictly below the diagonal."""
    matrix._check_h(h)  # before listing up to h - 1 cells
    j = stage2_column(t, h)
    return BoolMatrix.from_cells(h, [(i, j) for i in range(j + 1, h + 1)])


def d_prime(t: int, h: int) -> BoolMatrix:
    """All-ones columns from the stage-2 column rightward; built without
    `outer`, like e_prime."""
    matrix._check_h(h)
    j = stage2_column(t, h)
    return matrix._trusted(h, (_tail_bits(j, h),) * h)


@dataclass(frozen=True)
class ConnectivitySequence:
    h: int
    matrices: tuple[BoolMatrix, ...]

    def __getitem__(self, t: int) -> BoolMatrix:
        return self.matrices[t]

    def to_json(self) -> dict:
        return {"h": self.h, "matrices": [m.row_hex() for m in self.matrices]}


def _chain(h: int):
    """Yield C_0 .. C_N for height h, the chain's one builder. Each step is
    cross-checked against its widened increment before it is yielded, and
    stage 2 must end all-ones. Only the matrix last yielded is kept here, so
    a caller that drops each one holds no more of the chain than it keeps."""
    u, n = num_upper(h), chain_length(h)
    cur = matrix.identity(h)
    yield cur
    for t in range(1, n):
        if t <= u:
            plain = matrix.add(cur, e_matrix(t, h))
            primed = matrix.add(cur, e_prime(t, h))
        else:
            plain = matrix.add(cur, d_matrix(t, h))
            primed = matrix.add(cur, d_prime(t, h))
        if plain != primed:
            raise AssertionError(f"plain/widened increment disagree at t={t}, h={h}")
        cur = plain
        yield cur
    if cur != matrix.all_ones(h):
        raise AssertionError(f"stage 2 did not end all-ones for h={h}")
    yield matrix.zero(h)


def build_sequence(h: int) -> ConnectivitySequence:
    """All chain matrices for height h, cross-checked against the widened
    increments."""
    matrix._check_h(h)
    return ConnectivitySequence(h, tuple(_chain(h)))


@dataclass
class SequenceReport:
    """Outcome of the identity and contract checks over a whole chain."""

    h: int
    checks_run: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def _check(self, cond: bool, fmt: str, *args) -> None:
        """Count a check; the failure label is only formatted on failure,
        since this runs hundreds of thousands of times."""
        self.checks_run += 1
        if not cond:
            self.failures.append(fmt % args if args else fmt)

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "U": num_upper(self.h),
            "N": chain_length(self.h),
            "checks_run": self.checks_run,
            "failures": list(self.failures),
            "ok": self.ok,
        }


def verify_sequence(h: int, oracle_samples: int = 3, seed: int = 0) -> SequenceReport:
    """Machine-check every chain identity for height h.

    Covers, for each applicable t: the widened-increment algebra (square and
    two-sided absorption by the predecessor), idempotence of each chain
    matrix, the two-sided consecutive products, strict growth, the rank-one
    vector identities behind the proofs, and (when oracle_samples > 0)
    sampled separation-context and forcing-suffix contracts through the
    string-level liveness oracle.
    """
    matrix._check_h(h)
    u, n = num_upper(h), chain_length(h)
    rep = SequenceReport(h)
    rng = random.Random(seed)
    zero_rows = (0,) * h
    # Oracle sampling is O(h^2) strings; thin out the t range for large h
    # so the whole [1, 64] sweep stays fast.
    oracle_stride = max(1, n // 64) if oracle_samples else 0
    # Each product is compared as its row tuple; no matrix is built for it.
    prod = matrix._product_rows
    check = rep._check
    # Every check reads only C_{t-1} and C_t, so the chain is streamed: a
    # matrix and the product memo its checks fill are dropped two steps on.
    ct = None
    for t, step in enumerate(_chain(h)):
        prev, ct = ct, step
        check(prod(ct.rows, ct) == ct.rows, "C_%d^2 != C_%d (h=%d)", t, t, h)
        if t == 0:
            continue
        check(prev != ct, "C_%d == C_%d (h=%d)", t - 1, t, h)
        check(prod(prev.rows, ct) == ct.rows, "C_%dC_%d != C_%d (h=%d)", t - 1, t, t, h)
        check(prod(ct.rows, prev) == ct.rows, "C_%dC_%d != C_%d (h=%d)", t, t - 1, t, h)
        if t < n:
            check(matrix.leq(prev, ct), "C_%d lost a 1 of C_%d (h=%d)", t, t - 1, h)
        if 1 <= t <= u:
            i, j = cell_index(t, h)
            ep = e_prime(t, h)
            e_i, r_j = 1 << (i - 1), _tail_bits(j, h)
            check(prod(ep.rows, ep) == zero_rows, "(E'_%d)^2 != 0 (h=%d)", t, h)
            check(prod(prev.rows, ep) == ep.rows, "C_%dE'_%d != E'_%d (h=%d)", t - 1, t, t, h)
            check(prod(ep.rows, prev) == ep.rows, "E'_%dC_%d != E'_%d (h=%d)", t, t - 1, t, h)
            check(ep == outer(e_i, r_j, h), "E'_%d != outer (h=%d)", t, h)
            check(not r_j & e_i, "inner(r_%d, e_%d) != 0 (h=%d)", j, i, h)
            check(mat_vec(prev, e_i) == e_i, "C_%de_%d != e_%d (h=%d)", t - 1, i, i, h)
            check(vec_mat(r_j, prev) == r_j, "r_%dC_%d != r_%d (h=%d)", j, t - 1, j, h)
        elif t < n:
            j = stage2_column(t, h)
            dp = d_prime(t, h)
            one, r_j = (1 << h) - 1, _tail_bits(j, h)
            check(prod(dp.rows, dp) == dp.rows, "(D'_%d)^2 != D'_%d (h=%d)", t, t, h)
            check(prod(prev.rows, dp) == dp.rows, "C_%dD'_%d != D'_%d (h=%d)", t - 1, t, t, h)
            check(prod(dp.rows, prev) == dp.rows, "D'_%dC_%d != D'_%d (h=%d)", t, t - 1, t, h)
            check(dp == outer(one, r_j, h), "D'_%d != outer (h=%d)", t, h)
            check(r_j & one, "inner(r_%d, 1) != 1 (h=%d)", j, h)
            check(mat_vec(prev, one) == one, "C_%d*ones != ones (h=%d)", t - 1, h)
            check(vec_mat(r_j, prev) == r_j, "r_%dC_%d != r_%d (h=%d)", j, t - 1, j, h)
        if oracle_stride and (t % oracle_stride == 0 or t == n):
            _check_contracts(rep, prev, ct, t, h, rng, oracle_samples)
    return rep


def _check_contracts(rep, prev, ct, t, h, rng, samples) -> None:
    """Sampled separation-context and forcing-suffix contracts for one step."""
    u, v, swapped = owl.separation_context(prev, ct)
    suffix = owl.suffix_of_choice_witness(prev, ct)
    ustr = owl.OwlString(h, [u])
    vstr = owl.OwlString(h, [v])
    for _ in range(samples):
        x = owl.sample_member(prev, rng)
        z = owl.sample_member(ct, rng)
        live_x = owl.is_live(ustr + x + vstr)
        live_z = owl.is_live(ustr + z + vstr)
        rep._check(live_x != live_z, f"separation XOR fails at t={t} (h={h})")
        rep._check(live_z != swapped, f"separation orientation wrong at t={t} (h={h})")
        w = rng.choice([x, z])
        vv = owl.sample_member(prev, rng)
        forced = w + owl.OwlString(h, [suffix]) + vv
        rep._check(
            owl.connectivity(forced) == ct, f"forcing suffix fails at t={t} (h={h})"
        )
