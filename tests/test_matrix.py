"""Unit tests for the Boolean matrix semiring."""

import random

import pytest

from owllab import matrix, owl
from owllab.matrix import (
    BoolMatrix,
    add,
    all_ones,
    identity,
    is_idempotent,
    leq,
    mat_vec,
    multiply,
    outer,
    vec_mat,
    zero,
)


def random_matrix(rng, h):
    return BoolMatrix(h, tuple(rng.getrandbits(h) for _ in range(h)))


def brute_multiply(a, b):
    h = a.h
    return BoolMatrix.from_cells(
        h,
        [
            (i, j)
            for i in range(1, h + 1)
            for j in range(1, h + 1)
            if any(a.get(i, k) and b.get(k, j) for k in range(1, h + 1))
        ],
    )


def test_from_text_round_trip():
    text = "101\n010\n001\n"
    m = BoolMatrix.from_text(text)
    assert m.h == 3
    assert m.to_text() == text
    assert m.get(1, 1) == 1
    assert m.get(1, 2) == 0
    assert m.get(1, 3) == 1
    assert m.get(3, 3) == 1


def test_from_cells_and_cells_round_trip():
    cells = [(1, 2), (2, 1), (3, 3)]
    m = BoolMatrix.from_cells(3, cells)
    assert owl.representative_symbol(m).sorted_edges == tuple(sorted(cells))


def test_cells_are_row_major():
    m = BoolMatrix.from_text("011\n000\n110\n")
    assert owl.representative_symbol(m).sorted_edges == ((1, 2), (1, 3), (3, 1), (3, 2))


def test_bad_dimension_rejected():
    with pytest.raises(ValueError):
        BoolMatrix(0, ())
    with pytest.raises(ValueError):
        BoolMatrix(65, (0,) * 65)
    with pytest.raises(ValueError):
        BoolMatrix(2, (0,))
    with pytest.raises(ValueError):
        BoolMatrix(2, (4, 0))  # bit outside the 2x2 square


def test_bad_text_rejected():
    with pytest.raises(ValueError):
        BoolMatrix.from_text("10\n1\n")
    with pytest.raises(ValueError):
        BoolMatrix.from_text("1x\n01\n")


def test_get_out_of_range():
    m = identity(2)
    with pytest.raises(IndexError):
        m.get(0, 1)
    with pytest.raises(IndexError):
        m.get(1, 3)


def test_constants():
    assert identity(3).to_text() == "100\n010\n001\n"
    assert zero(2).rows == (0, 0)
    assert identity(1) != zero(1)
    assert all_ones(2).to_text() == "11\n11\n"


def test_multiply_hand_example():
    a = BoolMatrix.from_text("110\n001\n000\n")
    b = BoolMatrix.from_text("010\n010\n100\n")
    assert multiply(a, b).to_text() == "010\n100\n000\n"


def test_multiply_matches_brute_force():
    rng = random.Random(0)
    for _ in range(200):
        h = rng.randint(1, 7)
        a, b = random_matrix(rng, h), random_matrix(rng, h)
        assert multiply(a, b) == brute_multiply(a, b)


def test_multiply_identity_and_zero():
    rng = random.Random(1)
    for h in (1, 3, 6):
        a = random_matrix(rng, h)
        assert multiply(a, identity(h)) == a
        assert multiply(identity(h), a) == a
        assert multiply(a, zero(h)) == zero(h)
        assert multiply(zero(h), a) == zero(h)


def test_multiply_associative():
    rng = random.Random(2)
    for _ in range(100):
        h = rng.randint(1, 6)
        a, b, c = (random_matrix(rng, h) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_multiply_repeated_calls_consistent():
    # The product-row cache on the right operand must not change results.
    rng = random.Random(3)
    a, b = random_matrix(rng, 5), random_matrix(rng, 5)
    first = multiply(a, b)
    assert multiply(a, b) == first
    assert multiply(identity(5), b) == b


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(identity(2), identity(3))


def test_add_is_cellwise_or():
    a = BoolMatrix.from_text("10\n00\n")
    b = BoolMatrix.from_text("01\n01\n")
    assert add(a, b).to_text() == "11\n01\n"


def test_distributivity():
    rng = random.Random(4)
    for _ in range(100):
        h = rng.randint(1, 6)
        a, b, c = (random_matrix(rng, h) for _ in range(3))
        assert multiply(a, add(b, c)) == add(multiply(a, b), multiply(a, c))
        assert multiply(add(a, b), c) == add(multiply(a, c), multiply(b, c))


def test_leq():
    a = BoolMatrix.from_text("10\n00\n")
    b = BoolMatrix.from_text("11\n01\n")
    assert leq(a, b)
    assert not leq(b, a)
    assert leq(a, a)


def test_is_idempotent():
    assert is_idempotent(identity(4))
    assert is_idempotent(zero(3))
    assert is_idempotent(all_ones(3))
    swap = BoolMatrix.from_text("01\n10\n")
    assert not is_idempotent(swap)


def embed_col(col, h):
    """Column vector as the first column of an otherwise-zero matrix."""
    return BoolMatrix(h, tuple((col >> i) & 1 for i in range(h)))


def embed_row(row, h):
    """Row vector as the first row of an otherwise-zero matrix."""
    return BoolMatrix(h, (row,) + (0,) * (h - 1))


def test_outer_matches_matrix_product():
    rng = random.Random(5)
    for _ in range(100):
        h = rng.randint(1, 6)
        col, row = rng.getrandbits(h), rng.getrandbits(h)
        assert outer(col, row, h) == multiply(embed_col(col, h), embed_row(row, h))


def test_mat_vec_and_vec_mat_match_matrix_product():
    rng = random.Random(7)
    for _ in range(100):
        h = rng.randint(1, 6)
        a = random_matrix(rng, h)
        col, row = rng.getrandbits(h), rng.getrandbits(h)
        assert embed_col(mat_vec(a, col), h) == multiply(a, embed_col(col, h))
        assert embed_row(vec_mat(row, a), h) == multiply(embed_row(row, h), a)


def test_vectors_must_fit_the_dimension():
    for bad in (4, -1):
        with pytest.raises(ValueError):
            outer(bad, 1, 2)
        with pytest.raises(ValueError):
            mat_vec(identity(2), bad)
        with pytest.raises(ValueError):
            vec_mat(bad, identity(2))
    with pytest.raises(ValueError):
        outer(1, 4, 2)


def test_row_hex_round_trip():
    rng = random.Random(8)
    for h in (1, 4, 5, 17, 64):
        m = random_matrix(rng, h)
        assert BoolMatrix(h, tuple(int(r, 16) for r in m.row_hex())) == m
        assert all(len(s) == (h + 3) // 4 for s in m.row_hex())


def test_multiply_memo_is_invisible():
    rng = random.Random(9)
    for h in (1, 5, 64):
        a, b = random_matrix(rng, h), random_matrix(rng, h)
        multiply(a, b)
        fresh = BoolMatrix(h, b.rows)
        assert b == fresh
        assert hash(b) == hash(fresh)
        assert repr(b) == repr(fresh)


def high_runs_matrix(rng, h):
    """Rows that are runs of high bits, sharing tails like the chain's rows."""
    full = (1 << h) - 1
    return BoolMatrix(h, tuple(full >> j << j for j in (rng.randint(0, h) for _ in range(h))))


def test_multiply_matches_brute_force_at_full_width():
    rng = random.Random(10)
    for h in [64, 64, 1] + [rng.randint(1, 64) for _ in range(9)]:
        b = random_matrix(rng, h)
        for a in (random_matrix(rng, h), high_runs_matrix(rng, h), high_runs_matrix(rng, h)):
            assert multiply(a, b) == brute_multiply(a, b), h
        a, c = high_runs_matrix(rng, h), high_runs_matrix(rng, h)
        assert multiply(a, c) == brute_multiply(a, c), h


def test_multiply_past_the_memo_cap():
    # One right operand against more distinct left rows than the memo keeps,
    # so the memo is cleared between products.
    rng = random.Random(11)
    h = 16
    b = random_matrix(rng, h)
    seen = set()
    for _ in range(320):
        a = random_matrix(rng, h)
        seen.update(a.rows)
        assert multiply(a, b) == brute_multiply(a, b)
    assert len(seen) > matrix._MEMO_CAP
    assert len(b._prod_rows) <= matrix._MEMO_CAP + h * h


def test_products_and_sums_are_plain_matrices():
    rng = random.Random(12)
    for h in (1, 7, 64):
        a, b = random_matrix(rng, h), random_matrix(rng, h)
        for p in (multiply(a, b), add(a, b)):
            plain = BoolMatrix(h, p.rows)
            assert p == plain and plain == p
            assert hash(p) == hash(plain)
            assert repr(p) == repr(plain)
            assert multiply(p, b) == multiply(plain, b)


def test_constructor_still_validates():
    with pytest.raises(ValueError):
        BoolMatrix(3, (0, 8, 0))  # bit outside the 3x3 square
    with pytest.raises(ValueError):
        BoolMatrix(3, (0, -1, 0))
    with pytest.raises(ValueError):
        BoolMatrix(64, (1 << 64,) + (0,) * 63)
    with pytest.raises(ValueError):
        BoolMatrix(True, (1,))  # a bool is no height


def test_constructor_stores_a_list_as_a_tuple():
    a = BoolMatrix(2, [1, 2])
    assert type(a.rows) is tuple
    assert a == identity(2) and identity(2) == a
    assert hash(a) == hash(identity(2))
    b = random_matrix(random.Random(13), 2)
    assert multiply(identity(2), a) == identity(2)
    assert multiply(a, b) == b and multiply(b, a) == b
    assert BoolMatrix(3, iter([1, 0, 4])) == BoolMatrix.from_text("100\n000\n001\n")


def test_constructor_refuses_rows_that_are_not_ints():
    for rows in ((1.5, 0), ("a", "b"), (True, 0), (1, False), (1, None)):
        with pytest.raises(ValueError, match="rows must be ints"):
            BoolMatrix(2, rows)


def naive_product_rows(rows, b):
    """OR of b's rows picked out by each left row's bits, one bit at a time."""
    out = []
    for row in rows:
        acc = 0
        for k in range(b.h):
            if row >> k & 1:
                acc |= b.rows[k]
        out.append(acc)
    return tuple(out)


def test_product_rows_matches_the_naive_product():
    rng = random.Random(14)
    for h in (1, 2, 7, 16, 64):
        for _ in range(20):
            a, b = random_matrix(rng, h), random_matrix(rng, h)
            # Zero rows on the left, and a right operand with zero rows.
            a_rows = tuple(r if rng.random() < 0.7 else 0 for r in a.rows)
            b = BoolMatrix(h, tuple(r if rng.random() < 0.7 else 0 for r in b.rows))
            got = matrix._product_rows(a_rows, b)
            assert type(got) is tuple
            assert got == naive_product_rows(a_rows, b), h
            assert multiply(BoolMatrix(h, a_rows), b).rows == got
        assert matrix._product_rows((0,) * h, b) == (0,) * h


def test_memo_stores_the_zero_row_when_built():
    rng = random.Random(15)
    for h in (1, 16, 64):
        a, b = random_matrix(rng, h), random_matrix(rng, h)
        for m in (a, multiply(a, b), add(a, b), identity(h)):
            assert dict(m._prod_rows) == {0: 0}


def test_product_rows_past_the_memo_cap():
    rng = random.Random(16)
    h = 16
    b = random_matrix(rng, h)
    memo = b._prod_rows
    clears = 0
    for _ in range(400):
        rows = tuple(rng.getrandbits(h) if rng.random() < 0.8 else 0 for _ in range(h))
        before = len(memo)
        assert matrix._product_rows(rows, b) == naive_product_rows(rows, b)
        if len(memo) < before:
            clears += 1
            assert dict.get(memo, 0, None) == 0  # stored again after the clear
    assert clears >= 1
    assert len(memo) <= matrix._MEMO_CAP + h * h


def naive_mat_vec(a, col):
    cells = range(1, a.h + 1)
    return sum(1 << (i - 1) for i in cells if any(a.get(i, k) and col >> (k - 1) & 1 for k in cells))


def naive_vec_mat(row, a):
    cells = range(1, a.h + 1)
    return sum(1 << (j - 1) for j in cells if any(row >> (k - 1) & 1 and a.get(k, j) for k in cells))


def naive_outer(col, row, h):
    cells = range(1, h + 1)
    return BoolMatrix.from_cells(
        h, [(i, j) for i in cells for j in cells if col >> (i - 1) & 1 and row >> (j - 1) & 1]
    )


def naive_leq(a, b):
    return all(b.get(i, j) for i in range(1, a.h + 1) for j in range(1, a.h + 1) if a.get(i, j))


def test_vector_helpers_match_naive_references():
    # Cell by cell, without the product kernel that vec_mat runs on.
    rng = random.Random(17)
    for h in (1, 2, 7, 64):
        full = (1 << h) - 1
        vectors = [0, full, 1, 1 << (h - 1)] + [rng.getrandbits(h) for _ in range(4)]
        for _ in range(4):
            a = random_matrix(rng, h)
            a_zero_rows = BoolMatrix(h, tuple(r if rng.random() < 0.5 else 0 for r in a.rows))
            for m in (a, a_zero_rows, zero(h), all_ones(h), identity(h)):
                for v in vectors:
                    assert mat_vec(m, v) == naive_mat_vec(m, v), h
                    assert vec_mat(v, m) == naive_vec_mat(v, m), h
                for b in (a, a_zero_rows, add(m, a), zero(h), all_ones(h)):
                    assert leq(m, b) == naive_leq(m, b), h
        for col in vectors:
            for row in vectors:
                assert outer(col, row, h) == naive_outer(col, row, h), h


def single_row_matrix(h, i, row):
    """Zero but for row i, as E'_t is."""
    return BoolMatrix(h, tuple(row if k == i else 0 for k in range(1, h + 1)))


def test_masked_kernel_matches_the_naive_product_on_every_support():
    rng = random.Random(18)
    for h in (1, 2, 7, 16, 64):
        full = (1 << h) - 1
        i = rng.randint(1, h)
        rng_rows = random_matrix(rng, h).rows
        operands = [
            zero(h),
            single_row_matrix(h, i, rng.getrandbits(h) | 1),
            single_row_matrix(h, i, full),
            BoolMatrix(h, tuple(rng.getrandbits(h) | 1 << rng.randrange(h) for _ in range(h))),
            BoolMatrix(h, tuple(r if rng.random() < 0.6 else 0 for r in rng_rows)),
        ]
        lefts = [(0,) * h, (full,) * h] + [random_matrix(rng, h).rows for _ in range(10)]
        for b in operands:
            for rows in lefts:
                assert matrix._product_rows(rows, b) == naive_product_rows(rows, b), h
                assert vec_mat(rows[0], b) == naive_product_rows(rows[:1], b)[0], h


def test_single_row_operand_memo_holds_at_most_two_keys():
    # A left row's product against E'_t reads only its bit at E'_t's nonzero
    # row, so every product against it is one of two memo keys.
    rng = random.Random(19)
    for h in (2, 7, 64):
        for i in (1, h):
            b = single_row_matrix(h, i, rng.getrandbits(h) | 1)
            for a in [random_matrix(rng, h) for _ in range(20)] + [all_ones(h), identity(h)]:
                assert multiply(a, b).rows == naive_product_rows(a.rows, b)
                assert vec_mat(a.rows[0], b) == naive_product_rows(a.rows[:1], b)[0]
                assert len(b._prod_rows) <= 2, (h, i, dict(b._prod_rows))
        z = zero(h)
        multiply(random_matrix(rng, h), z)
        assert dict(z._prod_rows) == {0: 0}


def test_sparse_operand_past_the_memo_cap():
    # A right operand with zero rows whose support still has more masked left
    # rows than the memo keeps: the memo is cleared between products, and
    # every key it holds lies inside the support.
    rng = random.Random(20)
    h = 16
    zero_at = set(rng.sample(range(h), 3))
    b = BoolMatrix(h, tuple(0 if k in zero_at else rng.getrandbits(h) | 1 for k in range(h)))
    support = sum(1 << k for k in range(h) if k not in zero_at)
    memo = b._prod_rows
    clears = 0
    for _ in range(400):
        rows = tuple(rng.getrandbits(h) for _ in range(h))
        before = len(memo)
        assert matrix._product_rows(rows, b) == naive_product_rows(rows, b)
        if len(memo) < before:
            clears += 1
        assert all(key & ~support == 0 for key in memo)
    assert clears >= 1
    assert len(memo) <= matrix._MEMO_CAP + h * h
