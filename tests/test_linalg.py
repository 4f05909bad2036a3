"""Exact linear algebra over field contexts.  Every field takes one
vectorized path: fields up to TABLE_LIMIT index numpy tables, fields up to
LOG_LIMIT views over O(q) exp/log tables and larger fields views that
compute on digits, and every kind of one field must agree exactly."""

import random

import numpy as np
import pytest

from fermatrc import linalg
from fermatrc.ff import TABLE_LIMIT, FieldCtx, _DigitFieldCtx
from fermatrc.forms import Form
from fermatrc.search import _combine
from fermatrc.splitbundle import mult_matrix


def _random_matrix(rng, ctx, rows, cols):
    return np.array(
        [[rng.randrange(ctx.q) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )


def _matvec(ctx, M, v):
    out = []
    for row in M:
        acc = 0
        for a, b in zip(row, v):
            acc = ctx.add(acc, ctx.mul(int(a), int(b)))
        out.append(acc)
    return out


def test_rref_fixture_gf3(gf3):
    R, pivots = linalg.rref(gf3, [[1, 2], [2, 1]])
    assert pivots == [0]
    assert R[0].tolist() == [1, 2]
    assert not R[1].any()


def test_rref_is_idempotent(gf9):
    rng = random.Random(3)
    for _ in range(20):
        M = _random_matrix(rng, gf9, 4, 6)
        R, pivots = linalg.rref(gf9, M)
        R2, pivots2 = linalg.rref(gf9, R)
        assert pivots == pivots2
        assert np.array_equal(R, R2)


def test_kernel_basis_annihilates_matrix(gf9):
    rng = random.Random(5)
    for _ in range(25):
        M = _random_matrix(rng, gf9, 3, 7)
        K = linalg.kernel_basis(gf9, M)
        assert K.shape[0] == 7 - linalg.rank(gf9, M)
        for v in K:
            assert _matvec(gf9, M, v) == [0, 0, 0]


def test_kernel_basis_rows_are_independent(gf9):
    rng = random.Random(9)
    M = _random_matrix(rng, gf9, 4, 9)
    K = linalg.kernel_basis(gf9, M)
    assert linalg.rank(gf9, K) == K.shape[0]


def test_solve_consistent_and_inconsistent(gf3):
    A = [[1, 1], [0, 1]]
    x = linalg.solve(gf3, A, [2, 1])
    assert x is not None
    assert _matvec(gf3, np.array(A), x) == [2, 1]
    B = [[1, 1], [2, 2]]
    assert linalg.solve(gf3, B, [0, 1]) is None


def test_echelon_membership(gf9):
    ech = linalg.Echelon(gf9, 4)
    assert ech.add([1, 2, 0, 0])
    assert ech.add([0, 0, 3, 1])
    # 2 * (1, 2, 0, 0) has second entry 2*2 = 1 in GF(9)
    assert not ech.add([2, 1, 0, 0])
    # sum of the two stored rows
    assert not ech.add([1, 2, 3, 1])
    assert ech.dim == 2


def test_seed_rows_matches_sequential_adds(gf9):
    rng = random.Random(13)
    for _ in range(15):
        M = _random_matrix(rng, gf9, 5, 6)
        seeded = linalg.Echelon(gf9, 6)
        seeded.seed_rows(M)
        serial = linalg.Echelon(gf9, 6)
        for row in M:
            serial.add(row)
        assert seeded.dim == serial.dim
        probe = _random_matrix(rng, gf9, 8, 6)
        for v in probe:
            a = seeded.reduce(v)
            b = serial.reduce(v)
            assert bool(a.any()) == bool(b.any())


def _agreement_matrices(rng, ctx):
    """Seeded matrices, including the empty, all-zero and rank-deficient
    shapes the routines treat specially."""
    mats = [np.zeros(shape, dtype=np.int64) for shape in ((0, 4), (3, 0), (0, 0), (3, 5))]
    mats += [_random_matrix(rng, ctx, r, c) for r, c in ((4, 6), (6, 4), (5, 5), (1, 3))]
    low = _random_matrix(rng, ctx, 2, 6)
    mats.append(np.vstack([low, low[::-1], low]))
    return mats


def _assert_same(a, b):
    if a is None or b is None:
        assert a is None and b is None
    else:
        assert a.dtype == b.dtype == np.int64 and a.shape == b.shape
        assert np.array_equal(a, b)


def test_digit_and_table_fields_agree():
    # GF(729) and GF(3^7) are in the exp/log tier, the others fully tabulated
    for p, n in ((3, 2), (2, 6), (5, 3), (3, 6), (3, 7)):
        tab, dig = FieldCtx(p, n), _DigitFieldCtx(p, n)
        assert tab == dig and tab.modulus == dig.modulus and type(tab) is FieldCtx
        assert isinstance(tab.tables().mul, np.ndarray) == (tab.q <= TABLE_LIMIT)
        assert not isinstance(dig.tables().mul, np.ndarray)
        rng = random.Random(tab.q)
        for M in _agreement_matrices(rng, tab):
            rows, cols = M.shape
            (R1, P1), (R2, P2) = linalg.rref(tab, M), linalg.rref(dig, M)
            assert P1 == P2
            _assert_same(R1, R2)
            assert linalg.rank(tab, M) == linalg.rank(dig, M) == len(P1)
            K = linalg.kernel_basis(tab, M)
            _assert_same(K, linalg.kernel_basis(dig, M))
            rhs_list = [[rng.randrange(tab.q) for _ in range(rows)]]
            if cols:
                rhs_list.append(M[:, 0].tolist())
            for rhs in rhs_list:
                _assert_same(linalg.solve(tab, M, rhs), linalg.solve(dig, M, rhs))
            probes = _random_matrix(rng, tab, 4, cols)
            echelons = [linalg.Echelon(ctx, cols) for ctx in (tab, dig)]
            for ech in echelons:
                ech.seed_rows(M[: rows // 2])
            for row in list(M[rows // 2 :]) + list(probes[:2]):
                assert echelons[0].add(row) == echelons[1].add(row)
            assert echelons[0].pivots == echelons[1].pivots
            for r1, r2 in zip(echelons[0].rows, echelons[1].rows):
                _assert_same(r1, r2)
            for v in list(probes) + list(M):
                _assert_same(echelons[0].reduce(v), echelons[1].reduce(v))
                _assert_same(linalg.normalize_leading(tab, v), linalg.normalize_leading(dig, v))
            for basis in (M, K):
                coeffs = [rng.randrange(tab.q) for _ in range(basis.shape[0])]
                _assert_same(_combine(tab, basis, coeffs), _combine(dig, basis, coeffs))
        inconsistent = ([[1, 1], [1, 1]], [0, 1])
        assert linalg.solve(tab, *inconsistent) is None
        assert linalg.solve(dig, *inconsistent) is None
    # GF(625), an exp/log field, against matrix-vector products
    big = FieldCtx(5, 4)
    assert not isinstance(big.tables().mul, np.ndarray)
    rng = random.Random(17)
    M = _random_matrix(rng, big, 3, 6)
    K = linalg.kernel_basis(big, M)
    assert K.shape[0] == 6 - linalg.rank(big, M)
    for v in K:
        assert _matvec(big, M, v) == [0, 0, 0]


def _scalar_rref(ctx, M):
    """Gauss-Jordan on lists of Python ints through the checked scalar ops."""
    A = [[int(x) for x in row] for row in M]
    pivots, r = [], 0
    for c in range(len(A[0]) if A else 0):
        pr = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        lead = ctx.inv(A[r][c])
        A[r] = [ctx.mul(lead, x) for x in A[r]]
        for i, row in enumerate(A):
            if i != r and row[c]:
                f = row[c]
                A[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(row, A[r])]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    return A, pivots


def _oracle_matrices(rng, ctx):
    """Random matrices with zero columns and pivots below the diagonal, and
    multiplication matrices with a zero entry and a root at s = 0."""
    mats = [_random_matrix(rng, ctx, r, c) for r, c in ((1, 1), (3, 7), (7, 3), (6, 6))]
    M = _random_matrix(rng, ctx, 6, 8)
    M[:, [0, 3, 7]] = 0
    M[:-1, 1] = 0  # the pivot of column 1 is the last row: a swap
    M[-1, 1] = 1 + rng.randrange(ctx.q - 1)
    M[:2, 2] = 0
    mats.append(M)
    mats.append(np.vstack([M[3:], M[:3], M[3:]]))  # rank deficient
    t_times = Form.make(ctx, 3, [0] + [rng.randrange(ctx.q) for _ in range(3)])
    entries = [
        (Form.make(ctx, 2, [rng.randrange(ctx.q) for _ in range(3)]), 2),
        (Form.zero(ctx, 1), 1),
        (t_times, 3),
    ]
    for m in (3, 6):
        mult = mult_matrix(entries, m)
        mats += [mult, mult[:, rng.sample(range(mult.shape[1]), mult.shape[1])]]
    return mats


@pytest.mark.parametrize("field", [(3, 1), (3, 2), (2, 4), (3, 6), "digits"],
                         ids=["GF(3)", "GF(9)", "GF(16)", "GF(729)", "GF(32) digits"])
def test_rref_equals_the_scalar_elimination(field):
    # the reduced row echelon form is unique, so the two agree exactly
    ctx = _DigitFieldCtx(2, 5) if field == "digits" else FieldCtx(*field)
    assert isinstance(ctx.tables().mul, np.ndarray) == (field != "digits" and ctx.q <= TABLE_LIMIT)
    rng = random.Random(ctx.q)
    for M in _oracle_matrices(rng, ctx):
        R, pivots = linalg.rref(ctx, M)
        want, want_pivots = _scalar_rref(ctx, M)
        assert pivots == want_pivots
        assert R.tolist() == want


def test_normalize_leading(gf9):
    v = linalg.normalize_leading(gf9, [0, 2, 4])
    assert v[1] == 1
    assert v[2] == gf9.mul(gf9.inv(2), 4)
    z = linalg.normalize_leading(gf9, [0, 0])
    assert not z.any()
