"""Exact linear algebra over field contexts.  Every field takes one
vectorized path; tabulated fields index numpy tables and larger fields
computing views, and the two kinds of one field must agree exactly."""

import random

import numpy as np
import pytest

from fermatrc import linalg
from fermatrc.ff import FieldCtx, _DigitFieldCtx
from fermatrc.search import _combine


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
    for p, n in ((3, 2), (2, 6), (5, 3)):
        tab, dig = FieldCtx(p, n), _DigitFieldCtx(p, n)
        assert tab == dig and tab.modulus == dig.modulus
        assert isinstance(tab.tables().mul, np.ndarray)
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
    # GF(625) has only the digit kind: check its kernels directly
    big = FieldCtx(5, 4)
    assert not isinstance(big.tables().mul, np.ndarray)
    rng = random.Random(17)
    M = _random_matrix(rng, big, 3, 6)
    K = linalg.kernel_basis(big, M)
    assert K.shape[0] == 6 - linalg.rank(big, M)
    for v in K:
        assert _matvec(big, M, v) == [0, 0, 0]


def test_normalize_leading(gf9):
    v = linalg.normalize_leading(gf9, [0, 2, 4])
    assert v[1] == 1
    assert v[2] == gf9.mul(gf9.inv(2), 4)
    z = linalg.normalize_leading(gf9, [0, 0])
    assert not z.any()
