"""Dense exact linear algebra over a FieldCtx.

Matrices are numpy int64 arrays of canonical element encodings.  Every row
operation runs vectorized through the context's tables (``ctx.tables()``),
which for fields too large to tabulate compute their entries, so every
field takes the same path and the same elimination order (columns left to
right, first row with a nonzero entry as pivot).

Since reduced row echelon form is unique for a fixed column order, every
routine here is deterministic: kernel bases are read off free columns in
ascending order, and solutions set free variables to zero.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .ff import FieldCtx

Matrix = Union[np.ndarray, Sequence[Sequence[int]]]


def as_matrix(mat: Matrix) -> np.ndarray:
    arr = np.array(mat, dtype=np.int64, copy=True)
    if arr.ndim != 2:
        raise ValueError("expected a two-dimensional matrix")
    return arr


def rref(ctx: FieldCtx, mat: Matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    M = as_matrix(mat)
    rows, cols = M.shape
    if rows == 0 or cols == 0:
        return M, []
    T = ctx.tables()
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = M[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            M[r], M[pr] = M[pr].copy(), M[r].copy()
        # the pivot row is zero left of c: earlier pivot columns are cleared
        # in it, and the other earlier columns are zero from row r down
        row = M[r, c:]
        piv = int(row[0])
        if piv != 1:
            row[:] = T.mul[T.inv[piv], row]
        other = M[:, c].nonzero()[0]
        other = other[other != r]
        if other.size:
            M[other, c:] = T.sub[M[other, c:], T.mul[M[other, c][:, None], row]]
        pivots.append(c)
        r += 1
    return M, pivots


def rank(ctx: FieldCtx, mat: Matrix) -> int:
    return len(rref(ctx, mat)[1])


def kernel_basis(ctx: FieldCtx, mat: Matrix) -> np.ndarray:
    """Canonical kernel basis, one row per free column in ascending order."""
    M = as_matrix(mat)
    rows, cols = M.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    R, pivots = rref(ctx, M)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    if not free:
        return basis
    basis[range(len(free)), free] = 1
    if pivots:
        basis[:, np.array(pivots)] = ctx.tables().neg[R[np.ix_(range(len(pivots)), free)]].T
    return basis


def solve(ctx: FieldCtx, mat: Matrix, rhs: Sequence[int]) -> Optional[np.ndarray]:
    """One exact solution of mat @ x = rhs (free variables zero), or None."""
    M = as_matrix(mat)
    rows, cols = M.shape
    b = np.array(rhs, dtype=np.int64).reshape(rows, 1)
    if cols == 0:
        return None if b.any() else np.zeros(0, dtype=np.int64)
    R, pivots = rref(ctx, np.concatenate([M, b], axis=1))
    if pivots and pivots[-1] == cols:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for k, pc in enumerate(pivots):
        x[pc] = R[k, cols]
    return x


class Echelon:
    """Incrementally built row space with deterministic reduction.

    Rows are normalized (leading 1 at the pivot) and kept ordered by pivot
    column.  ``add`` reduces a vector against the current rows; dependent
    vectors are absorbed and independent ones inserted.

    Nothing in the package calls it since the generator scan reads its
    mu-basis off one rref (splitbundle.GradedEchelon).  It stays because
    perfbench/tracer.py looks up ``Echelon.add`` by name and fails without
    it; delete it once the tracer reports a missing name as absent.
    """

    def __init__(self, ctx: FieldCtx, width: int):
        self.ctx = ctx
        self.width = width
        self.pivots: list[int] = []
        self.rows: list[np.ndarray] = []
        self._T = ctx.tables()

    def reduce(self, vec: Sequence[int]) -> np.ndarray:
        v = np.array(vec, dtype=np.int64, copy=True)
        T = self._T
        for pc, row in zip(self.pivots, self.rows):
            c = int(v[pc])
            if c:
                v = T.sub[v, T.mul[c, row]]
        return v

    def seed_rows(self, mat: Matrix) -> None:
        """Bulk-load the row space of mat into an empty Echelon.

        One vectorized elimination instead of row-at-a-time inserts; the
        resulting span is identical, so membership answers are unchanged.
        """
        assert not self.rows, "seed_rows needs an empty Echelon"
        M = as_matrix(mat)
        if M.shape[0] == 0 or M.shape[1] == 0:
            return
        R, pivots = rref(self.ctx, M)
        for k, pc in enumerate(pivots):
            self.pivots.append(pc)
            self.rows.append(R[k].copy())

    def add(self, vec: Sequence[int]) -> bool:
        """True when vec was independent of the current rows."""
        v = normalize_leading(self.ctx, self.reduce(vec))
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        pc = int(nz[0])
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < pc:
            pos += 1
        self.pivots.insert(pos, pc)
        self.rows.insert(pos, v)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def normalize_leading(ctx: FieldCtx, vec: Sequence[int]) -> np.ndarray:
    """Scale a nonzero vector so its first nonzero entry is 1."""
    v = np.array(vec, dtype=np.int64, copy=True)
    nz = np.nonzero(v)[0]
    if nz.size == 0:
        return v
    lead = int(v[int(nz[0])])
    if lead == 1:
        return v
    return ctx.tables().mul[ctx.inv(lead), v]
