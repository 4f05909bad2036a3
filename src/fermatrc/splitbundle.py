"""Grothendieck splitting of kernel bundles on the projective line.

A KernelPresentation is a row of binary forms g_i with declared twists
delta_i, standing for the sheaf kernel

    K = ker( sum_i O(-delta_i) --(g_i)--> O ).

When the nonzero entries are coprime this is a vector bundle of rank
(#entries - 1) and degree -sum(delta_i).  Zero entries are first class (any
declared twist, including negative) and contribute free summands O(-delta_i).

H^0(K(m)) is the kernel of Mult_m : sum_i H^0(O(m - delta_i)) -> H^0(O(m)),
(h_i) -> sum g_i h_i.  At s = 1 the column (i, w) of Mult_m is t^w * g_i for
every m >= w + delta_i, so with columns sorted by that twist Mult_m is a
prefix of Mult_top, and one rref (GradedEchelon) serves every m <= top.  As
t maps (i, w) to (i, w + 1) in order, the non-pivot columns of an entry form
a tail.  Its first column is the entry's head; a zero entry, which gets no
columns, has its own twist as head.  The kernel vectors of the heads and
the unit vectors of the zero entries are a mu-basis: their t-multiples lead
at exactly the non-pivot columns (Hong, Hough and Kogan, J. Symbolic Comput.
80, 2017, here for entries of any degree).  So the section module is free
on the heads, K is the sum of O(-head), and h^0(K(m)) is
sum max(m - head + 1, 0).  Two certificates hold that reading: the tail
count (the non-pivot columns number exactly sum(top - head + 1) over the
heads of nonzero entries), and exactly rank heads of total twist
sum(delta_i).  The echelon doubles in height until the second holds; past
the a-priori bound CertificateFailure.

For a curve f on a Fermat hypersurface of degree d = p^r + 1 this yields
the pullback tangent bundle in three stages:

  1. generators of (f_i, e), whose kernel is f*Omega^1 of the ambient space
     (twisted by -e).  The row (f_i^(p^r), e*p^r) cutting out F is its
     pullback under absolute Frobenius on P^1, which is flat and pulls O(a)
     back to O(p^r*a), so the Frobenius powers of those generators are
     minimal generators of that presentation: f*F splits as
     p^r*splitting(f*Omega) + d*e (frobenius_pullback), with summands
     b_j = d*e - m_j for lifted generator degrees m_j;
  2. the Euler section (f_0, ..., f_N) lies in that kernel exactly when the
     curve sits on the hypersurface; its coordinates c_j have degree b_j;
  3. f*T_X is the cokernel of (c_j): O -> sum O(b_j), so its dual is again
     a kernel presentation, and negating plus reversing that splitting gives
     the tangent splitting.

Every multiplication matrix comes from mult_matrix: Mult_m for h0, Mult_top
with its columns sorted for GradedEchelon, and the linear system of stage 2
(coordinates_in_basis), one block of rows per entry i that multiplies the
i-th generator components, with the section's i-th component as a last
column.

coordinates_in_basis raises when the Euler section is not in the span, f*T_X
must have rank N - 1 and degree e(N + 1 - d), and the Frobenius presentation
is a cross-check: its counts h^0(K_F(d*e + m)) at m = -1, 0, 1 are three
prefixes of one GradedEchelon at top d*e + 1, and must equal h^0(f*F(m)) and
h^0(f*T_X(m)) + m + 1 (H^1(O(m)) = 0 for m >= -1).  That echelon reduces the
entries f_i^(p^r) themselves, which no stage reduces: stage 1 scans the
Omega presentation and lifts its generators, stage 2 solves in the lifted
generators, stage 3 scans the dual.  The tail count guards the reading, and
h0 (mult_matrix and rank) is its oracle in the tests.  The classifier checks
the forbidden degree windows on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import (
    AllZero,
    CertificateFailure,
    CommonZero,
    DegreeMismatch,
    DomainError,
    NotInModule,
    NotOnHypersurface,
    TwistOutOfRange,
)
from .fermat import Curve
from .ff import FieldCtx
from .forms import Form, form_gcd

Entry = tuple[Form, int]


@dataclass(frozen=True)
class SplittingType:
    """Multiset of line bundle degrees, stored descending."""

    summands: tuple[int, ...]

    @staticmethod
    def of(values) -> "SplittingType":
        return SplittingType(tuple(sorted((int(v) for v in values), reverse=True)))

    @property
    def rank(self) -> int:
        return len(self.summands)

    @property
    def degree(self) -> int:
        return sum(self.summands)

    def h0_at(self, m: int) -> int:
        return sum(max(a + m + 1, 0) for a in self.summands)

    @property
    def min_summand(self) -> int:
        return self.summands[-1]

    @property
    def max_summand(self) -> int:
        return self.summands[0]

    @property
    def is_balanced(self) -> bool:
        return self.rank == 0 or self.max_summand - self.min_summand <= 1

    def negated_reversed(self) -> "SplittingType":
        return SplittingType(tuple(-a for a in reversed(self.summands)))

    def shifted(self, k: int) -> "SplittingType":
        return SplittingType(tuple(a + k for a in self.summands))

    def scaled(self, k: int) -> "SplittingType":
        return SplittingType(tuple(a * k for a in self.summands))

    def to_json(self, bundle: Optional[str] = None) -> dict:
        out = {
            "summands": list(self.summands),
            "rank": self.rank,
            "degree": self.degree,
        }
        if bundle is not None:
            out["bundle"] = bundle
        return out


@dataclass(frozen=True)
class Generator:
    """Minimal generator of the graded section module, one form per entry."""

    degree: int
    components: tuple[Form, ...]


@dataclass(frozen=True)
class KernelPresentation:
    entries: tuple[Entry, ...]

    def __post_init__(self):
        _validate_entries(self.entries)

    @staticmethod
    def make(entries: Sequence[Entry]) -> "KernelPresentation":
        return KernelPresentation(tuple((g, int(d)) for g, d in entries))

    def frobenius(self, r: int) -> "KernelPresentation":
        """The row (g_i^(p^r)) with twists p^r*delta_i, its pullback under
        absolute Frobenius.  Frobenius is an injective ring map, so
        gcd(g^q, h^q) = gcd(g, h)^q: the entries of a checked presentation
        stay coprime, and the checks are not run again."""
        q = self.ctx.p**r
        out = object.__new__(KernelPresentation)
        object.__setattr__(out, "entries", tuple((g.frob_power(r), q * d) for g, d in self.entries))
        return out

    @property
    def ctx(self) -> FieldCtx:
        return self.entries[0][0].ctx

    @property
    def rank(self) -> int:
        return len(self.entries) - 1

    @property
    def degree(self) -> int:
        return -sum(d for _, d in self.entries)


def _validate_entries(entries: tuple[Entry, ...]) -> None:
    if not entries:
        raise ValueError("a presentation needs at least one entry")
    live = []
    for g, d in entries:
        if not isinstance(g, Form):
            raise ValueError("presentation entries must be (Form, twist) pairs")
        if g.is_zero:
            continue
        if g.deg != d:
            raise DegreeMismatch(f"entry of degree {g.deg} declared with twist {d}")
        live.append(g)
    if not live:
        raise AllZero("a presentation needs a nonzero entry")
    g = form_gcd(live)
    if g.deg != 0:
        raise CommonZero(f"presentation entries share the factor {g}")


def _dims(entries: Sequence[Entry], m: int) -> list[int]:
    return [max(m - d + 1, 0) for _, d in entries]


def mult_matrix(entries: Sequence[Entry], m: int) -> np.ndarray:
    """Matrix of Mult_m in the monomial bases, columns ordered by
    (entry index, t-exponent), rows by t-exponent of the target.  The only
    code that writes a form's coefficients into a matrix column."""
    dims = _dims(entries, m)
    M = np.zeros((max(m + 1, 0), sum(dims)), dtype=np.int64)
    col = 0
    for (g, d), dim in zip(entries, dims):
        if not g.is_zero:
            cv = np.array(g.coeffs, dtype=np.int64)
            for w in range(dim):
                M[w : w + d + 1, col + w] = cv
        col += dim
    return M


def h0(kp: KernelPresentation, m: int) -> int:
    """dim H^0(K(m)), exact for every twist by left exactness."""
    M = mult_matrix(kp.entries, m)
    return M.shape[1] - linalg.rank(kp.ctx, M)


def _scan_bound(kp: KernelPresentation) -> int:
    """A-priori bound on the mu-basis twists."""
    return sum(abs(d) for _, d in kp.entries) + kp.rank


class GradedEchelon:
    """One rref of Mult_top, columns sorted by (twist, entry, t-shift), read
    as its heads up to twist top, ascending: (twist, entry, column) of each
    entry's first non-pivot column, and (delta_i, i, None) for a zero entry."""

    def __init__(self, kp: KernelPresentation, top: int):
        self.kp, self.top = kp, top
        self.columns = sorted((w + d, i, w) for i, (g, d) in enumerate(kp.entries)
                              if not g.is_zero for w in range(top - d + 1))
        offsets = np.cumsum([0] + _dims(kp.entries, top))
        M = mult_matrix(kp.entries, top)[:, [offsets[i] + w for _, i, w in self.columns]]
        self.reduced, self.pivots = linalg.rref(kp.ctx, M)
        pivot_set = set(self.pivots)
        heads = {i: (d, i, None) for i, (g, d) in enumerate(kp.entries) if g.is_zero and d <= top}
        for c, (m, i, _) in enumerate(self.columns):
            if c not in pivot_set:
                heads.setdefault(i, (m, i, c))
        self.heads = sorted(heads.values())
        # t maps (i, w) to (i, w + 1) in column order, so every column of an
        # entry from its head up to top is non-pivot, and no other is
        free = len(self.columns) - len(self.pivots)
        if free != sum(top - m + 1 for m, _, c in self.heads if c is not None):
            raise CertificateFailure(
                f"non-pivot columns are not tails: {free} of them, heads "
                f"{[m for m, _, _ in self.heads]} at top {top}"
            )

    def h0_at(self, m: int) -> int:
        """h^0(K(m)) for m <= top: the non-pivot columns of twist <= m, which
        the tail count certifies to be sum max(m - head + 1, 0)."""
        return sum(max(m - t + 1, 0) for t, _, _ in self.heads)

    def generators(self) -> list[Generator]:
        """One generator per head: the kernel vector of its column, 1 there,
        or the unit vector of a zero entry."""
        ctx, entries = self.kp.ctx, self.kp.entries
        by_entry: list[list[int]] = [[] for _ in entries]
        for c, (_, i, _) in enumerate(self.columns):
            by_entry[i].append(c)
        gens = []
        for m, i, c in self.heads:
            x = np.zeros(len(self.columns), dtype=np.int64)
            if c is not None:
                x[c] = 1
                x[self.pivots] = ctx.tables().neg[self.reduced[: len(self.pivots), c]]
            comps = [Form.make(ctx, m - d, x[cols[: m - d + 1]]) if m >= d
                     else Form.zero(ctx, m - d) for (_, d), cols in zip(entries, by_entry)]
            if c is None:
                comps[i] = Form.make(ctx, 0, [1])
            gens.append(Generator(m, tuple(comps)))
        return gens


def _mu_basis(kp: KernelPresentation) -> GradedEchelon:
    """The first echelon whose heads pass the rank/degree certificate:
    exactly rank of them, of total twist sum(delta_i).  It starts as tall as
    that can first hold (the sum of the two largest nonzero twists, where
    two coprime entries have their Koszul syzygy, or the largest zero-entry
    twist) and doubles up to the a-priori bound."""
    m_hi = _scan_bound(kp)
    live = sorted((d for g, d in kp.entries if not g.is_zero), reverse=True)
    top = min(max([sum(live[:2]), 1] + [d for g, d in kp.entries if g.is_zero]), m_hi)
    while True:
        ge = GradedEchelon(kp, top)
        twists = [m for m, _, _ in ge.heads]
        if len(twists) >= kp.rank:
            if len(twists) > kp.rank or sum(twists) != -kp.degree:
                raise CertificateFailure(
                    f"rank/degree certificate failed: twists {twists} vs rank "
                    f"{kp.rank}, degree {kp.degree}"
                )
            return ge
        if top == m_hi:
            raise CertificateFailure("mu-basis scan exceeded its certified bound")
        top = min(2 * top, m_hi)


def splitting_type(kp: KernelPresentation) -> SplittingType:
    """Splitting type of the kernel bundle: the negated head twists."""
    return SplittingType.of(-m for m, _, _ in _mu_basis(kp).heads)


def module_generators(kp: KernelPresentation) -> list[Generator]:
    """Minimal generators (a mu-basis) of the graded section module of K."""
    return _mu_basis(kp).generators()


def coordinates_in_basis(
    kp: KernelPresentation, gens: Sequence[Generator], section: Sequence[Form]
) -> list[Form]:
    """Coordinates of a section in the free generator basis.

    The coordinate of the generator of degree m_j is a form of degree
    m - m_j (the zero form with that declared degree when it is negative or
    the solve forces it to vanish).  Raises NotInModule when the section is
    not a combination of the generators.
    """
    ctx = kp.ctx
    entries = kp.entries
    if len(section) != len(entries):
        raise ValueError("section must have one component per entry")
    twists = {f.deg + d for f, (_, d) in zip(section, entries) if not f.is_zero}
    if not twists:
        raise ValueError("cannot infer the twist of the zero section")
    if len(twists) != 1:
        raise DegreeMismatch("section components disagree on the twist")
    m = twists.pop()
    # one block of rows per entry i: column (j, w) is t^w times the i-th
    # component of generator j, and the last column is the section's
    A = np.vstack([
        mult_matrix([(g.components[i], g.degree - d) for g in gens] + [(f, m - d)], m - d)
        for i, (f, (_, d)) in enumerate(zip(section, entries))
    ])
    sol = linalg.solve(ctx, A[:, :-1], A[:, -1])
    if sol is None:
        raise NotInModule("section is not a combination of the generators")
    sizes = [max(m - g.degree + 1, 0) for g in gens]
    parts = np.split(sol, np.cumsum(sizes)[:-1])
    return [Form.make(ctx, m - g.degree, part) for g, part in zip(gens, parts)]


# Pullback bundles of a curve on the Fermat hypersurface.


@dataclass(frozen=True)
class TXData:
    """Shared result of the three-stage tangent pipeline."""

    generators: tuple[Generator, ...]
    coordinates: tuple[Form, ...]
    splitting_omega: SplittingType
    splitting_f: SplittingType
    splitting_tx: SplittingType


def omega_presentation(curve: Curve) -> KernelPresentation:
    """Presentation of f*Omega^1 of the ambient projective space, K(-e)."""
    return KernelPresentation.make([(f, curve.e) for f in curve.forms])


def frob_presentation(curve: Curve) -> KernelPresentation:
    """Presentation whose kernel twisted by d*e is the pullback f*F."""
    return omega_presentation(curve).frobenius(curve.params.r)


def frobenius_pullback(omega: SplittingType, pr: int, de: int) -> SplittingType:
    """Splitting of f*F from the splitting of f*Omega^1: p^r*omega + d*e.

    The Frobenius row (f_i^(p^r)) is the pullback of the row (f_i) under
    absolute Frobenius on P^1, which is flat and pulls O(a) back to
    O(p^r*a); the twist by d*e turns that kernel into f*F.
    """
    return omega.scaled(pr).shifted(de)


def frobenius_lift(gens: Sequence[Generator], r: int) -> list[Generator]:
    """Minimal generators of the Frobenius presentation from those of the
    Omega presentation: if sum h_i f_i = 0 then sum h_i^(p^r) f_i^(p^r) = 0,
    and the lifted generator has p^r times the degree."""
    return [
        Generator(
            g.degree * g.components[0].ctx.p**r,
            tuple(c.frob_power(r) for c in g.components),
        )
        for g in gens
    ]


def splitting_omega_p(curve: Curve) -> SplittingType:
    """Splitting of the restricted cotangent sheaf of the ambient space."""
    return splitting_type(omega_presentation(curve))


def splitting_t_p(curve: Curve) -> SplittingType:
    """Splitting of the restricted tangent sheaf of the ambient space."""
    return splitting_omega_p(curve).negated_reversed()


def splitting_f(curve: Curve) -> SplittingType:
    """Splitting of f*F (the subsheaf of T_X cut by the Frobenius row), the
    Frobenius pullback of the f*Omega^1 splitting.  Defined off the
    hypersurface too."""
    params = curve.params
    return frobenius_pullback(splitting_omega_p(curve), params.pr, params.d * curve.e)


def h0_tx_direct(curve: Curve, m: int) -> int:
    """h^0(f*T_X(m)) for m >= -1, straight from the Frobenius presentation.

    Valid because H^1(O(m)) = 0 for m >= -1, so sections of f*F(m) surject
    onto sections of f*T_X(m) with kernel H^0(O(m)).
    """
    if m < -1:
        raise TwistOutOfRange("the direct section count needs m >= -1")
    if not curve.on_x:
        raise NotOnHypersurface("tangent sections need a curve on the hypersurface")
    de = curve.params.d * curve.e
    return h0(frob_presentation(curve), de + m) - max(m + 1, 0)


def tx_pipeline(curve: Curve) -> TXData:
    """Run the three-stage pipeline and return every shared artifact.

    Stage 1 lifts the f*Omega^1 generators by Frobenius instead of scanning
    the Frobenius presentation.  Postconditions are enforced: rank N-1 and
    degree e(N+1-d) for f*T_X, and agreement of f*F and f*T_X with the
    Frobenius presentation's section counts at twists -1, 0, 1, read off
    one graded echelon of it.
    """
    if not curve.on_x:
        raise NotOnHypersurface("tangent pipeline needs a curve on the hypersurface")
    params = curve.params
    de = params.d * curve.e
    omega_kp = omega_presentation(curve)
    omega_gens = module_generators(omega_kp)
    omega = SplittingType.of(-g.degree for g in omega_gens)
    f_split = frobenius_pullback(omega, params.pr, de)
    gens = frobenius_lift(omega_gens, params.r)
    bs = [de - g.degree for g in gens]
    kp = omega_kp.frobenius(params.r)
    try:
        coords = coordinates_in_basis(kp, gens, curve.forms)
    except NotInModule as exc:
        raise NotOnHypersurface("Euler section is not in the kernel module") from exc
    try:
        dual = KernelPresentation.make(list(zip(coords, bs)))
    except DomainError as exc:
        raise CertificateFailure(f"stage-3 presentation rejected: {exc}") from exc
    tx = splitting_type(dual).negated_reversed()
    expect_rank = params.N - 1
    expect_degree = curve.e * (params.N + 1 - params.d)
    if tx.rank != expect_rank or tx.degree != expect_degree:
        raise CertificateFailure(
            f"tangent splitting {tx.summands} has wrong rank or degree"
        )
    counts = GradedEchelon(kp, de + 1)
    for m in (-1, 0, 1):
        direct = counts.h0_at(de + m)
        if f_split.h0_at(m) != direct:
            raise CertificateFailure(
                f"f*F splitting disagrees with the direct count at twist {m}"
            )
        if tx.h0_at(m) != direct - (m + 1):
            raise CertificateFailure(
                f"tangent splitting disagrees with the direct count at twist {m}"
            )
    return TXData(tuple(gens), tuple(coords), omega, f_split, tx)


def splitting_tx(curve: Curve) -> SplittingType:
    """Splitting of the pullback tangent bundle f*T_X."""
    return tx_pipeline(curve).splitting_tx
