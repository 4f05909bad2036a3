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
prefix of Mult_top, and one rref (GradedEchelon) serves every m <= top:
h^0(K(m)) counts the non-pivot columns of twist <= m, plus
max(m - delta_i + 1, 0) for each zero entry, which gets no columns.  The
multiplicity of O(-m) is the second difference at m.  As t maps (i, w) to
(i, w + 1) in order, the non-pivot columns of an entry form a tail, and the
kernel vectors of the first ones are a mu-basis: their t-multiples lead at
exactly the non-pivot columns (Hong, Hough and Kogan, J. Symbolic Comput.
80, 2017, here for entries of any degree).  Both scans are certified: no
sections at the floor, first differences that never decrease, and exactly
rank summands of total degree -sum(delta_i).  The echelon doubles in
height until that holds; past the a-priori bound CertificateFailure.

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

coordinates_in_basis raises when the Euler section is not in the span, f*T_X
must have rank N - 1 and degree e(N + 1 - d), and the Frobenius presentation
is an independent cross-check: its counts h^0(K_F(d*e + m)) at m = -1, 0, 1
come from mult_matrix and h0, share no matrices with the pipeline, and must
equal h^0(f*F(m)) and h^0(f*T_X(m)) + m + 1 (H^1(O(m)) = 0 for m >= -1).
The classifier checks the forbidden degree windows on top.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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

_SAFETY_MARGIN = 1

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
    (entry index, t-exponent), rows by t-exponent of the target."""
    rows = max(m + 1, 0)
    dims = _dims(entries, m)
    M = np.zeros((rows, sum(dims)), dtype=np.int64)
    if rows:
        col = 0
        for (g, d), dim in zip(entries, dims):
            if dim and not g.is_zero:
                cv = np.array(g.coeffs, dtype=np.int64)
                for w in range(dim):
                    M[w : w + d + 1, col + w] = cv
            col += dim
    return M


def h0(kp: KernelPresentation, m: int) -> int:
    """dim H^0(K(m)), exact for every twist by left exactness."""
    M = mult_matrix(kp.entries, m)
    if M.shape[1] == 0:
        return 0
    if M.shape[0] == 0:
        return M.shape[1]
    return M.shape[1] - linalg.rank(kp.ctx, M)


def _scan_bounds(kp: KernelPresentation) -> tuple[int, int]:
    deltas = [d for _, d in kp.entries]
    m_lo = min(deltas) - 1 - _SAFETY_MARGIN
    m_hi = sum(abs(d) for d in deltas) + kp.rank
    return m_lo, m_hi


class GradedEchelon:
    """One rref of Mult_top, columns sorted by (twist, entry, t-shift): the
    Hilbert function and the minimal generators up to twist top."""

    def __init__(self, kp: KernelPresentation, top: int):
        self.kp, self.top = kp, top
        self.columns = sorted((w + d, i, w) for i, (g, d) in enumerate(kp.entries)
                              if not g.is_zero for w in range(top - d + 1))
        M = np.zeros((top + 1, len(self.columns)), dtype=np.int64)
        for c, (_, i, w) in enumerate(self.columns):
            g = kp.entries[i][0]
            M[w : w + g.deg + 1, c] = g.coeffs
        self.reduced, self.pivots = linalg.rref(kp.ctx, M)
        pivot_set = set(self.pivots)
        self.free = [c for c in range(len(self.columns)) if c not in pivot_set]
        free_twists = [self.columns[c][0] for c in self.free]
        zeros = [d for g, d in kp.entries if g.is_zero]
        self._lo = min(d for _, d in kp.entries)  # no sections below
        self._hilbert = [
            sum(max(m - d + 1, 0) for d in zeros) + bisect.bisect_right(free_twists, m)
            for m in range(self._lo, top + 1)
        ]

    def h0(self, m: int) -> int:
        """dim H^0(K(m)), exact for every m <= top."""
        if m > self.top:
            raise TwistOutOfRange(f"twist {m} is above the echelon's top {self.top}")
        return self._hilbert[m - self._lo] if m >= self._lo else 0

    def generators(self) -> list[Generator]:
        """The generators of twist <= top, ascending in (twist, entry): the
        kernel vector of each entry's first non-pivot column, 1 there, and
        the unit vector of each zero entry (which has no columns) at its
        own twist."""
        ctx, entries = self.kp.ctx, self.kp.entries
        heads = {i: (d, i, None) for i, (g, d) in enumerate(entries) if g.is_zero and d <= self.top}
        for c in self.free:
            m, i, _ = self.columns[c]
            heads.setdefault(i, (m, i, c))
        by_entry: list[list[int]] = [[] for _ in entries]
        for c, (_, i, _) in enumerate(self.columns):
            by_entry[i].append(c)
        gens = []
        for m, i, c in sorted(heads.values()):
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


def _echelons(kp: KernelPresentation) -> Iterator[GradedEchelon]:
    """Floor-checked echelons, first as tall as a certificate needs at least
    (the sum of the two largest nonzero twists, where two coprime entries
    have their Koszul syzygy, or the largest zero-entry twist), then
    doubling up to the a-priori bound m_hi."""
    m_lo, m_hi = _scan_bounds(kp)
    live = sorted((d for g, d in kp.entries if not g.is_zero), reverse=True)
    top = min(max([sum(live[:2]), 1] + [d for g, d in kp.entries if g.is_zero]), m_hi)
    while True:
        ge = GradedEchelon(kp, top)
        if ge.h0(m_lo) != 0:
            raise CertificateFailure("sections below the presentation floor")
        yield ge
        if top == m_hi:
            return
        top = min(2 * top, m_hi)


def _certified(kp: KernelPresentation, twists: list[int], what: str) -> bool:
    """The rank/degree certificate on generator twists (negated summands):
    False while fewer than rank are in, True for exactly rank of them
    summing to sum(delta_i), CertificateFailure otherwise."""
    if len(twists) < kp.rank:
        return False
    if len(twists) > kp.rank or sum(twists) != -kp.degree:
        raise CertificateFailure(
            f"{what} certificate failed: twists {sorted(twists)} vs rank "
            f"{kp.rank}, degree {kp.degree}"
        )
    return True


def splitting_type(kp: KernelPresentation) -> SplittingType:
    """Splitting type of the kernel bundle, by certified Hilbert scan of
    one GradedEchelon."""
    if kp.rank == 0:
        if kp.degree != 0:
            raise CertificateFailure("rank-0 presentation with nonzero degree")
        return SplittingType(())
    m_lo = _scan_bounds(kp)[0]
    for ge in _echelons(kp):
        twists: list[int] = []
        for m in range(m_lo + 1, ge.top + 1):
            mult = ge.h0(m) - 2 * ge.h0(m - 1) + ge.h0(m - 2)
            if mult < 0:
                raise CertificateFailure("h^0 first differences decreased")
            twists += [m] * mult
            if _certified(kp, twists, "splitting"):
                return SplittingType.of(-t for t in twists)
    raise CertificateFailure("splitting scan exceeded its certified bound")


def module_generators(kp: KernelPresentation) -> list[Generator]:
    """Minimal generators (a mu-basis) of the graded section module of K,
    read off one GradedEchelon, with the splitting scan's certificate."""
    if kp.rank == 0:
        return []
    for ge in _echelons(kp):
        gens = ge.generators()
        if _certified(kp, [g.degree for g in gens], "generator"):
            return gens
    raise CertificateFailure("generator scan exceeded its certified bound")


def _section_flat(entries: Sequence[Entry], m: int, section: Sequence[Form]) -> np.ndarray:
    dims = _dims(entries, m)
    v = np.zeros(sum(dims), dtype=np.int64)
    off = 0
    for f, (_, d), dim in zip(section, entries, dims):
        if not f.is_zero:
            if f.deg != m - d:
                raise DegreeMismatch("section component degree does not match the twist")
            v[off : off + dim] = np.array(f.coeffs, dtype=np.int64)
        off += dim
    return v


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
    dims = _dims(entries, m)
    offsets = np.cumsum([0] + dims[:-1])
    rhs = _section_flat(entries, m, section)
    A = np.zeros((len(rhs), 0), dtype=np.int64)
    spans: list[tuple[int, int]] = []
    for gen in gens:
        k = m - gen.degree
        start = A.shape[1]
        if k >= 0:
            # column w is the generator times s^(k-w) t^w: every block shifted by w
            gdims = _dims(entries, gen.degree)
            pos = np.concatenate([o + np.arange(gd) for o, gd in zip(offsets, gdims)])
            flat = _section_flat(entries, gen.degree, gen.components)
            ws = np.arange(k + 1)
            block = np.zeros((A.shape[0], k + 1), dtype=np.int64)
            block[pos[:, None] + ws, ws] = flat[:, None]
            A = np.concatenate([A, block], axis=1)
        spans.append((start, A.shape[1]))
    sol = linalg.solve(ctx, A, rhs)
    if sol is None:
        raise NotInModule("section is not a combination of the generators")
    return [
        Form.make(ctx, m - gen.degree, sol[a:b]) if b > a else Form.zero(ctx, m - gen.degree)
        for gen, (a, b) in zip(gens, spans)
    ]


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
    r = curve.params.r
    delta = curve.e * curve.params.pr
    return KernelPresentation.make([(f.frob_power(r), delta) for f in curve.forms])


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
    Frobenius presentation's section counts at twists -1, 0, 1.
    """
    if not curve.on_x:
        raise NotOnHypersurface("tangent pipeline needs a curve on the hypersurface")
    params = curve.params
    de = params.d * curve.e
    omega_gens = module_generators(omega_presentation(curve))
    omega = SplittingType.of(-g.degree for g in omega_gens)
    f_split = frobenius_pullback(omega, params.pr, de)
    gens = frobenius_lift(omega_gens, params.r)
    bs = [de - g.degree for g in gens]
    kp = frob_presentation(curve)
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
    for m in (-1, 0, 1):
        direct = h0(kp, de + m)
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
