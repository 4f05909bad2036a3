"""Grothendieck splitting of kernel bundles on the projective line.

A KernelPresentation is a row of binary forms g_i with declared twists
delta_i, standing for the sheaf kernel

    K = ker( sum_i O(-delta_i) --(g_i)--> O ).

When the nonzero entries are coprime this is a vector bundle of rank
(#entries - 1) and degree -sum(delta_i).  Zero entries are first class (any
declared twist, including negative) and contribute free summands O(-delta_i).

Twisted section spaces H^0(K(m)) are exact kernels of the multiplication
matrices

    Mult_m : sum_i H^0(O(m - delta_i)) -> H^0(O(m)),   (h_i) -> sum g_i h_i,

and the splitting type falls out of the first differences of the Hilbert
function m -> h^0(K(m)): the multiplicity of O(-m) is the second difference
at m.  Every scan is certified, terminating only once exactly `rank`
summands with total degree -sum(delta_i) have appeared; a scan that reaches
the a-priori twist bound without its certificate raises CertificateFailure.

The same machinery produces minimal generators of the graded section module
(kernel vectors outside s*H^0(K(m-1)) + t*H^0(K(m-1))) and coordinates of a
section in the generator basis.  For a curve f on a Fermat hypersurface of
degree d = p^r + 1 this yields the pullback tangent bundle in three stages:

  1. the only generator scan runs on the small presentation (f_i, e), whose
     kernel is f*Omega^1 of the ambient space (twisted by -e).  The row
     (f_i^(p^r), e*p^r) cutting out F is its pullback under absolute
     Frobenius on P^1, which is flat and pulls O(a) back to O(p^r*a), so
     the Frobenius powers of those generators are minimal generators of the
     big presentation, of p^r times the degree.  The pullback f*F therefore
     splits as p^r*splitting(f*Omega) + d*e (frobenius_pullback), with
     summands b_j = d*e - m_j for lifted generator degrees m_j;
  2. the Euler section (f_0, ..., f_N) lies in that kernel exactly when the
     curve sits on the hypersurface; its coordinates c_j have degree b_j;
  3. f*T_X is the cokernel of (c_j): O -> sum O(b_j), so its dual is again
     a kernel presentation, and negating plus reversing that splitting gives
     the tangent splitting.

Every pipeline run is certified: the Omega generator scan carries the
rank/degree certificate, coordinates_in_basis raises when the Euler section
is not in the span of the lifted generators, stage 3 is a certified scan
with a rank/degree check on the tangent splitting, and the Frobenius
presentation, built once, is an independent cross-check.  Its section
counts h^0(K_F(d*e + m)) at m = -1, 0, 1 share no matrices with the
pipeline, and must equal h^0(f*F(m)) and h^0(f*T_X(m)) + m + 1, since
H^1(O(m)) = 0 for m >= -1.  Forbidden degree windows are checked on top of
this by the classifier.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
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
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if check:
            _validate_entries(self.entries)

    @staticmethod
    def make(entries: Sequence[Entry], check: bool = True) -> "KernelPresentation":
        return KernelPresentation(tuple((g, int(d)) for g, d in entries), check)

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


def splitting_type(kp: KernelPresentation) -> SplittingType:
    """Splitting type of the kernel bundle, by certified Hilbert scan."""
    rank_target = kp.rank
    degree_target = kp.degree
    if rank_target == 0:
        if degree_target != 0:
            raise CertificateFailure("rank-0 presentation with nonzero degree")
        return SplittingType(())
    m_lo, m_hi = _scan_bounds(kp)
    if h0(kp, m_lo) != 0:
        raise CertificateFailure("sections below the presentation floor")
    summands: list[int] = []
    h_prev = 0
    c_prev = 0
    for m in range(m_lo + 1, m_hi + 1):
        h = h0(kp, m)
        c = h - h_prev
        mult = c - c_prev
        if mult < 0:
            raise CertificateFailure("h^0 first differences decreased")
        summands.extend([-m] * mult)
        if len(summands) >= rank_target:
            if len(summands) > rank_target or sum(summands) != degree_target:
                raise CertificateFailure(
                    f"splitting certificate failed: {summands} vs rank "
                    f"{rank_target}, degree {degree_target}"
                )
            return SplittingType.of(summands)
        h_prev, c_prev = h, c
    raise CertificateFailure("splitting scan exceeded its certified bound")


def _shift_matrix(
    K: np.ndarray, dims_prev: list[int], dims: list[int], by: int
) -> np.ndarray:
    """Multiply every level m-1 section row by s (by=0) or t (by=1)."""
    out = np.zeros((K.shape[0], sum(dims)), dtype=np.int64)
    off_p = 0
    off = 0
    for dp, d in zip(dims_prev, dims):
        if dp:
            out[:, off + by : off + by + dp] = K[:, off_p : off_p + dp]
        off_p += dp
        off += d
    return out


def _vector_components(ctx: FieldCtx, entries: Sequence[Entry], m: int, v: np.ndarray) -> tuple[Form, ...]:
    comps = []
    off = 0
    for _, d in entries:
        k = m - d
        if k < 0:
            comps.append(Form.zero(ctx, k))
        else:
            comps.append(Form.make(ctx, k, [int(x) for x in v[off : off + k + 1]]))
            off += k + 1
    return tuple(comps)


def module_generators(kp: KernelPresentation) -> list[Generator]:
    """Minimal generators of the graded section module of K.

    Ascending in the twist, the kernel basis of Mult_m is compared with the
    span of s and t times the previous kernel basis; basis vectors outside
    that span are new generators (normalized to leading coefficient 1).
    Termination uses the same dual certificate as the splitting scan, since
    generator degrees are the negated splitting summands.
    """
    ctx = kp.ctx
    entries = kp.entries
    rank_target = kp.rank
    degree_sum = sum(d for _, d in entries)
    if rank_target == 0:
        return []
    m_lo, m_hi = _scan_bounds(kp)
    if h0(kp, m_lo) != 0:
        raise CertificateFailure("sections below the presentation floor")
    gens: list[Generator] = []
    prev_kernel: Optional[np.ndarray] = None
    dims_prev = _dims(entries, m_lo)
    for m in range(m_lo + 1, m_hi + 1):
        dims = _dims(entries, m)
        kernel = linalg.kernel_basis(ctx, mult_matrix(entries, m))
        span = linalg.Echelon(ctx, sum(dims))
        if prev_kernel is not None and prev_kernel.shape[0]:
            span.seed_rows(
                np.vstack(
                    [
                        _shift_matrix(prev_kernel, dims_prev, dims, 0),
                        _shift_matrix(prev_kernel, dims_prev, dims, 1),
                    ]
                )
            )
        for v in kernel:
            if span.add(v):
                norm = linalg.normalize_leading(ctx, v)
                gens.append(Generator(m, _vector_components(ctx, entries, m, norm)))
        if len(gens) >= rank_target:
            if len(gens) > rank_target or sum(g.degree for g in gens) != degree_sum:
                raise CertificateFailure(
                    f"generator certificate failed at twist {m}: "
                    f"degrees {[g.degree for g in gens]}"
                )
            return gens
        prev_kernel = kernel
        dims_prev = dims
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
    width = sum(dims)
    rhs = _section_flat(entries, m, section)
    cols: list[np.ndarray] = []
    spans: list[tuple[int, int]] = []
    for gen in gens:
        k = m - gen.degree
        start = len(cols)
        if k >= 0:
            gdims = _dims(entries, gen.degree)
            gflat = _section_flat(entries, gen.degree, gen.components)
            for w in range(k + 1):
                shifted = np.zeros(width, dtype=np.int64)
                off_g = 0
                off = 0
                for gd, d in zip(gdims, dims):
                    if gd:
                        shifted[off + w : off + w + gd] = gflat[off_g : off_g + gd]
                    off_g += gd
                    off += d
                cols.append(shifted)
        spans.append((start, len(cols)))
    if cols:
        A = np.stack(cols, axis=1)
        sol = linalg.solve(ctx, A, rhs)
    else:
        A = np.zeros((width, 0), dtype=np.int64)
        sol = np.zeros(0, dtype=np.int64) if not rhs.any() else None
    if sol is None:
        raise NotInModule("section is not a combination of the generators")
    coords: list[Form] = []
    for gen, (start, end) in zip(gens, spans):
        k = m - gen.degree
        if k < 0:
            coords.append(Form.zero(ctx, k))
        else:
            coords.append(Form.make(ctx, k, [int(x) for x in sol[start:end]]))
    return coords


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
