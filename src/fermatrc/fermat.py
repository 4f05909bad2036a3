"""Fermat hypersurfaces of degree p^r + 1 and parametrized rational curves.

The hypersurface X in P^N over characteristic p is cut out by
sum_i X_i^(p^r + 1); it is smooth because d = p^r + 1 makes the partials
X_i^(p^r).  A curve is an (N+1)-tuple of degree-e binary forms, base point
free and not all proportional, and lies on X exactly when the expansion
sum_i f_i^(p^r) * f_i vanishes identically.  That expansion is linear in the
second factor, which is what every pipeline downstream exploits.

The default coefficient field for parameters (p, r) is GF(p^(2r)), the
smallest field on which the degree-d norm map hits -1, so the standard line
constructions exist.  Splitting types are geometric, so fixing this finite
model loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import linalg
from .errors import (
    BadRoot,
    BadScaling,
    CommonZero,
    ConstantMap,
    DegreeMismatch,
    InvalidField,
    NotOnHypersurface,
)
from .ff import FieldCtx, is_prime
from .forms import Form, form_gcd

Pattern = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class FermatParams:
    p: int
    r: int
    N: int
    ctx: FieldCtx

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidField(f"{self.p} is not prime")
        if self.r < 1:
            raise InvalidField("Frobenius exponent r must be >= 1")
        if self.p**self.r <= 2:
            raise InvalidField("need p^r > 2, i.e. degree d = p^r + 1 > 3")
        if self.N < 3:
            raise InvalidField("ambient dimension N must be >= 3")
        if self.ctx.p != self.p:
            raise InvalidField("field characteristic does not match p")

    @staticmethod
    def make(p: int, r: int, N: int, ctx: Optional[FieldCtx] = None) -> "FermatParams":
        if ctx is None:
            ctx = FieldCtx(p, 2 * r)
        return FermatParams(p, r, N, ctx)

    @property
    def pr(self) -> int:
        return self.p**self.r

    @property
    def d(self) -> int:
        return self.pr + 1


@dataclass(frozen=True)
class Curve:
    """A validated parametrized curve; on_x records hypersurface membership."""

    params: FermatParams
    e: int
    forms: tuple[Form, ...]
    on_x: bool

    @property
    def ctx(self) -> FieldCtx:
        return self.params.ctx

    def to_json(self) -> dict:
        return {
            "p": self.params.p,
            "r": self.params.r,
            "N": self.params.N,
            "e": self.e,
            "field": self.ctx.to_json(),
            "curve": [f.to_json() for f in self.forms],
        }

    @staticmethod
    def from_json(data: dict, on_hypersurface: bool = True) -> "Curve":
        ctx = FieldCtx.from_json(data["field"])
        params = FermatParams(int(data["p"]), int(data["r"]), int(data["N"]), ctx)
        e = int(data["e"])
        arrays = data["curve"]
        if len(arrays) != params.N + 1:
            raise DegreeMismatch(f"expected {params.N + 1} forms, got {len(arrays)}")
        try:
            forms = [Form.from_json(ctx, arr, e) for arr in arrays]
        except ValueError as exc:
            raise DegreeMismatch(str(exc)) from exc
        return validate(params, e, forms, on_hypersurface=on_hypersurface)


def expand_F(params: FermatParams, forms: Sequence[Form]) -> Form:
    """The defining expansion sum_i f_i^(p^r) * f_i, a form of degree d*e.

    One accumulation over all coordinates: coefficients a_j, a_k of f_i
    add a_j^(p^r) * a_k at t-degree j*p^r + k.  The nonzero forms must share
    the degree e; zero forms contribute nothing, and when every form is zero
    the last one's declared degree gives e.
    """
    if not forms:
        raise ValueError("expand_F needs at least one form")
    ctx = params.ctx
    live = [f for f in forms if not f.is_zero]
    if any(f.ctx != ctx for f in live):
        raise ValueError("mixed field contexts")
    e = live[0].deg if live else forms[-1].deg
    for f in live:
        if f.deg != e:
            raise DegreeMismatch(f"cannot add degrees {params.d * e} and {params.d * f.deg}")
    rows = ctx.rows
    add, mul, frob = rows.add, rows.mul, rows.frob[params.r % ctx.n]
    pr = params.pr
    acc = [0] * (params.d * e + 1)
    for f in live:
        terms = [(k, c) for k, c in enumerate(f.coeffs) if c]
        for j, a in terms:
            by_frob_a = mul[frob[a]]
            base = j * pr
            for k, c in terms:
                acc[base + k] = add[acc[base + k]][by_frob_a[c]]
    return Form.make(ctx, params.d * e, acc)


def validate(
    params: FermatParams,
    e: int,
    forms: Iterable[Form],
    on_hypersurface: bool = True,
) -> Curve:
    """Check a tuple of forms as a degree-e curve; returns the Curve.

    Raises ConstantMap, CommonZero or DegreeMismatch for a tuple that does
    not define a non-constant base-point-free map to P^N, and
    NotOnHypersurface when the on-X check is requested and fails.  The
    returned curve always records the true membership bit.
    """
    fs = list(forms)
    if len(fs) != params.N + 1:
        raise ValueError(f"expected {params.N + 1} forms, got {len(fs)}")
    if e < 1:
        raise ValueError("curve degree e must be >= 1")
    fixed: list[Form] = []
    for f in fs:
        if f.ctx != params.ctx:
            raise ValueError("form context does not match the parameters")
        if f.is_zero:
            fixed.append(Form.zero(params.ctx, e))
        elif f.deg != e:
            raise DegreeMismatch(f"form of degree {f.deg} in a degree-{e} curve")
        else:
            fixed.append(f)
    live = [f for f in fixed if not f.is_zero]
    if len(live) < 2:
        raise ConstantMap("fewer than two nonzero coordinates")
    g = form_gcd(live)
    if g.deg != 0:
        raise CommonZero(f"coordinates share the factor {g}")
    on_x = expand_F(params, fixed).is_zero
    if on_hypersurface and not on_x:
        raise NotOnHypersurface("the defining expansion does not vanish")
    return Curve(params, e, tuple(fixed), on_x)


def roots_of_minus_one(ctx: FieldCtx, d: int) -> list[int]:
    """All x with x^d = -1, ascending in the canonical encoding."""
    target = ctx.minus_one
    return [a for a in ctx.elements() if ctx.pow(a, d) == target]


def make_line(
    params: FermatParams,
    alpha: int,
    beta: int,
    pattern: Pattern = ((0, 1), (2, 3)),
) -> Curve:
    """The standard line (s, alpha*s) and (t, beta*t) in two coordinate pairs.

    alpha and beta must be d-th roots of -1; the remaining coordinates are
    zero, and the on-X identity is s^d(1 + alpha^d) + t^d(1 + beta^d) = 0.
    """
    ctx = params.ctx
    (i0, i1), (i2, i3) = pattern
    idx = [i0, i1, i2, i3]
    if len(set(idx)) != 4 or not all(0 <= i <= params.N for i in idx):
        raise ValueError("pattern must name four distinct coordinates")
    for x in (alpha, beta):
        if ctx.pow(x, params.d) != ctx.minus_one:
            raise BadRoot(f"{x} is not a degree-{params.d} root of -1")
    s = Form.monomial(ctx, 1, 0)
    t = Form.monomial(ctx, 1, 1)
    forms = [Form.zero(ctx, 1) for _ in range(params.N + 1)]
    forms[i0] = s
    forms[i1] = s.scale(alpha)
    forms[i2] = t
    forms[i3] = t.scale(beta)
    return validate(params, 1, forms)


def compose_cover(curve: Curve, phi0: Form, phi1: Form) -> Curve:
    """Precompose with the degree-k map (phi0 : phi1) of the line."""
    if phi0.deg != phi1.deg:
        raise DegreeMismatch("cover pair must share a degree")
    k = phi0.deg
    if k < 1:
        raise ValueError("cover degree must be >= 1")
    if form_gcd([phi0, phi1]).deg != 0:
        raise CommonZero("cover pair has a common zero")
    forms = [f.substitute(phi0, phi1) for f in curve.forms]
    return validate(curve.params, curve.e * k, forms, on_hypersurface=curve.on_x)


def lift(curve: Curve) -> Curve:
    """The same curve on the Fermat hypersurface one dimension up."""
    params = curve.params
    bigger = FermatParams(params.p, params.r, params.N + 1, params.ctx)
    return validate(bigger, curve.e, list(curve.forms) + [Form.zero(params.ctx, curve.e)],
                    on_hypersurface=curve.on_x)


def act_automorphism(curve: Curve, perm: Sequence[int], scalings: Sequence[int]) -> Curve:
    """Monomial automorphism: new f_i = scalings[i] * f_perm[i].

    Scalings must be d-th roots of unity so the hypersurface is preserved.
    """
    params = curve.params
    n1 = params.N + 1
    if sorted(perm) != list(range(n1)):
        raise ValueError("perm must be a permutation of the coordinates")
    if len(scalings) != n1:
        raise ValueError("need one scaling per coordinate")
    for lam in scalings:
        if params.ctx.pow(lam, params.d) != 1:
            raise BadScaling(f"{lam} is not a degree-{params.d} root of unity")
    forms = [curve.forms[perm[i]].scale(scalings[i]) for i in range(n1)]
    return validate(params, curve.e, forms, on_hypersurface=curve.on_x)


def is_rnc(curve: Curve) -> tuple[int, bool]:
    """Dimension of the spanned linear subspace, and whether the curve is a
    rational normal curve of its degree inside that span."""
    width = curve.e + 1
    rows = []
    for f in curve.forms:
        row = [0] * width
        for j in range(width):
            row[j] = f.coefficient(j)
        rows.append(row)
    rk = linalg.rank(curve.ctx, np.array(rows, dtype=np.int64))
    span_dim = rk - 1
    return span_dim, span_dim == curve.e
