"""Homogeneous binary forms in (s, t) over a finite field context.

``coeffs[j]`` is the coefficient of s^(deg-j) t^j, so vectors read off
ascending t-degree.  The zero form is first class: it stores an empty
coefficient tuple together with a declared degree, which may be any integer.
That lets kernel presentations carry zero rows with meaningful twists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import AllZero, DegreeMismatch
from .ff import FieldCtx


@dataclass(frozen=True)
class Form:
    ctx: FieldCtx
    deg: int
    coeffs: tuple[int, ...]

    @staticmethod
    def make(ctx: FieldCtx, deg: int, coeffs: Iterable[int]) -> "Form":
        cs = tuple(map(int, coeffs))
        if cs and (min(cs) < 0 or max(cs) >= ctx.q):
            raise ValueError("coefficients must be canonical field elements")
        if not any(cs):
            return Form(ctx, deg, ())
        if deg < 0 or len(cs) != deg + 1:
            raise ValueError(f"need {deg + 1} coefficients for degree {deg}")
        return Form(ctx, deg, cs)

    @staticmethod
    def zero(ctx: FieldCtx, deg: int) -> "Form":
        return Form(ctx, deg, ())

    @staticmethod
    def monomial(ctx: FieldCtx, deg: int, t_exp: int, coeff: int = 1) -> "Form":
        if not 0 <= t_exp <= deg:
            raise ValueError("t exponent out of range")
        cs = [0] * (deg + 1)
        cs[t_exp] = coeff
        return Form.make(ctx, deg, cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, t_exp: int) -> int:
        if self.is_zero or not 0 <= t_exp <= self.deg:
            return 0
        return self.coeffs[t_exp]

    def t_degree(self) -> Optional[int]:
        """Largest t-exponent with nonzero coefficient; None for zero."""
        if self.is_zero:
            return None
        j = len(self.coeffs) - 1
        while self.coeffs[j] == 0:
            j -= 1
        return j

    def s_valuation(self) -> Optional[int]:
        td = self.t_degree()
        return None if td is None else self.deg - td

    def __add__(self, other: "Form") -> "Form":
        if self.ctx != other.ctx:
            raise ValueError("mixed field contexts")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.deg != other.deg:
            raise DegreeMismatch(f"cannot add degrees {self.deg} and {other.deg}")
        ctx = self.ctx
        add = ctx.rows.add
        return Form.make(ctx, self.deg, [add[a][b] for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Form":
        ctx = self.ctx
        neg = ctx.rows.neg
        return Form(ctx, self.deg, tuple(neg[c] for c in self.coeffs))

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c: int) -> "Form":
        ctx = self.ctx
        if c == 0 or self.is_zero:
            return Form.zero(ctx, self.deg)
        by_c = ctx.rows.mul[ctx._check(c)]
        return Form.make(ctx, self.deg, [by_c[a] for a in self.coeffs])

    def __mul__(self, other: "Form") -> "Form":
        if self.ctx != other.ctx:
            raise ValueError("mixed field contexts")
        deg = self.deg + other.deg
        if self.is_zero or other.is_zero:
            return Form.zero(self.ctx, deg)
        ctx = self.ctx
        add, mul = ctx.rows.add, ctx.rows.mul
        out = [0] * (deg + 1)
        live = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                by_a = mul[a]
                for j, b in live:
                    out[i + j] = add[out[i + j]][by_a[b]]
        return Form.make(ctx, deg, out)

    def frob_power(self, r: int) -> "Form":
        """The p^r-th power, via coefficient spreading.

        (sum a_j s^(d-j) t^j)^(p^r) = sum a_j^(p^r) s^((d-j)p^r) t^(j p^r),
        so the result has degree d*p^r and support only at multiples of p^r.
        """
        if r < 0:
            raise ValueError("Frobenius power must be >= 0")
        ctx = self.ctx
        pr = ctx.p**r
        deg = self.deg * pr
        if self.is_zero:
            return Form.zero(ctx, deg)
        frob = ctx.rows.frob[r % ctx.n]
        out = [0] * (deg + 1)
        for j, a in enumerate(self.coeffs):
            out[j * pr] = frob[a]
        return Form.make(ctx, deg, out)

    def pow_int(self, k: int) -> "Form":
        if k < 0:
            raise ValueError("exponent must be >= 0")
        result = Form.make(self.ctx, 0, [1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def substitute(self, phi0: "Form", phi1: "Form") -> "Form":
        """f(phi0, phi1) for a pair of equal-degree forms."""
        if phi0.deg != phi1.deg:
            raise DegreeMismatch("substitution pair must share a degree")
        k = phi0.deg
        deg = self.deg * k
        if self.is_zero:
            return Form.zero(self.ctx, deg)
        powers0 = [Form.make(self.ctx, 0, [1])]
        powers1 = [Form.make(self.ctx, 0, [1])]
        for _ in range(self.deg):
            powers0.append(powers0[-1] * phi0)
            powers1.append(powers1[-1] * phi1)
        acc = Form.zero(self.ctx, deg)
        for j, a in enumerate(self.coeffs):
            if a:
                acc = acc + (powers0[self.deg - j] * powers1[j]).scale(a)
        if acc.is_zero:
            return Form.zero(self.ctx, deg)
        return acc

    def to_json(self) -> list[int]:
        if self.deg < 0:
            raise ValueError("cannot serialize a form of negative degree")
        if self.is_zero:
            return [0] * (self.deg + 1)
        return list(self.coeffs)

    @staticmethod
    def from_json(ctx: FieldCtx, arr: Sequence[int], deg: Optional[int] = None) -> "Form":
        cs = list(arr)
        d = len(cs) - 1 if deg is None else deg
        if len(cs) != d + 1:
            raise ValueError(f"expected {d + 1} coefficients, got {len(cs)}")
        return Form.make(ctx, d, cs)

    def __str__(self) -> str:
        if self.is_zero:
            return f"0(deg {self.deg})"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            se, te = self.deg - j, j
            mono = "*".join(
                ([f"s^{se}"] if se > 1 else ["s"] if se == 1 else [])
                + ([f"t^{te}"] if te > 1 else ["t"] if te == 1 else [])
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)


def _uni_divmod(a: list[int], b: list[int], ctx: FieldCtx) -> list[int]:
    """Remainder of univariate a by nonzero b, coefficients in ctx."""
    rows = ctx.rows
    sub, mul = rows.sub, rows.mul
    r = list(a)
    by_lead_inv = mul[rows.inv[b[-1]]]
    while r and len(r) >= len(b):
        by_c = mul[by_lead_inv[r[-1]]]
        shift = len(r) - len(b)
        for i, bi in enumerate(b):
            r[shift + i] = sub[r[shift + i]][by_c[bi]]
        while r and r[-1] == 0:
            r.pop()
    return r


def _monic(a: list[int], ctx: FieldCtx) -> list[int]:
    rows = ctx.rows
    by_inv = rows.mul[rows.inv[a[-1]]]
    return [by_inv[c] for c in a]


def _uni_gcd(a: list[int], b: list[int], ctx: FieldCtx) -> list[int]:
    while b:
        a, b = b, _uni_divmod(a, b, ctx)
    return _monic(a, ctx)


def form_gcd(forms: Sequence[Form]) -> Form:
    """Monic gcd of a family of binary forms.

    Dehomogenize at s = 1, run the univariate Euclid, rehomogenize, and put
    back the shared power of s (tracked as the minimal drop in t-degree).
    Zero forms are skipped; an all-zero family raises AllZero.
    """
    live = [f for f in forms if not f.is_zero]
    if not live:
        raise AllZero("gcd of an all-zero family")
    ctx = live[0].ctx
    s_val = min(f.deg - f.t_degree() for f in live)
    g: list[int] = []
    for f in live:
        td = f.t_degree()
        dehom = list(f.coeffs[: td + 1])
        g = dehom if not g else _uni_gcd(g, dehom, ctx)
        if len(g) == 1 and s_val == 0:
            break
    if g[-1] != 1:
        g = _monic(g, ctx)
    deg_t = len(g) - 1
    out = [0] * (s_val + deg_t + 1)
    for j, c in enumerate(g):
        out[j] = c
    return Form.make(ctx, s_val + deg_t, out)
