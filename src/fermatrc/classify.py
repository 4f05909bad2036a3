"""Classification of curves on Fermat hypersurfaces: freeness, degree
windows, tangent-space jumps, and the balanced-restriction prediction.

A curve is free when every summand of f*T_X is >= 0 and very free when
every summand is >= 1.  On the diagonal hypersurfaces (N = d) the degree
windows (mN, (m+1)(N-1)] for 0 <= m <= N-3 admit no very-free curve, and
every verdict produced here is checked against that: a very-free report in
a forbidden window raises WindowViolation instead of returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import UsageError, WindowViolation
from .fermat import Curve, FermatParams, expand_F
from .ff import is_prime
from .forms import Form
from .rng import SplitMix64
from .splitbundle import SplittingType, frobenius_pullback, tx_pipeline


def prime_power(m: int) -> tuple[int, int]:
    """Factor m as p^r with p prime, else raise UsageError.

    The form is unique, so it takes the integer r-th root of m for each
    r < log2(m), by Newton's method from above, and tests it with
    Miller-Rabin: no trial division, which hangs on a large prime.
    """
    if m < 2:
        raise UsageError(f"{m} is not a prime power")
    for r in range(1, m.bit_length()):
        p = 1 << -(-m.bit_length() // r)
        while (q := ((r - 1) * p + m // p ** (r - 1)) // r) < p:
            p = q
        if p**r == m and is_prime(p):
            return p, r
    raise UsageError(f"{m} is not a prime power")


@dataclass(frozen=True)
class WindowModel:
    """Forbidden degree windows for the diagonal case N = d = p^r + 1."""

    pr: int
    N: int
    windows: tuple[tuple[int, int], ...]
    n0_bound: int

    def contains(self, e: int) -> bool:
        # both ends grow with m, so only the last window starting below e can hold it
        m = (e - 1) // self.N
        return 0 <= m < len(self.windows) and e <= self.windows[m][1]

    def allowed_degrees(self, max_e: int) -> list[int]:
        return [e for e in range(1, max_e + 1) if not self.contains(e)]


def forbidden_windows(pr: int) -> WindowModel:
    p, r = prime_power(pr)
    if pr <= 2:
        raise UsageError("need p^r > 2 so the degree exceeds 3")
    N = pr + 1
    windows = tuple((m * N, (m + 1) * (N - 1)) for m in range(N - 2))
    n0 = pr * (pr - 1)
    assert n0 == max(hi for _, hi in windows)
    return WindowModel(pr, N, windows, n0)


@dataclass(frozen=True)
class BalancedPrediction:
    """Splitting of f*F predicted by a balanced restricted cotangent sheaf."""

    a: int
    l: int
    lprime: int
    b1: int
    b2: int
    prediction: SplittingType


def balanced_model(e: int, N: int, pr: int) -> BalancedPrediction:
    """The balanced corollary of the Frobenius pullback identity.

    A balanced f*Omega^1 of rank N and degree -(N+1)e splits as
    O(-a)^l + O(-a-1)^l' with a = e + floor(e/N) and l' = e mod N.
    frobenius_pullback then gives f*F with summands
    b1 = -a*p^r + e(p^r + 1) of multiplicity l and b2 = b1 - p^r of
    multiplicity l'.
    """
    if e < 1 or N < 3:
        raise UsageError("need e >= 1 and N >= 3")
    prime_power(pr)
    a = e + e // N
    lprime = (N + 1) * e - N * a
    l = N - lprime
    b1, b2 = frobenius_pullback(SplittingType((-a, -a - 1)), pr, (pr + 1) * e).summands
    pred = SplittingType.of([b1] * l + [b2] * lprime)
    return BalancedPrediction(a, l, lprime, b1, b2, pred)


@dataclass(frozen=True)
class TangentReport:
    """First-order data of the space of degree-e curves at a given curve."""

    h0_TX: int
    cone_dim: int
    expected: int
    jump: bool

    def to_json(self) -> dict:
        return {
            "h0_TX": self.h0_TX,
            "cone_dim": self.cone_dim,
            "expected": self.expected,
            "jump": self.jump,
        }


def tangent_report(curve: Curve) -> TangentReport:
    """Tangent dimension versus the expected dimension d + e - 1 (N = d)."""
    params = curve.params
    if params.N != params.d:
        raise UsageError("tangent comparison is defined on the diagonal N = d")
    from .splitbundle import h0_tx_direct

    h0 = h0_tx_direct(curve, 0)
    expected = params.d + curve.e - 1
    return TangentReport(h0, h0 + 1, expected, h0 > expected)


@dataclass(frozen=True)
class ClassificationReport:
    splitting_TX: SplittingType
    splitting_F: SplittingType
    splitting_omega_P: SplittingType
    free: bool
    very_free: bool
    h0_TX: int
    h1_TX: int
    chi: int
    in_forbidden_window: Optional[bool]

    def to_json(self) -> dict:
        out = {
            "splitting_TX": self.splitting_TX.to_json("TX"),
            "splitting_F": self.splitting_F.to_json("F"),
            "splitting_omega_P": self.splitting_omega_P.to_json("omega_P"),
            "free": self.free,
            "very_free": self.very_free,
            "h0_TX": self.h0_TX,
            "h1_TX": self.h1_TX,
            "chi": self.chi,
        }
        if self.in_forbidden_window is not None:
            out["in_forbidden_window"] = self.in_forbidden_window
        return out


def chi_tx(params: FermatParams, e: int) -> int:
    """Euler characteristic of f*T_X: e(N+1-d) + N - 1."""
    return e * (params.N + 1 - params.d) + params.N - 1


def classify(curve: Curve) -> ClassificationReport:
    """Full splitting report; raises WindowViolation if a very-free verdict
    lands inside a forbidden degree window, which would mean an internal
    soundness failure rather than a discovery."""
    params = curve.params
    data = tx_pipeline(curve)
    tx = data.splitting_tx
    free = tx.min_summand >= 0
    very_free = tx.min_summand >= 1
    h0 = tx.h0_at(0)
    chi = chi_tx(params, curve.e)
    window: Optional[bool] = None
    if params.N == params.d:
        window = forbidden_windows(params.pr).contains(curve.e)
        if window and very_free:
            raise WindowViolation(
                f"very-free curve of degree {curve.e} inside a forbidden window"
            )
    return ClassificationReport(
        splitting_TX=tx,
        splitting_F=data.splitting_f,
        splitting_omega_P=data.splitting_omega,
        free=free,
        very_free=very_free,
        h0_TX=h0,
        h1_TX=h0 - chi,
        chi=chi,
        in_forbidden_window=window,
    )


@dataclass(frozen=True)
class ProbeReport:
    all_vanish: bool
    trials: int
    exponents: tuple[int, ...]
    counterexample: Optional[dict]

    def to_json(self) -> dict:
        return {
            "all_vanish": self.all_vanish,
            "trials": self.trials,
            "exponents": list(self.exponents),
            "counterexample": self.counterexample,
        }


def coefficient_vanishing_probe(
    params: FermatParams, e: int, trials: int = 100, seed: int = 0
) -> ProbeReport:
    """Sample coefficient tuples and test the forced-vanishing exponents.

    For each random (N+1)-tuple of degree-e forms (not required to lie on
    the hypersurface) the expansion sum f_i^(p^r) f_i is formed and the
    coefficients of t^(j*p^r - 1), j = 1..e, are checked.  For e < p^r - 1
    they vanish identically; the first nonvanishing witness is reported
    otherwise.
    """
    if e < 1:
        raise ValueError("degree must be >= 1")
    ctx = params.ctx
    rng = SplitMix64(seed)
    exponents = tuple(j * params.pr - 1 for j in range(1, e + 1))
    for trial in range(1, trials + 1):
        forms = [
            Form.make(ctx, e, [rng.below(ctx.q) for _ in range(e + 1)])
            for _ in range(params.N + 1)
        ]
        expansion = expand_F(params, forms)
        for j, exp in zip(range(1, e + 1), exponents):
            c = expansion.coefficient(exp)
            if c != 0:
                return ProbeReport(
                    all_vanish=False,
                    trials=trial,
                    exponents=exponents,
                    counterexample={
                        "curve": [f.to_json() for f in forms],
                        "j": j,
                        "t_exponent": exp,
                        "coefficient": c,
                    },
                )
    return ProbeReport(True, trials, exponents, None)
