"""Acceptance gate: ten numbered criteria, one test (and one report line
under pytest -v) per criterion.

Each criterion pins down an end to end property of the package: exact
splitting values on reference curves, window tables, probabilistic
vanishing probes, equivariance under covers and lifts, soundness of the
very-free verdict against the forbidden windows, and bulk algebra checks.
"""

import random
import time

import pytest

from fermatrc import fermat, splitbundle
from fermatrc.classify import balanced_model, classify, coefficient_vanishing_probe, forbidden_windows
from fermatrc.fermat import FermatParams, compose_cover, lift, validate
from fermatrc.ff import FieldCtx
from fermatrc.forms import Form
from fermatrc.search import SearchConfig, enumerate_standard_lines, random_cover_family, survey

from conftest import power_pair


def _standard_rnc(params, n):
    """The degree-n curve (s^n, s^(n-1)t, ..., t^n), not on the hypersurface."""
    ctx = params.ctx
    forms = [Form.monomial(ctx, n, j) for j in range(n + 1)]
    return validate(params, n, forms, on_hypersurface=False)


def test_criterion_01_rnc_cotangent_splitting():
    # the restricted cotangent bundle of a rational normal curve is
    # perfectly balanced: N summands, all equal to -(N + 1)
    cases = [(2, 2), (3, 1), (5, 1)]
    for p, r in cases:
        for n in range(3, 9):
            params = FermatParams.make(p, r, n)
            curve = _standard_rnc(params, n)
            start = time.perf_counter()
            st = splitbundle.splitting_omega_p(curve)
            elapsed = time.perf_counter() - start
            assert st.summands == (-(n + 1),) * n, (p, r, n)
            assert elapsed < 1.0, (p, r, n, elapsed)


def test_criterion_02_window_table_pr4():
    model = forbidden_windows(4)
    assert model.N == 5
    assert model.windows == ((0, 4), (5, 8), (10, 12))
    assert model.n0_bound == 12
    assert model.allowed_degrees(15) == [5, 9, 10, 13, 14, 15]


def test_criterion_03_line_fixtures(params44, params55):
    for params in (params44, params55):
        lines = enumerate_standard_lines(params)
        assert lines
        d = params.d
        for line in lines:
            check = validate(params, 1, line.forms)
            assert check.on_x
            report = classify(line)
            assert not report.free
            # dimension jump below the threshold degree: e = 1 < p^r - 1
            assert report.h0_TX > d + 1 - 1
            st = report.splitting_TX
            assert st.rank == params.N - 1
            assert sum(st.summands) == params.N + 1 - d
            assert st.degree == params.N + 1 - d


def test_criterion_04_section_count_tiers_agree(corpus):
    for name, curve in corpus:
        st = splitbundle.splitting_tx(curve)
        for m in range(-1, 6):
            expected = sum(max(a + m + 1, 0) for a in st.summands)
            assert splitbundle.h0_tx_direct(curve, m) == expected, (name, m)


def test_criterion_05_cover_equivariance(params44, params55, line44, line55):
    for params, line in ((params44, line44), (params55, line55)):
        base = splitbundle.splitting_tx(line)
        for k in (2, 3):
            expected = base.scaled(k).summands
            power = compose_cover(line, *power_pair(params.ctx, k))
            assert splitbundle.splitting_tx(power).summands == expected
            config = SearchConfig(params, k, seed=13, strategy="covers")
            for cover in random_cover_family(config, line, 2):
                assert splitbundle.splitting_tx(cover).summands == expected


def test_criterion_06_coefficient_vanishing():
    for p, r in ((3, 1), (2, 2)):
        params = FermatParams.make(p, r, p**r + 1)
        for e in range(1, p**r - 1):
            report = coefficient_vanishing_probe(params, e, trials=100, seed=0)
            assert report.all_vanish, (p, r, e)
            assert report.trials == 100

    # above the threshold a witness shows the vanishing is not automatic
    params = FermatParams.make(3, 1, 4)
    report = coefficient_vanishing_probe(params, 3, trials=100, seed=0)
    assert not report.all_vanish
    assert report.counterexample is not None
    assert report.trials <= 100


def test_criterion_07_balanced_model_consistency(corpus):
    hits = 0
    for name, curve in corpus:
        omega = splitbundle.splitting_omega_p(curve)
        if not omega.is_balanced:
            continue
        hits += 1
        pred = balanced_model(curve.e, curve.params.N, curve.params.pr)
        got = splitbundle.splitting_f(curve)
        assert got.summands == pred.prediction.summands, name
    assert hits > 0


@pytest.mark.slow
def test_criterion_08_soundness_sweep(params44, params55):
    start = time.monotonic()
    sweeps = (
        (params44, range(1, 10), 4500),
        (params55, range(1, 9), 4000),
    )
    for params, degrees, budget in sweeps:
        window = forbidden_windows(params.pr)
        rows = list(survey(params, degrees, budget, seed=0))
        assert rows
        per_degree = budget // len(list(degrees))
        assert per_degree >= 500
        seen = {}
        for row in rows:
            seen[row.e] = seen.get(row.e, 0) + 1
            assert seen[row.e] <= per_degree
            assert not (row.report.very_free and window.contains(row.e)), (
                params.pr, row.e, row.source,
            )
        assert set(seen) == set(degrees)
    assert time.monotonic() - start < 1800


def test_criterion_09_lift_checks(line44, line55, corpus):
    for line in (line44, line55):
        lifted = lift(line)
        assert lifted.on_x
        assert lifted.params.N == line.params.N + 1
        assert lifted.params.d == line.params.d
        before = splitbundle.splitting_tx(line)
        after = splitbundle.splitting_tx(lifted)
        assert after.rank == before.rank + 1
        assert after.degree == before.degree + line.e

    # the ampleness direction rides along whenever a very free specimen
    # shows up in the corpus; none of the constructed curves is one today
    for name, curve in corpus:
        if classify(curve).very_free:
            assert classify(lift(curve)).very_free, name


def test_criterion_10_algebra_suites():
    fields = [FieldCtx(3), FieldCtx(3, 2), FieldCtx(2, 2), FieldCtx(5, 2)]

    rng = random.Random(2026)
    for ctx in fields:
        for _ in range(250):
            a, b, c = (rng.randrange(ctx.q) for _ in range(3))
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.add(a, 0) == a and ctx.mul(a, 1) == a
            assert ctx.add(a, ctx.neg(a)) == 0
            if a != 0:
                assert ctx.mul(a, ctx.inv(a)) == 1

    rng = random.Random(777)
    for ctx in fields:
        for _ in range(250):
            a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
            k = rng.randrange(1, 2 * ctx.n + 1)
            fa, fb = ctx.frobenius(a, k), ctx.frobenius(b, k)
            assert ctx.frobenius(ctx.add(a, b), k) == ctx.add(fa, fb)
            assert ctx.frobenius(ctx.mul(a, b), k) == ctx.mul(fa, fb)

    rng = random.Random(41)
    specs = [(FieldCtx(3), 1), (FieldCtx(3, 2), 1), (FieldCtx(2, 2), 2), (FieldCtx(5, 2), 1)]
    for ctx, r in specs:
        for _ in range(250):
            deg = rng.randrange(1, 4)
            coeffs = [rng.randrange(ctx.q) for _ in range(deg + 1)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            f = Form.make(ctx, deg, coeffs)
            assert f.frob_power(r).coeffs == f.pow_int(ctx.p**r).coeffs
