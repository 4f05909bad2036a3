"""Curve producers: line enumeration, the alternating heuristic, cover
sampling, the gated exhaustive scan, and the survey driver."""

import pytest

from fermatrc import search as search_module
from fermatrc.errors import DegreeNotDivisible, NoRoots, SpaceTooLarge
from fermatrc.fermat import act_automorphism, expand_F, is_rnc, validate
from fermatrc.forms import Form
from fermatrc.search import (
    SearchConfig,
    alternating_solve,
    canonical_key,
    canonical_representative,
    enumerate_standard_lines,
    exhaustive_scan,
    projective_key,
    random_cover_family,
    roots_of_unity,
    survey,
)
from fermatrc.splitbundle import splitting_tx


def test_roots_of_unity(gf9, gf4):
    quartic = roots_of_unity(gf9, 4)
    assert len(quartic) == 4 and 1 in quartic
    for a in quartic:
        assert gf9.pow(a, 4) == 1
    # the unit group of GF(4) has order 3, so fifth powers are a bijection
    assert roots_of_unity(gf4, 5) == [1]
    assert roots_of_unity(gf4, 3) == [1, 2, 3]


def test_config_validation(params44):
    with pytest.raises(ValueError):
        SearchConfig(params44, 0)
    with pytest.raises(ValueError):
        SearchConfig(params44, 1, strategy="annealing")
    with pytest.raises(ValueError):
        SearchConfig(params44, 1, max_iter=0)


def test_enumerate_lines_x44(params44):
    lines = enumerate_standard_lines(params44)
    assert len(lines) == 1
    line = lines[0]
    assert line.e == 1 and line.on_x
    assert canonical_key(line) == canonical_key(canonical_representative(line))


def test_enumerate_lines_x55_contains_pairing(params55):
    lines = enumerate_standard_lines(params55)
    assert len(lines) == 1
    ctx = params55.ctx
    s = Form.monomial(ctx, 1, 0)
    t = Form.monomial(ctx, 1, 1)
    z = Form.zero(ctx, 1)
    manual = validate(params55, 1, [s, s, t, t, z, z])
    assert canonical_key(manual) in {canonical_key(l) for l in lines}


def test_enumerate_lines_without_roots(params43):
    with pytest.raises(NoRoots):
        enumerate_standard_lines(params43)


def test_canonical_key_is_orbit_invariant(line44):
    moved = act_automorphism(line44, [2, 0, 4, 1, 3], [1, 2, 1, 2, 1])
    assert canonical_key(moved) == canonical_key(line44)


def test_projective_key_absorbs_global_scaling(line44):
    ctx = line44.ctx
    scaled = validate(line44.params, line44.e, [f.scale(4) for f in line44.forms])
    assert projective_key(scaled) == projective_key(line44)


def test_alternating_solver_finds_degree_one(params44):
    for seed in range(6):
        hit = alternating_solve(SearchConfig(params44, 1, seed, max_iter=500))
        assert hit is not None
        assert hit.e == 1 and hit.on_x


def test_alternating_solver_is_deterministic(params44):
    a = alternating_solve(SearchConfig(params44, 2, 1, max_iter=500))
    b = alternating_solve(SearchConfig(params44, 2, 1, max_iter=500))
    assert a is not None and b is not None
    assert a.to_json() == b.to_json()


def test_alternating_solver_other_instance(params55):
    hit = alternating_solve(SearchConfig(params55, 1, 0, max_iter=500))
    assert hit is not None and hit.on_x


def test_random_cover_family(params44, line44):
    covers = random_cover_family(SearchConfig(params44, 2, seed=7), line44, 5)
    assert len(covers) == 5
    base = splitting_tx(line44)
    for c in covers:
        assert c.e == 2 and c.on_x
        assert splitting_tx(c).summands == base.scaled(2).summands
    again = random_cover_family(SearchConfig(params44, 2, seed=7), line44, 5)
    assert [c.to_json() for c in covers] == [c.to_json() for c in again]


def test_cover_family_rejects_bad_degrees(params44, params55, line44):
    with pytest.raises(DegreeNotDivisible):
        double = random_cover_family(SearchConfig(params44, 2, seed=1), line44, 1)[0]
        random_cover_family(SearchConfig(params44, 3, seed=1), double, 1)
    with pytest.raises(ValueError):
        random_cover_family(SearchConfig(params55, 2, seed=1), line44, 1)


def test_exhaustive_scan_small_instance(params43):
    found = exhaustive_scan(SearchConfig(params43, 1, strategy="exhaustive"))
    assert len(found) == 1
    curve = found[0]
    assert [f.to_json() for f in curve.forms] == [[1, 0], [0, 1], [1, 1], [1, 2]]
    assert is_rnc(curve) == (1, True)


def test_exhaustive_scan_validates_only_tuples_on_x(params43, monkeypatch):
    validated = []

    def recording_validate(params, e, forms, *args, **kwargs):
        validated.append(list(forms))
        return validate(params, e, forms, *args, **kwargs)

    monkeypatch.setattr(search_module, "validate", recording_validate)
    found = exhaustive_scan(SearchConfig(params43, 1, strategy="exhaustive"))
    assert [f.to_json() for f in found[0].forms] == [[1, 0], [0, 1], [1, 1], [1, 2]]
    assert validated and all(expand_F(params43, forms).is_zero for forms in validated)


def test_exhaustive_scan_gate(params44):
    with pytest.raises(SpaceTooLarge):
        exhaustive_scan(SearchConfig(params44, 3, strategy="exhaustive"))


def test_survey_rows_and_determinism(params44):
    rows = survey(params44, [1, 2], budget=20, seed=9)
    assert 0 < len(rows) <= 20
    assert {row.e for row in rows} == {1, 2}
    for row in rows:
        assert row.source in {"lines", "alternating", "exhaustive", "covers"}
        assert row.curve.on_x
        assert row.report.chi == row.curve.e * (params44.N + 1 - params44.d) + params44.N - 1
    again = survey(params44, [1, 2], budget=20, seed=9)
    assert [r.to_json() for r in rows] == [r.to_json() for r in again]


def test_survey_budget_is_a_cap(params44):
    rows = survey(params44, [2], budget=3, seed=0)
    assert len(rows) <= 3
    with pytest.raises(ValueError):
        survey(params44, [], budget=5)
    with pytest.raises(ValueError):
        survey(params44, [1], budget=0)
