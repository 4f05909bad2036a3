"""Shared fixtures: small fields, the two diagonal instances used across
the suite, and a corpus of constructed curves for the invariant sweeps."""

import pytest

from fermatrc.fermat import FermatParams, compose_cover, lift
from fermatrc.ff import FieldCtx
from fermatrc.forms import Form
from fermatrc.search import (
    SearchConfig,
    alternating_solve,
    enumerate_standard_lines,
    exhaustive_scan,
    random_cover_family,
)


@pytest.fixture(scope="session")
def gf3():
    return FieldCtx(3)


@pytest.fixture(scope="session")
def gf2():
    return FieldCtx(2)


@pytest.fixture(scope="session")
def gf9():
    return FieldCtx(3, 2)


@pytest.fixture(scope="session")
def gf4():
    return FieldCtx(2, 2)


@pytest.fixture(scope="session")
def params44():
    # d = 4 = 3 + 1, ambient dimension 4, default field GF(9)
    return FermatParams.make(3, 1, 4)


@pytest.fixture(scope="session")
def params55(gf4):
    # d = 5 = 4 + 1, ambient dimension 5, over GF(4) to keep scans small
    return FermatParams.make(2, 2, 5, ctx=gf4)


@pytest.fixture(scope="session")
def params43(gf3):
    # d = 4 in ambient dimension 3 over the prime field: no standard lines
    return FermatParams.make(3, 1, 3, ctx=gf3)


@pytest.fixture(scope="session")
def line44(params44):
    lines = enumerate_standard_lines(params44)
    assert lines
    return lines[0]


@pytest.fixture(scope="session")
def line55(params55):
    lines = enumerate_standard_lines(params55)
    assert lines
    return lines[0]


def power_pair(ctx, k):
    """The base-point-free pair (s^k, t^k)."""
    return Form.monomial(ctx, k, 0), Form.monomial(ctx, k, k)


@pytest.fixture(scope="session")
def corpus(params44, params55, params43, line44, line55):
    """Named curves from every constructor, reused by the property sweeps."""
    out = [("line44", line44), ("line55", line55)]
    ctx9 = params44.ctx
    out.append(("line44_sq", compose_cover(line44, *power_pair(ctx9, 2))))
    out.append(("line44_cube", compose_cover(line44, *power_pair(ctx9, 3))))
    for i, c in enumerate(random_cover_family(SearchConfig(params44, 2, seed=7), line44, 2)):
        out.append((f"cover44_k2_{i}", c))
    for i, c in enumerate(random_cover_family(SearchConfig(params44, 3, seed=11), line44, 2)):
        out.append((f"cover44_k3_{i}", c))
    for i, c in enumerate(random_cover_family(SearchConfig(params55, 2, seed=5), line55, 2)):
        out.append((f"cover55_k2_{i}", c))
    out.append(("line44_lift", lift(line44)))
    alt1 = alternating_solve(SearchConfig(params44, 1, seed=3, max_iter=500))
    assert alt1 is not None
    out.append(("alt44_e1", alt1))
    alt2 = alternating_solve(SearchConfig(params44, 2, seed=1, max_iter=500))
    assert alt2 is not None
    out.append(("alt44_e2", alt2))
    scan = exhaustive_scan(SearchConfig(params43, 1, strategy="exhaustive"))
    assert scan
    out.append(("scan43", scan[0]))
    return out


@pytest.fixture(scope="session")
def gf729():
    # above the table limit: every op computes on base-3 digits, and its
    # rows and tables are views that compute their entries
    return FieldCtx(3, 6)
