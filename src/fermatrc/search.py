"""Curve discovery on Fermat hypersurfaces.

Four strategies feed the classifier: the standard two-pair line family,
random covers of known curves, a seeded alternating linear-solve heuristic
exploiting the Frobenius-bilinear shape of the defining equation, and a
complete scan of small coefficient spaces.  Everything is deterministic
given the seed; the survey driver classifies what the strategies find and
lets a very-free verdict in a forbidden degree window fail the run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import linalg
from .classify import ClassificationReport, classify
from .errors import (
    DegreeNotDivisible,
    DomainError,
    FermatRCError,
    NoRoots,
    SpaceTooLarge,
)
from .fermat import (
    Curve,
    FermatParams,
    compose_cover,
    expand_F,
    make_line,
    roots_of_minus_one,
    validate,
)
from .forms import Form, form_gcd
from .rng import SplitMix64, derive_seed
from .splitbundle import mult_matrix

STRATEGIES = ("lines", "covers", "alternating", "exhaustive")

# complete-scan gate, measured in normalized coefficient tuples: a tuple
# costs 25 to 40 us (X44 to X45 at e = 1), so the largest scan it accepts
# takes about a minute
EXHAUSTIVE_LIMIT = 2_000_000

# alternating-solver gate, measured in the matrix cells of one round: the
# multiplication matrix (d*e + 1 rows) and its dense kernel basis, both
# (N + 1)(e + 1) wide.  X44 in P^2000 at e = 1 is 16 million cells, a
# 1.7 s round with a 152 MB peak; X44 at e = 19 is 17,700 cells, 7 ms
ALTERNATING_LIMIT = 1 << 24

# line-enumeration gate, measured in candidate lines: ordered coordinate
# quadruples times pairs of roots of -1 (X44: 1,920; X55: 9,000)
LINES_LIMIT = 1 << 16

# cover-family gate, measured in work units: each cover's (N + 1)(e + 1)
# coefficients plus e^2 for the gcd of its pair and the substitution.  A
# unit costs 11 us at most (X44 at e = 2, where the per-cover overhead
# dominates; 0.5 us at e = 96 and 500), so the largest family it accepts
# takes about 10 s
COVERS_LIMIT = 900_000

# survey only runs the complete scan when it is this cheap
_SURVEY_SCAN_CAP = 60_000

_ALTERNATING_DRAWS = 8

# cover sampling gives up after this many degenerate pairs in a row
_DEGENERATE_DRAWS = 1000


@dataclass(frozen=True)
class SearchConfig:
    params: FermatParams
    e: int
    seed: int = 0
    max_iter: int = 1000
    strategy: str = "alternating"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.e < 1:
            raise ValueError("target degree must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def roots_of_unity(ctx, d: int) -> list[int]:
    """All x with x^d = 1, ascending; always contains 1."""
    return [a for a in ctx.elements() if a != 0 and ctx.pow(a, d) == 1]


def _min_scaled(ctx, coeffs: tuple[int, ...], units: Sequence[int]) -> tuple[int, ...]:
    mul = ctx.rows.mul
    best = None
    for lam in units:
        by_lam = mul[lam]
        cand = tuple(by_lam[c] for c in coeffs)
        if best is None or cand < best:
            best = cand
    return best


def _coeff_rows(curve: Curve) -> list[tuple[int, ...]]:
    width = curve.e + 1
    return [tuple(f.coefficient(j) for j in range(width)) for f in curve.forms]


def canonical_key(
    curve: Curve, units: Optional[Sequence[int]] = None
) -> tuple[tuple[int, ...], ...]:
    """Invariant of the orbit under coordinate permutations and d-th root
    scalings: minimize each coordinate row over the scalings, then sort.

    Scalings act on rows independently and permutations reorder them, so
    this is exactly the lexicographically smallest encoding in the orbit.
    Callers that key many curves pass units = roots_of_unity(ctx, d).
    """
    ctx = curve.ctx
    if units is None:
        units = roots_of_unity(ctx, curve.params.d)
    return tuple(sorted(_min_scaled(ctx, row, units) for row in _coeff_rows(curve)))


def canonical_representative(curve: Curve) -> Curve:
    """The curve whose encoding is canonical_key(curve); same orbit."""
    forms = [Form.make(curve.ctx, curve.e, list(row)) for row in canonical_key(curve)]
    return validate(curve.params, curve.e, forms, on_hypersurface=curve.on_x)


def projective_key(
    curve: Curve, units: Optional[Sequence[int]] = None
) -> tuple[tuple[int, ...], ...]:
    """canonical_key refined by global rescaling of the whole tuple.

    A global unit multiplies the defining expansion by its d-th power, so
    the rescaled tuple stays on X and defines the same projective map.
    """
    ctx = curve.ctx
    if units is None:
        units = roots_of_unity(ctx, curve.params.d)
    base = _coeff_rows(curve)
    mul = ctx.rows.mul
    best = None
    for lam in range(1, ctx.q):
        by_lam = mul[lam]
        rows = [_min_scaled(ctx, tuple(by_lam[c] for c in row), units) for row in base]
        cand = tuple(sorted(rows))
        if best is None or cand < best:
            best = cand
    return best


def enumerate_standard_lines(params: FermatParams) -> list[Curve]:
    """One representative per automorphism orbit of the two-pair lines.

    Runs over all ordered choices of four distinct coordinates and all
    d-th roots of -1 for the pair ratios; orbit duplicates collapse.  More
    than LINES_LIMIT candidates are refused, not attempted.
    """
    roots = roots_of_minus_one(params.ctx, params.d)
    if not roots:
        raise NoRoots(f"the field has no degree-{params.d} roots of -1")
    total = math.perm(params.N + 1, 4) * len(roots) ** 2
    if total > LINES_LIMIT:
        raise SpaceTooLarge(f"{total} candidate lines exceed the enumeration gate")
    units = roots_of_unity(params.ctx, params.d)
    seen: dict = {}
    for quad in itertools.permutations(range(params.N + 1), 4):
        pattern = ((quad[0], quad[1]), (quad[2], quad[3]))
        for alpha in roots:
            for beta in roots:
                line = make_line(params, alpha, beta, pattern)
                key = canonical_key(line, units)
                if key not in seen:
                    seen[key] = canonical_representative(line)
    return [seen[k] for k in sorted(seen)]


def _combine(ctx, basis: np.ndarray, coeffs: Sequence[int]) -> np.ndarray:
    T = ctx.tables()
    acc = np.zeros(basis.shape[1], dtype=np.int64)
    for c, row in zip(coeffs, basis):
        if c:
            acc = T.add[acc, T.mul[c, row]]
    return acc


def _blocks_to_forms(ctx, e: int, n1: int, vec: np.ndarray) -> list[Form]:
    width = e + 1
    return [
        Form.make(ctx, e, [int(x) for x in vec[i * width : (i + 1) * width]])
        for i in range(n1)
    ]


def alternating_solve(config: SearchConfig) -> Optional[Curve]:
    """Seeded fixed-point heuristic for curves on X.

    Each round freezes the Frobenius block of the current tuple, so the
    defining equation becomes linear in the next tuple; a few draws from
    the kernel of that system are tested for the fixed-point property
    (the draw lies in the kernel of its own block, which is the on-X
    condition).  A base-point-free hit is returned; otherwise the last
    draw seeds the next round.  Best effort: None after max_iter rounds.
    A round above ALTERNATING_LIMIT matrix cells is refused, not attempted.
    """
    params = config.params
    ctx = params.ctx
    e = config.e
    n1 = params.N + 1
    twist = params.d * e
    width = n1 * (e + 1)
    cells = (twist + 1 + width) * width
    if cells > ALTERNATING_LIMIT:
        raise SpaceTooLarge(f"{cells} matrix cells a round exceed the alternating gate")
    delta = e * params.pr
    rng = SplitMix64(config.seed)

    def random_tuple() -> list[Form]:
        return [
            Form.make(ctx, e, [rng.below(ctx.q) for _ in range(e + 1)])
            for _ in range(n1)
        ]

    current = random_tuple()
    for _ in range(config.max_iter):
        if all(f.is_zero for f in current):
            current = random_tuple()
            continue
        entries = [(f.frob_power(params.r), delta) for f in current]
        basis = linalg.kernel_basis(ctx, mult_matrix(entries, twist))
        if basis.shape[0] == 0:
            current = random_tuple()
            continue
        successor: Optional[list[Form]] = None
        for _ in range(_ALTERNATING_DRAWS):
            vec = _combine(ctx, basis, [rng.below(ctx.q) for _ in range(basis.shape[0])])
            forms = _blocks_to_forms(ctx, e, n1, vec)
            if all(f.is_zero for f in forms):
                continue
            if successor is None:
                successor = forms
            if expand_F(params, forms).is_zero:
                try:
                    return validate(params, e, forms)
                except DomainError:
                    successor = forms
        current = successor if successor is not None else random_tuple()
    return None


def random_cover_family(config: SearchConfig, base: Curve, count: int) -> list[Curve]:
    """The first count covers of _cover_stream(config, base).  A family of
    more than COVERS_LIMIT work units is refused, not attempted."""
    covers = _cover_stream(config, base)
    e = config.e
    work = count * ((config.params.N + 1) * (e + 1) + e * e)
    if work > COVERS_LIMIT:
        raise SpaceTooLarge(f"{count} covers of degree {e} exceed the cover gate")
    return list(itertools.islice(covers, count))


def _cover_stream(config: SearchConfig, base: Curve) -> Iterator[Curve]:
    """Seeded covers of base with base-point-free pairs of degree
    config.e / base.e, one at a time; draws sharing a factor are rejected
    and redrawn.  The arguments are checked at call time."""
    if base.params != config.params:
        raise ValueError("base curve parameters do not match the search")
    if config.e % base.e != 0:
        raise DegreeNotDivisible(
            f"target degree {config.e} is not a multiple of {base.e}"
        )
    k = config.e // base.e
    ctx = config.params.ctx

    def covers() -> Iterator[Curve]:
        rng = SplitMix64(config.seed)
        degenerate = 0
        while True:
            phi0 = Form.make(ctx, k, [rng.below(ctx.q) for _ in range(k + 1)])
            phi1 = Form.make(ctx, k, [rng.below(ctx.q) for _ in range(k + 1)])
            if phi0.is_zero or phi1.is_zero or form_gcd([phi0, phi1]).deg != 0:
                degenerate += 1
                if degenerate > _DEGENERATE_DRAWS:
                    raise RuntimeError("cover sampling kept drawing degenerate pairs")
                continue
            degenerate = 0
            yield compose_cover(base, phi0, phi1)

    return covers()


def _scan_budget(params: FermatParams, e: int, units: Sequence[int]) -> int:
    """Number of tuples a complete scan would enumerate."""
    # the scaling action is free on nonzero rows, so the count is exact
    m_count = (params.ctx.q ** (e + 1) - 1) // len(units) + 1
    return math.comb(m_count + params.N, params.N + 1)


def _minimal_rows(ctx, e: int, units: Sequence[int]) -> list[tuple[int, ...]]:
    width = e + 1
    rows = []
    for packed in range(ctx.q**width):
        row = []
        v = packed
        for _ in range(width):
            row.append(v % ctx.q)
            v //= ctx.q
        row = tuple(row)
        if row == _min_scaled(ctx, row, units):
            rows.append(row)
    return rows


def exhaustive_scan(config: SearchConfig) -> list[Curve]:
    """Every valid degree-e curve, up to coordinate symmetry and global
    rescaling, by complete enumeration of normalized coefficient tuples.

    Tuples are enumerated as nondecreasing sequences of scaling-minimal
    rows, which are exactly the canonical_key representatives; results are
    deduplicated once more under global rescaling.  Oversized spaces are
    refused, not attempted.
    """
    params = config.params
    ctx = params.ctx
    e = config.e
    units = roots_of_unity(ctx, params.d)
    total = _scan_budget(params, e, units)
    if total > EXHAUSTIVE_LIMIT:
        raise SpaceTooLarge(f"{total} normalized tuples exceed the scan gate")
    rows = _minimal_rows(ctx, e, units)
    found: dict = {}
    for combo in itertools.combinations_with_replacement(rows, params.N + 1):
        forms = [Form.make(ctx, e, list(r)) for r in combo]
        # membership first: almost every tuple is off X, and the on-X test
        # is cheaper than the gcd that validate runs before it
        try:
            if not expand_F(params, forms).is_zero:
                continue
            curve = validate(params, e, forms)
        except DomainError:
            continue
        key = projective_key(curve, units)
        if key not in found:
            found[key] = curve
    return [found[k] for k in sorted(found)]


@dataclass(frozen=True)
class SurveyRow:
    e: int
    source: str
    curve: Curve
    report: ClassificationReport

    def to_json(self) -> dict:
        return {
            "e": self.e,
            "source": self.source,
            "curve": self.curve.to_json(),
            "report": self.report.to_json(),
        }


def survey(
    params: FermatParams,
    degrees: Sequence[int],
    budget: int,
    seed: int = 0,
) -> Iterator[SurveyRow]:
    """Classify curves found by every strategy, at most budget rows total.

    The arguments are checked at call time; the returned generator then
    yields each row as soon as it is classified (list() collects them).
    The budget splits evenly across the requested degrees.  Per degree the
    order is: orbit-distinct lines, one alternating attempt, the complete
    scan when it is small enough, then random covers of the first line
    until the quota is filled.  A very-free verdict inside a forbidden
    window raises WindowViolation out of classify, ending the survey; the
    error names the e and source of the row that failed.
    """
    # a range is sorted and distinct already, and lists none of its degrees
    ranged = isinstance(degrees, range) and degrees.step > 0
    degs = degrees if ranged else sorted(set(int(e) for e in degrees))
    if not degs or degs[0] < 1:
        raise ValueError("degrees must be a nonempty set of positive ints")
    if budget < 1:
        raise ValueError("budget must be >= 1")

    def rows() -> Iterator[SurveyRow]:
        try:
            lines = enumerate_standard_lines(params)
        except NoRoots:
            lines = []
        per = max(1, budget // len(degs))
        remaining = budget
        for idx, e in enumerate(degs):
            if remaining <= 0:
                break
            quota = min(per, remaining)
            for row in _survey_degree(params, e, quota, derive_seed(seed, idx), lines):
                remaining -= 1
                yield row

    return rows()


def _survey_degree(
    params: FermatParams,
    e: int,
    quota: int,
    seed: int,
    lines: Sequence[Curve],
) -> Iterator[SurveyRow]:
    units = roots_of_unity(params.ctx, params.d)
    count = 0
    seen_keys = set()

    def classified(curves, source: str) -> Iterator[SurveyRow]:
        nonlocal count
        for curve in curves:
            if count >= quota:
                return
            # covers come last and skip the dedupe, so no row reads their keys
            if source != "covers":
                key = projective_key(curve, units)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
            try:
                report = classify(curve)
            except FermatRCError as exc:
                exc.where = {"e": e, "source": source}
                raise
            count += 1
            yield SurveyRow(e, source, curve, report)

    yield from classified([line for line in lines if line.e == e], "lines")
    if count < quota:
        hit = alternating_solve(
            SearchConfig(params, e, derive_seed(seed, 1), max_iter=200)
        )
        yield from classified([] if hit is None else [hit], "alternating")
    if count < quota and _scan_budget(params, e, units) <= _SURVEY_SCAN_CAP:
        scan = exhaustive_scan(SearchConfig(params, e, strategy="exhaustive"))
        yield from classified(scan, "exhaustive")
    bases = [b for b in lines if e % b.e == 0]
    if bases and count < quota:
        covers = _cover_stream(SearchConfig(params, e, derive_seed(seed, 2)), bases[0])
        yield from classified(itertools.islice(covers, quota - count), "covers")
