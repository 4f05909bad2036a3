"""Exact arithmetic in GF(p^n) for small primes p.

Field elements are plain Python ints: the element with digit vector
(d_0, ..., d_{n-1}) over F_p is encoded as sum(d_i * p**i), so all elements
live in range(q) and 0, 1 are the two identities.  A FieldCtx fixes
(p, n, modulus) and implements the arithmetic; it is immutable, hashable and
safe to share between threads.

The modulus is a monic irreducible of degree n, represented low to high.
When none is supplied the deterministic default is the irreducible whose
coefficient vector (constant term first) has the smallest base-p integer
encoding, so a given (p, n) always names the same field presentation.

Every field with q <= LOG_LIMIT gets its arithmetic from one O(q) build,
run on first use and published by a single assignment: exp and log of a
primitive element (for mul, inv and Frobenius), negation as multiplication
by -1, and addition from digitwise-add tables over half of the base-p
digits.  Three tiers follow from it:

* q <= TABLE_LIMIT: the build ends with full q x q add, sub and mul tables,
  so every scalar op is one lookup in plain-list rows after checking the
  arguments, and the row operations of ``linalg`` are one numpy gather;
* TABLE_LIMIT < q <= LOG_LIMIT: no table has more than a few times q
  entries.  The numpy tables are views that run a few numpy ops each
  (mul is exp[log a + log b]), and the scalar rows run the same code on
  memoryviews of the same arrays, so they return Python ints.  GF(729)
  builds in about 3 ms and GF(2^19) in about 0.2 s;
* larger fields compute their rows and tables on base-p digits, as views
  over unchecked digit helpers.

The checked scalar ops (add, sub, neg, mul, inv, frobenius) are FieldCtx's
for every field: they check their arguments and read the rows.  The hot
kernels of ``forms``, ``fermat`` and ``search`` index the rows
directly, so only this module knows which tier a field is in.

Splitting types are geometric invariants, so computing over a fixed finite
model such as GF(p^(2r)) loses nothing.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .errors import DivisionByZero, InvalidField

MAX_Q = 1 << 63  # every encoding fits the int64 arrays of linalg
TABLE_LIMIT = 512  # full q x q tables up to here
LOG_LIMIT = 1 << 19  # O(q) exp/log tables up to here, digit arithmetic above

Table = Any  # an int64 array over range(q), or a view indexed the same way

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Miller-Rabin with the first 12 prime bases, deterministic for
    m < 3.18 * 10^23 and so for every characteristic below MAX_Q."""
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _check_field(p: int, n: int) -> int:
    """Refuse a bad (p, n), the size first so that no primality or
    irreducibility work runs on a field too large to encode; returns q."""
    if n < 1:
        raise InvalidField("extension degree must be >= 1")
    if n >= 63 or p >= MAX_Q or p**n >= MAX_Q:
        raise InvalidField("field order must be below 2^63")
    if not is_prime(p):
        raise InvalidField(f"{p} is not prime")
    return p**n


def json_int(value: Any, what: str) -> int:
    """An integer read from JSON.  int() would truncate a float, parse a
    string and read true as 1, so anything but an int raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"{what} must be a JSON integer, not {value!r}")
    return value


def _digits(k: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        k, d = divmod(k, p)
        out.append(d)
    return out


# Polynomials over F_p as little-endian coefficient lists.

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a by monic b."""
    r = list(a)
    db = len(b) - 1
    while len(r) - 1 >= db and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - db
            for i in range(db + 1):
                r[shift + i] = (r[shift + i] - lead * b[i]) % p
        r.pop()
    return _ptrim(r)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd over F_p; [] when both are zero."""
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        lead_inv = pow(b[-1], p - 2, p)
        b = [(c * lead_inv) % p for c in b]
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Ben-Or's test for monic f of degree n: f is irreducible exactly when
    gcd(x^(p^k) - x, f) = 1 for k = 1 .. n/2, since x^(p^k) - x is the
    product of the monic irreducibles of degree dividing k.  Stops at the
    first k that shares a factor (Ben-Or, FOCS 1981)."""
    n = len(f) - 1
    if n < 1:
        return False
    h = [0, 1]
    for _ in range(n // 2):
        # h = x^(p^k) mod f, one p-th power per step
        power, base, e = [1], h, p
        while e:
            if e & 1:
                power = _pmod(_pmul(power, base, p), f, p)
            base = _pmod(_pmul(base, base, p), f, p)
            e >>= 1
        h = power
        diff = h + [0] * (2 - len(h))  # h - x
        diff[1] = (diff[1] - 1) % p
        if _pgcd(f, diff, p) != [1]:
            return False
    return True


def find_irreducible(p: int, n: int) -> list[int]:
    """Deterministic modulus choice for GF(p^n).

    Returns the monic irreducible of degree n over F_p whose coefficient
    vector (constant term first) has the smallest base-p integer encoding.
    """
    _check_field(p, n)
    for k in range(p**n):
        cand = _digits(k, p, n) + [1]
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("unreachable: irreducibles exist in every degree")


@dataclass(frozen=True)
class FieldTables:
    """Lookup tables over range(q), indexed with numpy broadcasting:
    add[a, b] is a + b elementwise, likewise sub and mul, neg[a] is -a and
    inv[a] is 1/a with inv[0] a 0 sentinel.  Fields up to TABLE_LIMIT hold
    int64 arrays.  Larger fields hold views that compute each entry and
    return int64 in the broadcast shape; up to LOG_LIMIT, neg and inv stay
    arrays of length q."""

    add: Table
    sub: Table
    mul: Table
    neg: Table
    inv: Table


@dataclass(frozen=True, eq=False)
class LookupRows:
    """Scalar arithmetic as indexing: add[a][b] is a + b, likewise sub and
    mul, neg[a] is -a, inv[a] is 1/a (inv[0] is a 0 sentinel) and
    frob[k][a] is a^(p^k) for 0 <= k < n, all Python ints.
    Indices must be canonical elements; nothing is checked.  ``arrays``
    holds the same tables for vectorized use."""

    add: Sequence
    sub: Sequence
    mul: Sequence
    neg: Sequence
    inv: Sequence
    frob: Sequence
    arrays: FieldTables


def _prime_factors(m: int) -> list[int]:
    out, f = [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    return out + ([m] if m > 1 else [])


def _digit_add_table(p: int, k: int) -> np.ndarray:
    """Digitwise addition mod p of a, b < p^k as a p^k x p^k table, built
    one digit at a time with the lowest digit as the fastest index."""
    one = np.add.outer(np.arange(p), np.arange(p)) % p
    table = np.zeros((1, 1), dtype=np.int64)
    for _ in range(k):
        size = len(table) * p
        table = (p * table[:, None, :, None] + one[None, :, None, :]).reshape(size, size)
    return table


class _LogArith:
    """add, sub, mul and Frobenius of a field with q <= LOG_LIMIT from its
    O(q) tables.  The tables are numpy arrays or memoryviews of the same
    arrays, and the code is the same for both: one instance answers
    vectorized calls, another scalar calls with Python ints.

    exp holds g^i for i < 2(q - 1) and zeros after, and log[0] points into
    the zeros, so exp[log a + log b] is a*b with neither a reduction nor a
    test for 0.  Addition is digitwise: with m = p^(n//2), a splits into
    base-m parts (three for odd n, the top one a single digit), and each
    part adds by lookup in ``low`` or ``top``, tables of at most q entries
    premultiplied by the part's place value.
    """

    __slots__ = ("p", "units", "m", "low", "top", "exp", "log", "neg")

    def __init__(self, p: int, units: int, m: int, low: tuple, top):
        self.p, self.units, self.m, self.low, self.top = p, units, m, low, top
        self.exp = self.log = self.neg = None  # set once the powers of g are known

    def add(self, a, b):
        m, out = self.m, 0
        for table in self.low:
            a, ra = divmod(a, m)
            b, rb = divmod(b, m)
            out += table[ra, rb]
        return self.top[a, b] + out

    def sub(self, a, b):
        return self.add(a, self.neg[b])

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def frobenius(self, pk: int, a):
        """a^(p^k), given pk = p^k mod (q - 1)."""
        return self.exp[self.log[a] * pk % self.units] * (a != 0)

    def over_memoryviews(self) -> "_LogArith":
        """The same arithmetic on scalars, answering with Python ints."""

        def view(x):
            return None if x is None else memoryview(x)

        out = type(self)(self.p, self.units, self.m, tuple(map(view, self.low)), view(self.top))
        out.exp, out.log, out.neg = view(self.exp), view(self.log), view(self.neg)
        return out


class _PrimeLogArith(_LogArith):
    """A prime field adds mod p; a table of digit sums would be q x q."""

    __slots__ = ()

    def add(self, a, b):
        return (a + b) % self.p


class _BuiltOnFirstUse:
    """``rows``: the first read builds the tables and publishes them by
    one plain attribute assignment, which every later read finds before
    this descriptor.  Concurrent first reads may each build, but every
    build is complete and equal.  functools.cached_property would write
    through the instance ``__dict__``, and on CPython 3.11 a
    materialized ``__dict__`` slows every attribute read of the scalar
    ops."""

    def __get__(self, ctx, owner=None):
        if ctx is None:
            return self
        rows = ctx._build_tables()
        ctx.rows = rows
        return rows


class FieldCtx:
    """GF(p^n) with a fixed monic irreducible modulus.

    Every scalar op checks its arguments and answers through ``rows``,
    built on first use.  Fields with q <= LOG_LIMIT build them from O(q)
    exp/log tables: one lookup per op when q <= TABLE_LIMIT, a few when
    q <= LOG_LIMIT.  Larger fields are instances of a subclass whose
    ``rows`` and ``tables()`` compute on base-p digits; ``__new__`` picks
    the class once, so neither kind branches on it per operation.
    """

    def __new__(cls, p: int, n: int = 1, modulus: Optional[Sequence[int]] = None):
        if cls is FieldCtx and _check_field(p, n) > LOG_LIMIT:
            cls = _DigitFieldCtx
        return super().__new__(cls)

    def __init__(self, p: int, n: int = 1, modulus: Optional[Sequence[int]] = None):
        q = _check_field(p, n)
        if modulus is None:
            modulus = find_irreducible(p, n)
        else:
            modulus = [int(c) for c in modulus]
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise InvalidField("modulus must be monic of degree n")
            if any(not 0 <= c < p for c in modulus):
                raise InvalidField("modulus coefficients must lie in [0, p)")
            if not _is_irreducible(modulus, p):
                raise InvalidField("modulus is reducible")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = tuple(modulus)

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    # encoding

    def encode(self, digits: Sequence[int]) -> int:
        val = 0
        for d in reversed(digits):
            val = val * self.p + d % self.p
        return val

    def decode(self, a: int) -> list[int]:
        return _digits(a, self.p, self.n)

    def _check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not a canonical element of {self!r}")
        return a

    @property
    def work_scale(self) -> int:
        """The factor by which a work gate shrinks its bound for this field:
        1 up to TABLE_LIMIT, 2 up to LOG_LIMIT (a few lookups an op), 16
        above it (a Python call an element); measured on classify."""
        return 1 if self.q <= TABLE_LIMIT else 2 if self.q <= LOG_LIMIT else 16

    @property
    def minus_one(self) -> int:
        return self.p - 1 if self.p > 2 else 1

    def elements(self) -> range:
        return range(self.q)

    # arithmetic: check the arguments, then one lookup in the rows

    def add(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        return self.rows.add[a][b]

    def neg(self, a: int) -> int:
        self._check(a)
        return self.rows.neg[a]

    def sub(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        return self.rows.sub[a][b]

    def mul(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        return self.rows.mul[a][b]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in {self!r}")
        return self.rows.inv[a]

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            a = self.inv(a)
            e = -e
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a: int, k: int) -> int:
        """k-fold Frobenius a -> a^(p^k); k reduces mod n (Galois closure)."""
        self._check(a)
        if k < 0:
            raise ValueError("Frobenius power must be >= 0")
        return self.rows.frob[k % self.n][a]

    def _mul_raw(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a * b) % self.p
        prod = _pmul(self.decode(a), self.decode(b), self.p)
        return self.encode(_pmod(prod, self.modulus, self.p) + [0] * self.n)

    # lookup tables

    rows = _BuiltOnFirstUse()

    def _build_tables(self) -> LookupRows:
        """Every table from O(q) work.

        g is the primitive element of smallest encoding and exp[i] = g^i, so
        for nonzero a, b: a*b = exp[log a + log b], 1/a = exp[-log a],
        -a = a * g^((q-1)/2) for odd p and a^(p^k) = exp[p^k log a],
        exponents mod q - 1.  Addition acts digit by digit (see _LogArith).
        Fields up to TABLE_LIMIT then evaluate add and mul on all of
        range(q) x range(q), so every op is one lookup.
        """
        p, n, q = self.p, self.n, self.q
        units = q - 1
        # for n > 1 the elements below p lie in F_p and are never primitive
        g = next(
            a for a in range(p if n > 1 else 1, q)
            if all(self._pow_raw(a, units // f) != 1 for f in _prime_factors(units))
        )
        if n == 1:
            arith = _PrimeLogArith(p, units, p, (), None)
        else:
            m = p ** (n // 2)
            half = _digit_add_table(p, n // 2)
            if n % 2 == 0:
                arith = _LogArith(p, units, m, (half,), m * half)
            else:
                arith = _LogArith(p, units, m, (half, m * half), m * m * _digit_add_table(p, 1))
        powers = self._powers(g, arith.add)
        exp = np.concatenate([powers, powers, np.zeros(2 * units + 1, dtype=np.int64)])
        log = np.full(q, 2 * units, dtype=np.int64)
        log[powers] = np.arange(units)
        neg = exp[log + (units // 2 if p > 2 else 0)]
        inv = exp[-log % units]
        inv[0] = 0
        arith.exp, arith.log, arith.neg = exp, log, neg
        pks = [pow(p, k, units) for k in range(n)]
        if q > TABLE_LIMIT:
            scalar = arith.over_memoryviews()
            return LookupRows(
                add=_rows(scalar.add),
                sub=_rows(scalar.sub),
                mul=_rows(scalar.mul),
                neg=scalar.neg,
                inv=memoryview(inv),
                frob=[_Computed(functools.partial(scalar.frobenius, pk)) for pk in pks],
                arrays=FieldTables(
                    add=_Pairwise(arith.add),
                    sub=_Pairwise(arith.sub),
                    mul=_Pairwise(arith.mul),
                    neg=neg,
                    inv=inv,
                ),
            )
        idx = np.arange(q, dtype=np.int64)
        add = arith.add(idx[:, None], idx)
        mul = arith.mul(idx[:, None], idx)
        sub = add[:, neg]
        frob = np.array([arith.frobenius(pk, idx) for pk in pks])
        # index an object array of range(q) so every row shares one int per element
        ints = np.array(range(q), dtype=object)
        return LookupRows(
            add=ints[add].tolist(),
            sub=ints[sub].tolist(),
            mul=ints[mul].tolist(),
            neg=ints[neg].tolist(),
            inv=ints[inv].tolist(),
            frob=ints[frob].tolist(),
            arrays=FieldTables(add=add, sub=sub, mul=mul, neg=neg, inv=inv),
        )

    def _powers(self, g: int, add) -> np.ndarray:
        """g^0 .. g^(q-2) by doubling: the next block is the current one
        times c = g^k.  Multiplying by c is F_p-linear, so x*c is the
        digitwise sum of d_i * (x^i * c) over the digits d_i of x.  Summed
        over the low and the high half of the digits, that is one lookup per
        half in a table of at most p^((n+1)/2) entries."""
        p, n, units = self.p, self.n, self.q - 1
        half = (n + 1) // 2
        weights = p ** np.arange(n, dtype=np.int64)
        digit_values = np.arange(p, dtype=np.int64)[:, None]
        exp = np.ones(1, dtype=np.int64)
        c = g
        while len(exp) < units:
            x = exp[: units - len(exp)]
            acc = None
            for first in range(0, n, half):
                size = p ** min(half, n - first)
                part = np.arange(size, dtype=np.int64)
                table = None
                for i in range(first, min(first + half, n)):
                    image = np.array(self.decode(self._mul_raw(p**i, c)), dtype=np.int64)
                    term = ((digit_values * image % p) @ weights)[part // p ** (i - first) % p]
                    table = term if table is None else add(table, term)
                term = table[x // p**first % size]
                acc = term if acc is None else add(acc, term)
            exp = np.concatenate([exp, acc])
            c = self._mul_raw(c, c)
        return exp

    def _pow_raw(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._mul_raw(result, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return result

    def tables(self) -> FieldTables:
        """The tables behind the vectorized row operations of ``linalg``."""
        return self.rows.arrays

    # serialization

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> "FieldCtx":
        try:
            p = json_int(data["p"], "p")
            n = json_int(data.get("n", 1), "n")
            modulus = data.get("modulus")
            if modulus is not None:
                modulus = [json_int(c, "a modulus coefficient") for c in modulus]
        except (KeyError, TypeError) as exc:
            raise InvalidField(f"bad field record: {exc}") from exc
        return cls(p, n, modulus)


class _Computed:
    """A row view that computes each entry on lookup: view[x] is fn(x)."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, x):
        return self.fn(x)


def _rows(op) -> _Computed:
    """Rows of a binary op: rows[a][b] is op(a, b)."""
    return _Computed(lambda a: _Computed(functools.partial(op, a)))


class _Pairwise:
    """A binary table view: view[a, b] is fn(a, b) for a numpy-vectorized
    fn, int64 in the broadcast shape as indexing a lookup table would be."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, key):
        return self.fn(*key)


def _pinv(a: list[int], f: Sequence[int], p: int) -> list[int]:
    """Inverse of a nonzero a modulo the irreducible f over F_p, by extended
    Euclid: each remainder r_i stays s_i * a mod f, down to a constant."""
    r0, r1 = list(f), _ptrim(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        lead_inv = pow(r1[-1], -1, p)
        quot, rem = [0] * (len(r0) - len(r1) + 1), list(r0)
        while len(rem) >= len(r1):
            c = rem[-1] * lead_inv % p
            shift = len(rem) - len(r1)
            quot[shift] = c
            for i, x in enumerate(r1):
                rem[shift + i] = (rem[shift + i] - c * x) % p
            _ptrim(rem)
        prod = _pmul(quot, s1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _ptrim([(x - y) % p for x, y in itertools.zip_longest(s0, prod, fillvalue=0)])
    c = pow(r1[0], -1, p)
    return [c * x % p for x in s1]


class _DigitFieldCtx(FieldCtx):
    """A field above LOG_LIMIT: its rows and tables compute on base-p
    digits.  The checked scalar ops are FieldCtx's, read through the rows."""

    def _build_tables(self) -> LookupRows:
        """Views over unchecked digit arithmetic (mul is _mul_raw), so the
        kernels written against the rows and tables of a tabulated field
        run unchanged here."""
        p, enc, dec = self.p, self.encode, self.decode

        def add(a, b):
            return enc([x + y for x, y in zip(dec(a), dec(b))])

        def sub(a, b):
            return enc([x - y for x, y in zip(dec(a), dec(b))])

        def neg(a):
            return enc([-x for x in dec(a)])

        def inv(a):
            return enc(_pinv(dec(a), self.modulus, p)) if a else 0

        def table(op, nin):
            ufunc = np.frompyfunc(op, nin, 1)
            return lambda *args: np.asarray(ufunc(*args), dtype=np.int64)[()]

        return LookupRows(
            add=_rows(add),
            sub=_rows(sub),
            mul=_rows(self._mul_raw),
            neg=_Computed(neg),
            inv=_Computed(inv),
            frob=_rows(lambda k, a: self._pow_raw(a, p**k)),
            arrays=FieldTables(
                add=_Pairwise(table(add, 2)),
                sub=_Pairwise(table(sub, 2)),
                mul=_Pairwise(table(self._mul_raw, 2)),
                neg=_Computed(table(neg, 1)),
                inv=_Computed(table(inv, 1)),
            ),
        )
