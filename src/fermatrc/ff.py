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

Fields with q <= TABLE_LIMIT answer every scalar op by one lookup after
checking the arguments, and the hot kernels of ``forms``, ``fermat`` and
``search`` index the same rows directly.  One build makes all of them and
the numpy tables behind the vectorized row operations of ``linalg``: it
takes O(q) field multiplications (exp and log of a primitive element), runs
on first use and is published by a single assignment.  Larger fields
compute each op on base-p digits and expose the same rows and tables as
views that compute their entries, so only this module knows which fields
are tabulated.

Splitting types are geometric invariants, so computing over a fixed finite
model such as GF(p^(2r)) loses nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .errors import DivisionByZero, InvalidField

MAX_Q = 1 << 63  # every encoding fits the int64 arrays of linalg
TABLE_LIMIT = 512

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
    inv[a] is 1/a with inv[0] a 0 sentinel.  Tabulated fields hold int64
    arrays; larger fields hold views that compute each entry and return
    int64 in the broadcast shape."""

    add: Table
    sub: Table
    mul: Table
    neg: Table
    inv: Table


@dataclass(frozen=True, eq=False)
class LookupRows:
    """Scalar arithmetic as indexing: add[a][b] is a + b, likewise sub and
    mul, neg[a] is -a, inv[a] is 1/a (inv[0] is a 0 sentinel for tabulated
    fields) and frob[k][a] is a^(p^k) for 0 <= k < n.  Indices must be
    canonical elements; nothing is checked.  ``arrays`` holds the same
    tables for vectorized use."""

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


class FieldCtx:
    """GF(p^n) with a fixed monic irreducible modulus.

    Fields with q <= TABLE_LIMIT answer every scalar op by one lookup in
    ``rows``.  Larger fields are instances of a subclass that computes on
    base-p digits and offers ``rows`` and ``tables()`` as computing views;
    ``__new__`` picks the class once, so neither kind branches on it per
    operation.
    """

    def __new__(cls, p: int, n: int = 1, modulus: Optional[Sequence[int]] = None):
        if cls is FieldCtx and _check_field(p, n) > TABLE_LIMIT:
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
    def minus_one(self) -> int:
        return self.p - 1 if self.p > 2 else 1

    def elements(self) -> range:
        return range(self.q)

    # arithmetic: check the arguments, then one lookup

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

    @functools.cached_property
    def rows(self) -> LookupRows:
        """The lookup rows, built on first use.  Concurrent first uses may
        each build them, but every build is complete and equal, and it is
        published by the single assignment that caches it."""
        return self._build_tables()

    def _build_tables(self) -> LookupRows:
        """Every table from O(q) field multiplications.

        g is the primitive element of smallest encoding and exp[i] = g^i,
        so for nonzero a, b: a*b = exp[log a + log b], 1/a = exp[-log a]
        and a^(p^k) = exp[p^k log a], exponents mod q - 1.  Addition and
        negation act digit by digit.
        """
        p, n, q = self.p, self.n, self.q
        units = q - 1
        g = next(
            a for a in range(1, q)
            if all(self._pow_raw(a, units // f) != 1 for f in _prime_factors(units))
        )
        exp_list = [1]
        for _ in range(units - 1):
            exp_list.append(self._mul_raw(exp_list[-1], g))
        exp = np.array(exp_list, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(units)
        lg = log[1:]
        mul = np.zeros((q, q), dtype=np.int64)
        mul[1:, 1:] = exp[(lg[:, None] + lg[None, :]) % units]
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[-lg % units]
        frob = np.zeros((n, q), dtype=np.int64)
        for k in range(n):
            frob[k, 1:] = exp[lg * pow(p, k, units) % units]
        idx = np.arange(q, dtype=np.int64)
        if n == 1:
            add = (idx[:, None] + idx[None, :]) % p
            neg = (-idx) % p
        else:
            dig = np.zeros((q, n), dtype=np.int64)
            k = idx.copy()
            for i in range(n):
                dig[:, i] = k % p
                k //= p
            weights = p ** np.arange(n, dtype=np.int64)
            add = ((dig[:, None, :] + dig[None, :, :]) % p) @ weights
            neg = ((-dig) % p) @ weights
        sub = add[:, neg]
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
            p = int(data["p"])
            n = int(data.get("n", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidField(f"bad field record: {exc}") from exc
        modulus = data.get("modulus")
        return cls(p, n, modulus)


class _Computed:
    """A row view that computes each entry on lookup: view[x] is fn(x)."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, x):
        return self.fn(x)


class _Broadcast:
    """A table view that computes its entries: view[a, b] (view[a] for a
    unary op) applies fn elementwise with numpy broadcasting and returns
    int64 in the broadcast shape, as indexing a lookup table would."""

    __slots__ = ("ufunc",)

    def __init__(self, fn, nin: int):
        self.ufunc = np.frompyfunc(fn, nin, 1)

    def __getitem__(self, key):
        args = key if isinstance(key, tuple) else (key,)
        return np.asarray(self.ufunc(*args), dtype=np.int64)[()]


class _DigitFieldCtx(FieldCtx):
    """A field above TABLE_LIMIT: each op computes on base-p digits."""

    def __init__(self, p: int, n: int = 1, modulus: Optional[Sequence[int]] = None):
        super().__init__(p, n, modulus)
        # Set here, not cached on first use: caching writes through the
        # instance __dict__, and on CPython 3.11 a materialized __dict__
        # slows every attribute read of the digit arithmetic.
        self.rows = self._build_tables()

    def add(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        if self.n == 1:
            return (a + b) % self.p
        da, db = self.decode(a), self.decode(b)
        return self.encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        self._check(a)
        if self.n == 1:
            return (-a) % self.p
        return self.encode([(-x) % self.p for x in self.decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        """Multiplicative inverse: modular inverse in a prime field, else
        extended Euclid against the modulus."""
        self._check(a)
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in {self!r}")
        if self.n == 1:
            return pow(a, -1, self.p)
        return self._poly_inv(a)

    def _poly_inv(self, a: int) -> int:
        p = self.p
        old_r, r = self.decode(a), list(self.modulus)
        _ptrim(old_r)
        old_s, s = [1], []
        while r:
            lead_inv = pow(r[-1], p - 2, p)
            qt = [0] * (len(old_r) - len(r) + 1) if len(old_r) >= len(r) else []
            rem = list(old_r)
            while rem and len(rem) >= len(r):
                c = (rem[-1] * lead_inv) % p
                shift = len(rem) - len(r)
                qt[shift] = c
                for i in range(len(r)):
                    rem[shift + i] = (rem[shift + i] - c * r[i]) % p
                _ptrim(rem)
            old_r, r = r, rem
            prod = _pmul(qt, s, p)
            new_s = [
                ((old_s[i] if i < len(old_s) else 0) - (prod[i] if i < len(prod) else 0)) % p
                for i in range(max(len(old_s), len(prod)))
            ]
            old_s, s = s, _ptrim(new_s)
        # old_r is the gcd, a nonzero constant since the modulus is irreducible
        c_inv = pow(old_r[0], p - 2, p)
        res = [(c_inv * x) % p for x in old_s]
        return self.encode(res + [0] * self.n)

    def frobenius(self, a: int, k: int) -> int:
        """k-fold Frobenius a -> a^(p^k); k reduces mod n (Galois closure)."""
        self._check(a)
        if k < 0:
            raise ValueError("Frobenius power must be >= 0")
        for _ in range(k % self.n):
            a = self.pow(a, self.p)
        return a

    def _build_tables(self) -> LookupRows:
        """Views that call the checked ops, so the kernels written against
        the rows and tables of a tabulated field run unchanged here."""

        def table(op):
            return _Computed(lambda a: _Computed(functools.partial(op, a)))

        return LookupRows(
            add=table(self.add),
            sub=table(self.sub),
            mul=table(self.mul),
            neg=_Computed(self.neg),
            inv=_Computed(self.inv),
            frob=table(lambda k, a: self.frobenius(a, k)),
            arrays=FieldTables(
                add=_Broadcast(self.add, 2),
                sub=_Broadcast(self.sub, 2),
                mul=_Broadcast(self.mul, 2),
                neg=_Broadcast(self.neg, 1),
                inv=_Broadcast(lambda a: self.inv(a) if a else 0, 1),
            ),
        )
