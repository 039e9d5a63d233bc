"""Test oracle: exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are polynomials in zeta_N with rational coefficients, reduced
modulo the N-th cyclotomic polynomial, and kernels come from general
Gaussian elimination over the field.  The library counts centers by
phase-consistent orbits (:mod:`tubealg.cyclotomic`); this independent
route is kept here only to cross-check that count.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    num = list(num)
    den = _poly_trim(list(den))
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(_poly_trim(list(num))) >= len(den):
        num = _poly_trim(list(num))
        shift = len(num) - len(den)
        c = num[-1] / den[-1]
        q[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
    return _poly_trim(q), _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    # x^n - 1 divided by the cyclotomic polynomials of all proper divisors
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod(num, cyclotomic_polynomial(d))
            assert not r
            num = q
    return tuple(num)


class CyclotomicField:
    """Q(zeta_N) with dense-coefficient elements."""

    def __init__(self, n: int):
        self.n = n
        self.modulus = list(cyclotomic_polynomial(n))
        self.degree = len(self.modulus) - 1
        # reduction table for zeta^k, k < 2 * degree
        powers = []
        for k in range(2 * self.degree):
            p = [Fraction(0)] * k + [Fraction(1)]
            _, r = _poly_divmod(p, self.modulus)
            r += [Fraction(0)] * (self.degree - len(r))
            powers.append(tuple(r))
        self._powers = powers

    def zero(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(0)] * self.degree)

    def one(self) -> tuple[Fraction, ...]:
        return self.from_rational(Fraction(1))

    def from_rational(self, c: Fraction) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.degree
        if self.degree:
            out[0] = Fraction(c)
        return tuple(out)

    def zeta_power(self, k: int) -> tuple[Fraction, ...]:
        k %= self.n
        if k < 2 * self.degree:
            return self._powers[k]
        # fall back to explicit reduction for large k relative to degree
        p = [Fraction(0)] * k + [Fraction(1)]
        _, r = _poly_divmod(p, self.modulus)
        r += [Fraction(0)] * (self.degree - len(r))
        return tuple(r)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        d = self.degree
        conv = [Fraction(0)] * (2 * d - 1 if d else 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y == 0:
                    continue
                conv[i + j] += x * y
        out = [Fraction(0)] * d
        for k, c in enumerate(conv):
            if c == 0:
                continue
            red = self._powers[k]
            for i in range(d):
                out[i] += c * red[i]
        return tuple(out)

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    def inv(self, a):
        """Inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero(a):
            raise ZeroDivisionError("cyclotomic zero has no inverse")
        # gcd(a, modulus) is a nonzero constant: the modulus is irreducible
        r0, r1 = list(self.modulus), _poly_trim(list(a))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            qs1 = [Fraction(0)] * (len(q) + len(s1))
            for i, x in enumerate(q):
                for j, y in enumerate(s1):
                    qs1[i + j] += x * y
            news = [Fraction(0)] * max(len(s0), len(qs1))
            for i, x in enumerate(s0):
                news[i] += x
            for i, x in enumerate(qs1):
                news[i] -= x
            r0, r1 = r1, _poly_trim(r)
            s0, s1 = s1, _poly_trim(news)
        if not r1:
            raise ZeroDivisionError("element not invertible mod cyclotomic")
        c = r1[0]
        out = [x / c for x in s1]
        # reduce, in case the Bezout coefficient exceeds the degree
        _, red = _poly_divmod(out, self.modulus)
        red += [Fraction(0)] * (self.degree - len(red))
        return tuple(red)

    def conj(self, a):
        """Complex conjugation: zeta -> zeta^(N-1)."""
        out = self.zero()
        for k, c in enumerate(a):
            if c == 0:
                continue
            term = tuple(c * v for v in self.zeta_power((self.n - 1) * k))
            out = self.add(out, term)
        return out

    def as_complex(self, a) -> complex:
        import cmath
        z = cmath.exp(2j * cmath.pi / self.n)
        return sum(complex(c) * z ** k for k, c in enumerate(a))


def nullspace_dimension(field: CyclotomicField, rows: list[list], ncols: int) -> int:
    """Exact kernel dimension of the matrix with the given rows."""
    mat = [list(r) for r in rows]
    rank = 0
    col = 0
    nrows = len(mat)
    while col < ncols and rank < nrows:
        pivot = None
        for r in range(rank, nrows):
            if not field.is_zero(mat[r][col]):
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = field.inv(mat[rank][col])
        mat[rank] = [field.mul(inv, x) for x in mat[rank]]
        for r in range(nrows):
            if r != rank and not field.is_zero(mat[r][col]):
                c = mat[r][col]
                mat[r] = [field.sub(x, field.mul(c, y))
                          for x, y in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return ncols - rank


def center_dimension_oracle(alg) -> int:
    """Exact dimension of {z : az = za}, by elimination over the field.

    Builds the full commutator rows of ``alg.products`` over
    Q(zeta_(N / gcd(N, every phase))) and eliminates them.
    """
    labels = list(alg.labels())
    idx = {a: i for i, a in enumerate(labels)}
    m = len(labels)
    products = alg.products
    d = math.gcd(alg.modulus, *(ph for ph, _ in products.values()))
    field_ = CyclotomicField(alg.modulus // d)
    zero = field_.zero()
    # row (g, r): the coefficient on r of g z - z g, for z = sum_t z_t t
    rows = {}
    for (left, right), (ph, r) in products.items():
        val = field_.zeta_power(ph // d)
        for g, t, v in ((left, right, val), (right, left, field_.neg(val))):
            row = rows.setdefault((idx[g], idx[r]), [zero] * m)
            row[idx[t]] = field_.add(row[idx[t]], v)
    unique = {tuple(r) for r in rows.values()}
    unique.discard(tuple([zero] * m))
    return nullspace_dimension(field_, [list(r) for r in unique], m)
