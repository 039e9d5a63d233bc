"""Exact splitting of twisted group algebras over a prime field.

The dimensions of the projective irreducibles of C^phi[S] are finite
group data, so they can be computed without floating point: reduce the
algebra modulo a prime that splits it and read the block dimensions off
the characteristic polynomial of a central element, as in Dixon's
modular method for group characters (Numer. Math. 10, 1967), applied to
twisted group algebras as in Karpilovsky, *Projective Representations
of Finite Groups* (1985).  Numpy-free and built on :mod:`tubealg.staralg`
alone; :func:`tubealg.rep.decompose` and
:func:`tubealg.annular_bh.tube_cutdown` load it when they split.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from . import staralg
from .phase import DecompositionError


MAX_ATTEMPTS = 5


class Seeded(list):
    """A splitting's result, with ``seeds``: the seeded attempts it took,
    and a ``detail`` line on the checks it passed.

    Attempt ``i`` draws from ``random.Random(f"{seed}:{i}")``; the last
    seed listed is the one that succeeded.
    """

    def __init__(self, items, seeds: Sequence[str], detail: str = ""):
        super().__init__(items)
        self.seeds = list(seeds)
        self.detail = detail


def _splitting_prime(m: int) -> int:
    """The least prime above 2**16 that is 1 mod m."""
    p = 2 ** 16 // m * m + 1
    if p <= 2 ** 16:
        p += m
    while any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += m
    return p


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, by trial division up to its root."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] if n > 1 else primes


def _root_of_unity(n: int, p: int) -> int:
    """An element of order exactly n in F_p^*, for n dividing p - 1."""
    primes = _prime_factors(n)
    for x in range(2, p):
        z = pow(x, (p - 1) // n, p)
        if all(pow(z, n // q, p) != 1 for q in primes):
            return z
    raise ValueError(f"no element of order {n} mod {p}")


# Polynomials over F_p are coefficient lists, constant term first, with no
# trailing zeros; [] is the zero polynomial.

def _trim(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    lead = pow(g[-1], p - 2, p)
    while len(r) >= len(g):
        c = r[-1] * lead % p
        shift = len(r) - len(g)
        q[shift] = c
        for i, gi in enumerate(g):
            r[shift + i] = (r[shift + i] - c * gi) % p
        _trim(r)
    return q, r


def _gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """The monic gcd."""
    while g:
        f, g = g, _divmod(f, g, p)[1]
    lead = pow(f[-1], p - 2, p)
    return [c * lead % p for c in f]


def _derivative(f: list[int], p: int) -> list[int]:
    return _trim([i * c % p for i, c in enumerate(f)][1:])


def _sub(f: list[int], g: list[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return _trim([(a - b) % p for a, b in zip(f, g)])


def _squarefree_degrees(f: list[int], p: int) -> dict[int, int]:
    """{m: number of distinct roots of multiplicity m}, for monic f of
    degree below p, by Yun's square-free factorization f = prod a_m^m."""
    out = {}
    g = _gcd(f, _derivative(f, p), p)
    b = _divmod(f, g, p)[0]
    d = _sub(_divmod(_derivative(f, p), g, p)[0], _derivative(b, p), p)
    m = 1
    while len(b) > 1:
        a = _gcd(b, d, p)
        if len(a) > 1:
            out[m] = len(a) - 1
        b = _divmod(b, a, p)[0]
        d = _sub(_divmod(d, a, p)[0], _derivative(b, p), p)
        m += 1
    return out


def _central_element(mult: list, inverse: list[int], p: int,
                     rng: random.Random) -> list[int]:
    """sum_s [s] r [s]^-1 for a random r: a central element.

    ``mult[i][j]`` is ``(k, c)`` for ``[i][j] = c [k]`` over F_p, and
    ``inverse[i]`` is the index of the inverse group element.
    """
    n = len(mult)
    r = [rng.randrange(p) for _ in range(n)]
    z = [0] * n
    for i in range(n):
        ii = inverse[i]
        # [i][ii] is a scalar, so [i]^-1 is [ii] over that scalar
        e, c = mult[i][ii]
        scale = pow(c * mult[e][e][1], p - 2, p)
        for j in range(n):
            ij, c1 = mult[i][j]
            k, c2 = mult[ij][ii]
            z[k] = (z[k] + r[j] * c1 * c2 * scale) % p
    return z


def _product(x: list[int], y: list[int], mult: list, p: int) -> list[int]:
    out = [0] * len(x)
    for i, a in enumerate(x):
        if a:
            row = mult[i]
            for j, b in enumerate(y):
                k, c = row[j]
                out[k] = (out[k] + a * b * c) % p
    return out


def projective_dimensions(alg: staralg.TwistedGroupAlgebra,
                          seed: int = 0) -> Seeded:
    """The dimensions of the irreducible representations of C^phi[S], sorted.

    Exact, over F_p.  Summed over its last argument, the 2-cocycle law
    gives |S| phi = dF with F(g) = sum_h phi(g, h), so for phases k mod N,
    psi = (|S| k(a, b) - F(a) - F(b) + F(ab)) / N is an integer: rescaling
    each [g] by exp(-2 pi i F(g) / (N |S|)) turns the twist into
    zeta^psi with zeta = exp(2 pi i / |S|), whatever N is.  p is the least
    prime above 2**16 that is 1 mod |S|^2: F_p holds zeta, splits the
    algebra and does not divide the order of the central extension.
    A central element z acts on the block M_d of the algebra by a
    scalar, so left multiplication by z has characteristic polynomial
    prod (x - c_i)^(d_i^2).  Its power sums are
    Tr(L_z^j) = |S| zeta^psi(e,e) t_j, with t_j the coefficient of [e]
    in z^j; Newton's identities give the polynomial, and Yun's
    square-free factorization gives, for each multiplicity d^2, the
    number of blocks of dimension d.  A random z separates the blocks;
    an attempt is kept only if it finds as many blocks as
    :func:`tubealg.staralg.center_dimension` and their squared
    dimensions sum to |S|.  Raises :class:`DecompositionError` (check
    ``projective-dimensions``, the seeds as witness) when
    ``MAX_ATTEMPTS`` seeded attempts all fail.
    """
    els = list(alg.labels())
    n = len(els)
    products, N = alg.products, alg.modulus
    F = {a: sum(products[(a, b)][0] for b in els) for a in els}
    p = _splitting_prime(n * n)
    zeta = _root_of_unity(n, p)
    pos = {g: i for i, g in enumerate(els)}
    mult = []
    for a in els:
        row = []
        for b in els:
            ph, r = products[(a, b)]
            k = (n * ph - F[a] - F[b] + F[r]) // N  # exact: |S| phi = dF
            row.append((pos[r], pow(zeta, k % n, p)))
        mult.append(row)
    inverse = [pos[alg.group.inverse(g)] for g in els]
    e = pos[0]
    trace_unit = n * mult[e][e][1] % p
    # looked up per call: a span recorder may rebind it after this import
    blocks = staralg.center_dimension(alg)
    seeds = []
    for attempt in range(MAX_ATTEMPTS):
        seeds.append(f"{seed}:{attempt}")
        z = _central_element(mult, inverse, p, random.Random(seeds[-1]))
        # power sums p_j = Tr(L_z^j) and Newton's identities:
        # k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i
        sums, power = [0], z
        for _ in range(n):
            sums.append(trace_unit * power[e] % p)
            power = _product(power, z, mult, p)
        elem = [1]
        for k in range(1, n + 1):
            acc = sum((-1) ** (i - 1) * elem[k - i] * sums[i]
                      for i in range(1, k + 1))
            elem.append(acc * pow(k, p - 2, p) % p)
        charpoly = [(-1) ** k * elem[k] % p for k in range(n, -1, -1)]
        counts = _squarefree_degrees(charpoly, p)
        dims = sorted(math.isqrt(m) for m, c in counts.items()
                      for _ in range(c))
        if len(dims) == blocks and sum(d * d for d in dims) == n:
            return Seeded(dims, seeds)
    raise DecompositionError(
        f"no attempt found {blocks} blocks of squared dimensions summing "
        f"to {n}; seeds tried {seeds}", seeds, "projective-dimensions")
