"""Exact circle-group arithmetic and the cochain complex over a finite group.

A phase is an ``int`` k standing for ``exp(2*pi*i*k/N)``, where N is the
modulus of the cocycle it came from; cocycle tables hold such ints
reduced into ``range(N)``.  Restricting circle values to roots of unity
keeps every comparison exact, which the *-isomorphism verifiers
require: products of phases are sums mod N, inverses are negatives.
Cocycle tables are stored densely: ``n**3`` entries is small at the
group orders this library targets.

Every scalar downstream (the tube phase tau, derived 2-cocycles, the
transport cochain, block-map scalars) is a sum of cocycle values, so:

- A derived table keeps its source cocycle's modulus, unreduced.  Never
  compare phases taken from tables with different moduli.
- Only :func:`table_to_json` reduces, dividing the modulus and the
  values by their gcd, so a file whose modulus and values are scaled by
  a common factor gives the same output.
- ``staralg.center_dimension`` compares phases mod the algebra's own N, so
  scaling N and every phase by a common factor leaves it unchanged.

:func:`root` and :func:`phase_str` turn a phase into a complex number
or a ``"num/den"`` string at the numerical and JSON edges.

Coboundary conventions, fixed once and used everywhere:

    d1(c)(g, h)    = c(g) * c(h) / c(gh)
    d2(f)(a, b, c) = f(b, c) * f(a, bc) / (f(ab, c) * f(a, b))

With these, multiplying a 3-cocycle ``w`` by ``d2(f)`` for
``f(a, b) = w(a, e, e) / w(e, e, b)`` produces a normalized cocycle
(value 1 whenever an argument is the identity).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .grp import GroupTable, cyclic_group, direct_product, generating_set


class CocycleError(ValueError):
    """Invalid cocycle data; ``witness`` is one failing tuple when known."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class DecompositionError(RuntimeError):
    """A splitting failed: ``check`` names the failed check and ``witness``
    its witness (by default ``seeds``, the seeded attempts it tried)."""

    def __init__(self, message: str, seeds: Sequence[str] = (),
                 check: str = "decompose", witness=None):
        super().__init__(message)
        self.seeds = list(seeds)
        self.check = check
        self.witness = self.seeds if witness is None else witness


def root(k: int, n: int) -> complex:
    """exp(2 pi i k / n) as a complex number."""
    t = 2.0 * math.pi * (k % n / n)
    return complex(math.cos(t), math.sin(t))


def phase_str(k: int, n: int) -> str:
    """k / n mod 1 in lowest terms, as ``"num/den"`` (``"0/1"`` for zero)."""
    k %= n
    d = math.gcd(k, n)
    return f"{k // d}/{n // d}"


class CheckResult(NamedTuple):
    """Outcome of a verification; ``detail`` states its coverage."""

    ok: bool
    name: str = ""
    witness: Optional[tuple] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


class Cocycle3:
    """Dense table of phases mod ``modulus`` on G^3, meant to satisfy the
    3-cocycle law."""

    def __init__(self, group: GroupTable, values: Sequence[int], modulus: int):
        n = group.order
        if len(values) != n ** 3:
            raise CocycleError(f"expected {n ** 3} values, got {len(values)}")
        self.group = group
        self.modulus = modulus
        self.values = tuple(v % modulus for v in values)
        self._check: Optional[CheckResult] = None

    def __call__(self, a: int, b: int, c: int) -> int:
        n = self.group.order
        return self.values[(a * n + b) * n + c]

    def tube_phase(self, a: int, s: int, b: int, t: int, c: int) -> int:
        """tau, the transgression of w: the phase of (y -t-> z) . (x -s-> y)
        for objects x, y, z of weights a, b, c, w(a,s,t) w(s,b,t)^-1 w(s,t,c)
        mod N.  On a's endomorphisms, -tau is the twist ``coho.phi_a``."""
        n, v = self.group.order, self.values
        return (v[(a * n + s) * n + t] - v[(s * n + b) * n + t]
                + v[(s * n + t) * n + c]) % self.modulus

    def ensure_valid(self) -> CheckResult:
        """The passing 3-cocycle check, run once per table (a pass is
        stored by :func:`cocycle3_check`), or CocycleError."""
        if self._check is None:
            res = cocycle3_check(self)
            if not res.ok:
                raise CocycleError("3-cocycle law fails", witness=res.witness)
        return self._check

    def is_trivial(self) -> bool:
        return not any(self.values)


class Cocycle2:
    """Table of phases mod ``modulus`` on S x S for a subgroup S (possibly
    all of G), meant to satisfy the 2-cocycle law; the raw table, unchecked
    (``staralg.TwistedGroupAlgebra`` checks the law as its associativity)."""

    def __init__(self, group: GroupTable, elements: Sequence[int],
                 values: Sequence[int], modulus: int):
        self.group = group
        self.elements = tuple(elements)
        self.pos = {g: i for i, g in enumerate(self.elements)}
        m = len(self.elements)
        if len(values) != m * m:
            raise CocycleError(f"expected {m * m} values, got {len(values)}")
        self.modulus = modulus
        self.values = tuple(v % modulus for v in values)

    def __call__(self, a: int, b: int) -> int:
        return self.values[self.pos[a] * len(self.elements) + self.pos[b]]


def cocycle3_check(omega: Cocycle3) -> CheckResult:
    """The 3-cocycle law f = dw = 0, with its last argument d over
    :func:`~tubealg.grp.generating_set`; a failure returns the first bad
    quadruple of the full walk.

    dd = 0 gives f(a,b,c,de) = f(a,b,c,d) - f(b,c,d,e) + f(ab,c,d,e) - f(a,bc,d,e)
    + f(a,b,cd,e), so the d with f(., ., ., d) = 0 are closed under products.
    """
    G, N, vals = omega.group, omega.modulus, omega.values
    n, mult = G.order, G.mult
    gens = generating_set(G)
    for d in gens:
        right = [row[d] for row in mult]  # c -> cd
        last = vals[d::n]  # last[x * n + y] = w(x, y, d)
        for a in range(n):
            row_a, w_a = mult[a], last[a * n:a * n + n]
            for b in range(n):
                start = (a * n + b) * n
                w_ab = vals[start:start + n]  # w(a, b, c) over c
                ab = row_a[b] * n
                # w(a,b,c) - w(a,b,cd) + w(a,bc,d) + w(b,c,d) - w(ab,c,d)
                for x, y, z, u, v in zip(w_ab, map(w_ab.__getitem__, right),
                                         map(w_a.__getitem__, mult[b]),
                                         last[b * n:b * n + n], last[ab:ab + n]):
                    if (x - y + z + u - v) % N:
                        return CheckResult(False, "cocycle3",
                                           _first_bad_quadruple(omega))
    k = len(gens)
    omega._check = CheckResult(
        True, "cocycle3",
        detail=f"certified {n ** 4} by last argument over {k} "
               f"generator{'s' if k > 1 else ''}, exhaustive {n ** 3 * k}")
    return omega._check


def _first_bad_quadruple(omega: Cocycle3) -> Optional[tuple]:
    """The full n^4 walk of the 3-cocycle law, in index order."""
    G, N = omega.group, omega.modulus
    n = G.order
    for a in range(n):
        for b in range(n):
            ab = G.mul(a, b)
            for c in range(n):
                bc = G.mul(b, c)
                for d in range(n):
                    if (omega(a, b, c) + omega(a, bc, d) + omega(b, c, d)
                            - omega(ab, c, d) - omega(a, b, G.mul(c, d))) % N:
                        return (a, b, c, d)
    return None


def coboundary1(group: GroupTable, c1: Sequence[int],
                modulus: int) -> tuple[int, ...]:
    """d1(c)(g, h) = c(g) c(h) c(gh)^-1, as a dense table on G^2."""
    n = group.order
    return tuple((c1[g] + c1[h] - c1[group.mul(g, h)]) % modulus
                 for g in range(n) for h in range(n))


def coboundary2(group: GroupTable, c2: Sequence[int],
                modulus: int) -> tuple[int, ...]:
    """d2(f)(a, b, c) = f(b, c) f(ab, c)^-1 f(a, bc) f(a, b)^-1 on G^3."""
    n = group.order
    out = []
    for a in range(n):
        for b in range(n):
            ab = group.mul(a, b)
            for c in range(n):
                out.append((c2[b * n + c] - c2[ab * n + c]
                            + c2[a * n + group.mul(b, c)] - c2[a * n + b])
                           % modulus)
    return tuple(out)


def is_normalized(omega: Cocycle3) -> bool:
    """True when the value is 1 whenever an argument is the identity."""
    n = omega.group.order
    return not any(omega(0, a, b) or omega(a, 0, b) or omega(a, b, 0)
                   for a in range(n) for b in range(n))


def normalize3(omega: Cocycle3) -> Cocycle3:
    """Multiply by the canonical coboundary that kills identity arguments."""
    omega.ensure_valid()
    G, N = omega.group, omega.modulus
    n = G.order
    f = [omega(a, 0, 0) - omega(0, 0, b) for a in range(n) for b in range(n)]
    d2f = coboundary2(G, f, N)
    out = Cocycle3(G, [d + v for d, v in zip(d2f, omega.values)], N)
    out.ensure_valid()
    return out


def trivial_cocycle(group: GroupTable) -> Cocycle3:
    return Cocycle3(group, [0] * group.order ** 3, 1)


def standard_cyclic_cocycle(n: int, k: int) -> Cocycle3:
    """The classical degree-3 representative on Z/n with parameter k.

    w(a, b, c) = exp(2 pi i * k * a * floor((b + c) / n) / n).
    """
    G = cyclic_group(n)
    values = [k * a * ((b + c) // n)
              for a in range(n) for b in range(n) for c in range(n)]
    return Cocycle3(G, values, n)


def two_factor_cocycle(m: int, n: int, k: int = 1) -> tuple[GroupTable, Cocycle3]:
    """A cocycle on Z/m x Z/n pairing the factors; trivial on each one.

    w((a1,a2),(b1,b2),(c1,c2)) = exp(2 pi i * k * a1 * floor((b2+c2)/n) / m),
    with element index ``a1*n + a2``.  Returns the group and the cocycle.
    """
    G = direct_product(cyclic_group(m), cyclic_group(n))
    values = [k * (a // n) * ((b % n + c % n) // n)
              for a in range(m * n) for b in range(m * n) for c in range(m * n)]
    return G, Cocycle3(G, values, m)


def product_type_cocycle() -> tuple[GroupTable, Cocycle3]:
    """A cocycle on Z/2 x Z/2 that restricts trivially to both factors.

    w((a1,a2),(b1,b2),(c1,c2)) = (-1)^(a1*b2*c2), with element index
    ``a1*2 + a2``; for bits, b2*c2 equals the carry floor((b2+c2)/2).
    Returns the group together with the cocycle.
    """
    return two_factor_cocycle(2, 2, 1)


def inflate_cocycle(omega: Cocycle3, group: GroupTable,
                    projection: Sequence[int]) -> Cocycle3:
    """Pull a cocycle back along a surjective homomorphism ``group -> Q``.

    ``projection[g]`` is the image of ``g`` in the quotient carrying
    ``omega``.  The map is checked to be a surjective homomorphism.
    """
    Q = omega.group
    if len(projection) != group.order:
        raise CocycleError("projection has wrong length")
    if set(projection) != set(range(Q.order)):
        raise CocycleError("projection is not onto the quotient")
    if projection[0] != 0:
        raise CocycleError("projection does not fix the identity")
    for a in range(group.order):
        for b in range(group.order):
            if projection[group.mul(a, b)] != Q.mul(projection[a], projection[b]):
                raise CocycleError("projection is not a homomorphism",
                                   witness=(a, b))
    n = group.order
    values = [omega(projection[a], projection[b], projection[c])
              for a in range(n) for b in range(n) for c in range(n)]
    return Cocycle3(group, values, omega.modulus)


def restrict_trivial_on(omega: Cocycle3, elements: Sequence[int]) -> Optional[tuple]:
    """First triple from ``elements^3`` with a nontrivial value, if any."""
    for a in elements:
        for b in elements:
            for c in elements:
                if omega(a, b, c):
                    return (a, b, c)
    return None


def table_to_json(values: Sequence[int], modulus: int) -> dict:
    """Wire form of a phase table, on the least modulus that carries it."""
    values = [v % modulus for v in values]
    d = math.gcd(modulus, *values)
    return {"modulus": modulus // d, "values": [v // d for v in values]}


def cocycle_to_json(omega: Cocycle3) -> dict:
    return table_to_json(omega.values, omega.modulus)


def cocycle_from_json(group: GroupTable, obj: dict) -> Cocycle3:
    mod = obj["modulus"]
    if type(mod) is not int or mod < 1:
        raise CocycleError(f"modulus {mod!r} is not a positive integer")
    values = obj["values"]
    for k in values:
        if type(k) is not int:
            raise CocycleError(f"cocycle value {k!r} is not an integer")
    return Cocycle3(group, values, mod)
