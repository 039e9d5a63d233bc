"""Exact circle-group arithmetic and the cochain complex over a finite group.

A :class:`Phase` is a rational number ``q`` reduced mod 1 standing for
``exp(2*pi*i*q)``.  Restricting circle values to roots of unity keeps
every comparison exact, which the *-isomorphism verifiers require.
Cocycle tables are stored densely: ``n**3`` entries is small at the
group orders this library targets.

Coboundary conventions, fixed once and used everywhere:

    d1(c)(g, h)    = c(g) * c(h) / c(gh)
    d2(f)(a, b, c) = f(b, c) * f(a, bc) / (f(ab, c) * f(a, b))

With these, multiplying a 3-cocycle ``w`` by ``d2(f)`` for
``f(a, b) = w(a, e, e) / w(e, e, b)`` produces a normalized cocycle
(value 1 whenever an argument is the identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .grp import GroupTable, cyclic_group, direct_product


class CocycleError(ValueError):
    """Invalid cocycle data; ``witness`` is one failing tuple when known."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Phase:
    """A root of unity, stored as a reduced rational mod 1."""

    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q) % 1)

    @staticmethod
    def of(num: int, den: int = 1) -> "Phase":
        return Phase(Fraction(num, den))

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.q + other.q)

    def inv(self) -> "Phase":
        return Phase(-self.q)

    def conj(self) -> "Phase":
        return Phase(-self.q)

    def __pow__(self, k: int) -> "Phase":
        return Phase(self.q * k)

    def is_one(self) -> bool:
        return self.q == 0

    def as_complex(self) -> complex:
        t = 2.0 * math.pi * float(self.q)
        return complex(math.cos(t), math.sin(t))

    def __str__(self) -> str:
        return f"{self.q.numerator}/{self.q.denominator}"

    def __repr__(self) -> str:
        return f"Phase({self.q})"


ONE = Phase(Fraction(0))
MINUS_ONE = Phase(Fraction(1, 2))


def phase_prod(*ps: Phase) -> Phase:
    q = Fraction(0)
    for p in ps:
        q += p.q
    return Phase(q)


@dataclass
class CheckResult:
    """Outcome of an exhaustive or sampled verification."""

    ok: bool
    name: str = ""
    witness: Optional[tuple] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


class Cocycle3:
    """Dense circle-valued table on G^3, meant to satisfy the 3-cocycle law."""

    def __init__(self, group: GroupTable, values: Sequence[Phase]):
        n = group.order
        if len(values) != n ** 3:
            raise CocycleError(f"expected {n ** 3} values, got {len(values)}")
        self.group = group
        self.values = tuple(values)
        self._checked = False

    def __call__(self, a: int, b: int, c: int) -> Phase:
        n = self.group.order
        return self.values[(a * n + b) * n + c]

    def bar(self, a: int, b: int, c: int) -> Phase:
        return self(a, b, c).inv()

    def ensure_valid(self) -> None:
        if not self._checked:
            res = cocycle3_check(self)
            if not res.ok:
                raise CocycleError("3-cocycle law fails", witness=res.witness)
            self._checked = True

    def is_trivial(self) -> bool:
        return all(v.is_one() for v in self.values)


class Cocycle2:
    """Circle-valued table on S x S for a subgroup S (possibly all of G)."""

    def __init__(self, group: GroupTable, elements: Sequence[int],
                 values: Sequence[Phase]):
        self.group = group
        self.elements = tuple(elements)
        self.pos = {g: i for i, g in enumerate(self.elements)}
        m = len(self.elements)
        if len(values) != m * m:
            raise CocycleError(f"expected {m * m} values, got {len(values)}")
        self.values = tuple(values)

    def __call__(self, a: int, b: int) -> Phase:
        return self.values[self.pos[a] * len(self.elements) + self.pos[b]]

    def bar(self, a: int, b: int) -> Phase:
        return self(a, b).inv()


def cocycle3_check(omega: Cocycle3) -> CheckResult:
    """Exhaustive test of the 3-cocycle law; returns the first bad quadruple."""
    G = omega.group
    n = G.order
    for a in range(n):
        for b in range(n):
            ab = G.mul(a, b)
            for c in range(n):
                bc = G.mul(b, c)
                for d in range(n):
                    lhs = omega(a, b, c).q + omega(a, bc, d).q + omega(b, c, d).q
                    rhs = omega(ab, c, d).q + omega(a, b, G.mul(c, d)).q
                    if (lhs - rhs) % 1 != 0:
                        return CheckResult(False, "cocycle3", (a, b, c, d))
    omega._checked = True
    return CheckResult(True, "cocycle3")


def cocycle2_check(phi: Cocycle2) -> CheckResult:
    """Exhaustive test of the 2-cocycle identity on the stored elements."""
    G = phi.group
    els = phi.elements
    for a in els:
        for b in els:
            ab = G.mul(a, b)
            for c in els:
                lhs = phi(b, c).q - phi(ab, c).q + phi(a, G.mul(b, c)).q - phi(a, b).q
                if lhs % 1 != 0:
                    return CheckResult(False, "cocycle2", (a, b, c))
    return CheckResult(True, "cocycle2")


def coboundary1(group: GroupTable, c1: Sequence[Phase]) -> tuple[Phase, ...]:
    """d1(c)(g, h) = c(g) c(h) c(gh)^-1, as a dense table on G^2."""
    n = group.order
    out = []
    for g in range(n):
        for h in range(n):
            out.append(phase_prod(c1[g], c1[h], c1[group.mul(g, h)].inv()))
    return tuple(out)


def coboundary2(group: GroupTable, c2: Sequence[Phase]) -> tuple[Phase, ...]:
    """d2(f)(a, b, c) = f(b, c) f(ab, c)^-1 f(a, bc) f(a, b)^-1 on G^3."""
    n = group.order
    out = []
    for a in range(n):
        for b in range(n):
            ab = group.mul(a, b)
            for c in range(n):
                out.append(phase_prod(
                    c2[b * n + c], c2[ab * n + c].inv(),
                    c2[a * n + group.mul(b, c)], c2[a * n + b].inv()))
    return tuple(out)


def is_normalized(omega: Cocycle3) -> bool:
    """True when the value is 1 whenever an argument is the identity."""
    n = omega.group.order
    for a in range(n):
        for b in range(n):
            if not (omega(0, a, b).is_one() and omega(a, 0, b).is_one()
                    and omega(a, b, 0).is_one()):
                return False
    return True


def normalize3(omega: Cocycle3) -> Cocycle3:
    """Multiply by the canonical coboundary that kills identity arguments."""
    omega.ensure_valid()
    G = omega.group
    n = G.order
    f = [phase_prod(omega(a, 0, 0), omega(0, 0, b).inv())
         for a in range(n) for b in range(n)]
    d2f = coboundary2(G, f)
    values = [d2f[i] * omega.values[i] for i in range(n ** 3)]
    out = Cocycle3(G, values)
    out.ensure_valid()
    return out


def trivial_cocycle(group: GroupTable) -> Cocycle3:
    return Cocycle3(group, [ONE] * group.order ** 3)


def standard_cyclic_cocycle(n: int, k: int) -> Cocycle3:
    """The classical degree-3 representative on Z/n with parameter k.

    w(a, b, c) = exp(2 pi i * k * a * floor((b + c) / n) / n).
    """
    G = cyclic_group(n)
    values = [Phase(Fraction(k * a * ((b + c) // n), n))
              for a in range(n) for b in range(n) for c in range(n)]
    return Cocycle3(G, values)


def two_factor_cocycle(m: int, n: int, k: int = 1) -> tuple[GroupTable, Cocycle3]:
    """A cocycle on Z/m x Z/n pairing the factors; trivial on each one.

    w((a1,a2),(b1,b2),(c1,c2)) = exp(2 pi i * k * a1 * floor((b2+c2)/n) / m),
    with element index ``a1*n + a2``.  Returns the group and the cocycle.
    """
    G = direct_product(cyclic_group(m), cyclic_group(n))
    values = []
    for a in range(m * n):
        for b in range(m * n):
            for c in range(m * n):
                carry = (b % n + c % n) // n
                values.append(Phase(Fraction(k * (a // n) * carry, m)))
    return G, Cocycle3(G, values)


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
    return Cocycle3(group, values)


def restrict_trivial_on(omega: Cocycle3, elements: Sequence[int]) -> Optional[tuple]:
    """First triple from ``elements^3`` with a nontrivial value, if any."""
    for a in elements:
        for b in elements:
            for c in elements:
                if not omega(a, b, c).is_one():
                    return (a, b, c)
    return None


def cocycle_to_json(omega: Cocycle3) -> dict:
    mod = 1
    for v in omega.values:
        mod = mod * v.q.denominator // math.gcd(mod, v.q.denominator)
    values = [int(v.q * mod) for v in omega.values]
    return {"modulus": mod, "values": values}


def cocycle_from_json(group: GroupTable, obj: dict) -> Cocycle3:
    mod = obj["modulus"]
    if type(mod) is not int or mod < 1:
        raise CocycleError(f"modulus {mod!r} is not a positive integer")
    values = []
    for k in obj["values"]:
        if type(k) is not int:
            raise CocycleError(f"cocycle value {k!r} is not an integer")
        values.append(Phase(Fraction(k, mod)))
    return Cocycle3(group, values)


def table2_to_json(values: Sequence[Phase]) -> dict:
    mod = 1
    for v in values:
        mod = mod * v.q.denominator // math.gcd(mod, v.q.denominator)
    return {"modulus": mod, "values": [int(v.q * mod) for v in values]}
