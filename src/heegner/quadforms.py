"""Binary quadratic forms and class groups of discriminant -pl and -4pl.

Forms (a, b, c) represent a x^2 + b x y + c y^2, always positive definite and
primitive here.  Ideal classes are represented purely as reduced forms; the
ramified class [p-ideal], the Atkin-Lehner pairing, the Heegner
representatives and the fundamental unit of Q(sqrt p), which bounds the
circular arc S, live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .intmath import is_prime
from .levels import level

__all__ = [
    "QuadForm",
    "Discriminant",
    "FormClassGroup",
    "ALFixedClassError",
    "reduce_form",
    "compose",
    "enumerate_classes",
    "class_number",
    "p_ideal_class",
    "heegner_rep",
    "al_pair_classes",
    "fundamental_unit",
]

class ALFixedClassError(ValueError):
    """A class is fixed by the Atkin-Lehner pairing (|D| too small)."""


@dataclass(frozen=True, order=True)
class QuadForm:
    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.discriminant() < 0

    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def inverse(self) -> "QuadForm":
        return QuadForm(self.a, -self.b, self.c)

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


def _check_form(f: QuadForm) -> None:
    if not f.is_positive_definite():
        raise ValueError(f"form {f} is not positive definite")
    if not f.is_primitive():
        raise ValueError(f"form {f} is not primitive")


def reduce_form(f: QuadForm) -> QuadForm:
    """The unique reduced form properly equivalent to f (Gauss reduction)."""
    _check_form(f)
    a, b, c = f.a, f.b, f.c
    while True:
        # normalize b into (-a, a]
        if not -a < b <= a:
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return QuadForm(a, b, c)


def _solve_linear_mod(a: int, b: int, m: int) -> tuple[int, int]:
    """Solve a*x = b (mod m); returns (x0, step) with x = x0 + t*step."""
    if m == 1:
        return 0, 1
    g, u, _ = _xgcd(a, m)
    if b % g:
        raise ArithmeticError(f"no solution to {a}*x = {b} mod {m}")
    step = m // g
    x0 = (b // g) * u % m
    return x0 % step, step


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Reduced Gauss/Dirichlet composition of two primitive forms.

    Congruence-based general composition; the class-group laws (identity,
    inverses, associativity) are checked against an ideal-arithmetic oracle
    in the test suite.
    """
    _check_form(f)
    _check_form(g)
    if f.discriminant() != g.discriminant():
        raise ValueError("cannot compose forms of different discriminants")
    a1, b1, c1 = f.a, f.b, f.c
    a2, b2, c2 = g.a, g.b, g.c
    s = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = math.gcd(math.gcd(a1, a2), s)
    sw, tw, uw = a1 // w, a2 // w, s // w
    k0, step = _solve_linear_mod(tw * uw, h * uw + sw * c1, sw * tw)
    n0, _ = _solve_linear_mod(tw * step, h - tw * k0, sw)
    k = k0 + step * n0
    m = (tw * uw * k - h * uw - sw * c1) // (sw * tw)
    l = (tw * k - h) // sw
    a3 = sw * tw
    b3 = w * uw - (k * tw + l * sw)
    c3 = k * l - w * m
    return reduce_form(QuadForm(a3, b3, c3))


def principal_form(D: int) -> QuadForm:
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"invalid negative discriminant {D}")
    k = D % 2
    return QuadForm(1, k, (k * k - D) // 4)


@dataclass(frozen=True)
class Discriminant:
    """Discriminant D = -p*l or -4*p*l for the Heegner constructions."""

    p: int
    ell: int
    shape: str  # "-pl" or "-4pl"

    def __post_init__(self):
        level(self.p)  # ValueError for an unsupported p
        if not is_prime(self.ell) or self.ell == self.p:
            raise ValueError(f"l = {self.ell} must be a prime distinct from p")
        if self.shape == "-pl":
            if (self.p * self.ell) % 4 != 3:
                raise ValueError("D = -p*l requires p*l = 3 mod 4")
        elif self.shape != "-4pl":
            raise ValueError(f"unknown shape {self.shape!r}")

    @property
    def D(self) -> int:
        n = self.p * self.ell
        return -n if self.shape == "-pl" else -4 * n

    def __int__(self) -> int:
        return self.D

    @classmethod
    def from_D(cls, D: int, p: int) -> "Discriminant":
        if D >= 0 or D % p != 0:
            raise ValueError(f"D = {D} is not a valid discriminant for p = {p}")
        n = -D
        if n % 4 == 0 and (n // 4) % p == 0:
            ell = n // (4 * p)
            if is_prime(ell) and ell != p:
                return cls(p, ell, "-4pl")
        if n % p == 0:
            ell = n // p
            if is_prime(ell) and ell != p and n % 4 == 3:
                return cls(p, ell, "-pl")
        raise ValueError(f"D = {D} has neither shape -p*l nor -4*p*l for p = {p}")


@dataclass(frozen=True)
class FormClassGroup:
    D: int
    classes: tuple[QuadForm, ...]

    @property
    def h(self) -> int:
        return len(self.classes)

    @property
    def principal(self) -> QuadForm:
        return principal_form(self.D)


def enumerate_classes(D) -> FormClassGroup:
    """All reduced primitive forms of discriminant D by exhaustive scan."""
    D = int(D)
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"invalid negative discriminant {D}")
    forms = []
    b = D % 2
    while 3 * b * b <= -D:
        m = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    forms.append(QuadForm(a, b, c))
                    if 0 < b < a < c:
                        forms.append(QuadForm(a, -b, c))
            a += 1
        b += 2
    return FormClassGroup(D, tuple(sorted(forms)))


@lru_cache(maxsize=None)
def class_number(D: int) -> int:
    return enumerate_classes(D).h


def p_ideal_class(disc: Discriminant) -> QuadForm:
    """Reduced form of the class of the ramified ideal (p, sqrt(D))."""
    p, ell = disc.p, disc.ell
    if disc.shape == "-pl":
        return reduce_form(QuadForm(p, p, (p + ell) // 4))
    return reduce_form(QuadForm(p, 0, ell))


def heegner_rep(cls: QuadForm, p: int) -> QuadForm:
    """A form (a, b, c) equivalent to cls with p | a and p | b, minimizing a.

    Exists whenever p | D since p ramifies; p | b is automatic from p | a.
    Among all equivalent p-divisible forms, the one with smallest a is
    returned so that its CM point sits as high as possible in the upper half
    plane.
    """
    f = reduce_form(cls)
    D = f.discriminant()
    if D % p != 0:
        raise ValueError(f"p = {p} does not divide the discriminant {D}")
    a0, b0, c0 = f.a, f.b, f.c
    # closed-form candidate: the torsion-kernel construction always yields one
    if a0 % p == 0:
        bound = a0
    else:
        k = b0 * pow(2 * a0, -1, p) % p
        b1 = (b0 - 2 * a0 * k) % (2 * a0 * p)
        if b1 > a0 * p:
            b1 -= 2 * a0 * p
        bound = (b1 * b1 - D) // (4 * a0)
    best = None
    # scan primitive representations f(x, y) <= bound for multiples of p
    ymax = math.isqrt(4 * a0 * bound // (-D))
    for y in range(ymax + 1):
        w2 = 4 * a0 * bound + D * y * y
        if w2 < 0:
            continue
        w = math.isqrt(w2)
        xlo = -((b0 * y + w) // (2 * a0))
        xhi = (w - b0 * y) // (2 * a0)
        for x in range(xlo, xhi + 1):
            if y == 0 and x <= 0:
                continue
            if math.gcd(x, y) != 1:
                continue
            v = f.value(x, y)
            if v % p == 0 and 0 < v <= bound and (best is None or v < best[0]):
                best = (v, x, y)
    if best is None:
        raise ArithmeticError(f"no p-divisible representative found for {f}")
    v, x, y = best
    # complete (x, y) to a unimodular matrix and transform
    _, s, t = _xgcd(x, y)
    u, vv = -t, s  # x*vv - y*u = 1
    a1 = v
    b1 = 2 * (a0 * x * u + c0 * y * vv) + b0 * (x * vv + u * y)
    b1 %= 2 * a1
    if b1 > a1:
        b1 -= 2 * a1
    c1 = (b1 * b1 - D) // (4 * a1)
    out = QuadForm(a1, b1, c1)
    if out.a % p or out.b % p or out.discriminant() != D:
        raise ArithmeticError(f"{out} is not a Heegner representative of {f} for p = {p}")
    return out


def al_pair_classes(group: FormClassGroup, p: int) -> list[tuple[QuadForm, QuadForm]]:
    """Partition the classes into h/2 Atkin-Lehner pairs {[a], [a*p-ideal]}."""
    disc = Discriminant.from_D(group.D, p)
    pform = p_ideal_class(disc)
    remaining = set(group.classes)
    pairs = []
    for f in group.classes:
        if f not in remaining:
            continue
        partner = compose(f, pform)
        if partner == f:
            raise ALFixedClassError(
                f"class {f} is Atkin-Lehner fixed for D = {group.D}: |D| too small"
            )
        remaining.discard(f)
        remaining.discard(partner)
        pairs.append((f, partner) if f <= partner else (partner, f))
    return pairs


@lru_cache(maxsize=None)
def fundamental_unit(p: int) -> tuple[int, int]:
    """Fundamental unit c + d*sqrt(p) of Q(sqrt(p)) at a level with the real arc.

    Computed by the continued-fraction expansion of sqrt(p); for these p the
    norm is +1 and c is even, d odd.
    """
    if not level(p).real_arc:
        raise ValueError(f"fundamental unit only supported at the real-arc levels, not p = {p}")
    a0 = math.isqrt(p)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while h * h - p * k * k not in (1, -1):
        m = d * a - m
        d = (p - m * m) // d
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    if h * h - p * k * k == -1:
        # norm -1 cannot occur for p = 3 mod 4; square the unit if it did
        h, k = h * h + p * k * k, 2 * h * k
    if h % 2 or k % 2 == 0:
        raise ArithmeticError(f"unit {h} + {k} sqrt({p}) does not have h even, k odd")
    return h, k
