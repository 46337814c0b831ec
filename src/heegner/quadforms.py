"""Binary quadratic forms and class groups of discriminant -pl and -4pl.

Forms (a, b, c) represent a x^2 + b x y + c y^2, always positive definite and
primitive here.  Ideal classes are represented purely as reduced forms, and a
class group as the sorted tuple of them.  The Heegner representatives
(p | a) and the Atkin-Lehner pairing are closed forms: one translation and
swap gives a representative, and the Fricke involution
[a, b, c] -> [pc, -b, a/p] of a representative gives the partner class.
Every reduction of a form lives here: Gauss reduction of Fricke images
(``_reduced``) and the exact Gamma_0(p)+ reduction of a Heegner form to the
highest point of its orbit (``reduce_heegner_form``), where j_p is
evaluated.  So does the fundamental unit of Q(sqrt p), which bounds the arc S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .intmath import is_prime
from .levels import level

__all__ = [
    "QuadForm",
    "Discriminant",
    "ALFixedClassError",
    "enumerate_classes",
    "class_number",
    "heegner_rep",
    "reduce_heegner_form",
    "al_pair_classes",
    "fundamental_unit",
]

class ALFixedClassError(ValueError):
    """A class is fixed by the Atkin-Lehner pairing (|D| too small)."""


class QuadForm(NamedTuple):
    """The form (a, b, c); equality, hash and order are those of the tuple."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.discriminant() < 0

    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


def _check_form(f: QuadForm) -> None:
    if not f.is_positive_definite():
        raise ValueError(f"form {f} is not positive definite")
    if not f.is_primitive():
        raise ValueError(f"form {f} is not primitive")


def _reduced(a: int, b: int, c: int) -> QuadForm:
    """Gauss reduction of a positive definite primitive form, unchecked."""
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

    @cached_property
    def D(self) -> int:
        # computed once, so that the polynomials built from one
        # discriminant share the int
        n = self.p * self.ell
        return -n if self.shape == "-pl" else -4 * n

    @classmethod
    def from_D(cls, D: int, p: int) -> "Discriminant":
        if D >= 0 or D % p != 0:
            raise ValueError(f"D = {D} is not a valid discriminant for p = {p}")
        n = -D
        if n % 4 == 0 and (n // 4) % p == 0:
            ell = n // (4 * p)
            if is_prime(ell) and ell != p:
                return cls(p, ell, "-4pl")
        ell = n // p
        if is_prime(ell) and ell != p and n % 4 == 3:
            return cls(p, ell, "-pl")
        raise ValueError(f"D = {D} has neither shape -p*l nor -4*p*l for p = {p}")


def enumerate_classes(D: int) -> tuple[QuadForm, ...]:
    """The class group of D as its reduced primitive forms, sorted, by
    exhaustive scan; the principal form is always among them."""
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
    return tuple(sorted(forms))


def class_number(D: int) -> int:
    return len(enumerate_classes(D))


def heegner_rep(cls: QuadForm, p: int) -> QuadForm:
    """A form (a, b, c) properly equivalent to cls with p | a and p | b.

    Exists whenever p | D since p ramifies; p | b is automatic from p | a.
    The form (a0, b0, c0) is translated as given, reduced or not: it is
    returned when p | a0.  Otherwise the translation by
    k = -b0 / (2 a0) mod p makes p divide c = ((b0 + 2 a0 k)^2 - D) / (4 a0),
    since 4 a0 c is then a square divisible by p, and swapping the outer
    coefficients puts it first.  The point need not be the highest of its
    orbit; ``reduce_heegner_form`` finds that from any such form.
    """
    _check_form(cls)
    D = cls.discriminant()
    if D % p != 0:
        raise ValueError(f"p = {p} does not divide the discriminant {D}")
    return QuadForm(*_translated(*cls, D, p))


def _translated(a: int, b: int, c: int, D: int, p: int) -> tuple[int, int, int]:
    """``heegner_rep`` of a positive definite form [a, b, c] of
    discriminant D, p | D, as a triple."""
    if a % p == 0:
        return a, b, c
    b -= 2 * a * (b * pow(2 * a, -1, p) % p)
    return (b * b - D) // (4 * a), -b, a


def _raising_candidates(p: int, al_limit: int, limit: int):
    """Lower-row entries c of the moves that can raise a point.

    A move of Gamma_0(p)+ with lower row (c, d) (times p for an Atkin-Lehner
    move) sends Im(tau) to Im(tau) / |c tau + d|^2 when p | c, and to
    Im(tau) / (p |c tau + d|^2) otherwise.  Since |c tau + d| >= c Im(tau),
    only c <= al_limit (Atkin-Lehner) and multiples of p up to limit can raise.
    """
    return chain(range(1, al_limit + 1), range(p, limit + 1, p))


def _move_matrix(c: int, d: int, p: int):
    """(A, B, C, E) of the move with lower row (c, d), c > 0, gcd(c, d) = 1.

    A matrix of Gamma_0(p) when p | c, else the Atkin-Lehner matrix
    [[p s, -t], [p c, p d]] of determinant p with s p d + t c = 1.
    """
    if c % p == 0:
        t = pow(d, -1, c)  # [[t, -s], [c, d]] with s c + t d = 1
        return t, (t * d - 1) // c, c, d
    s = pow(p * d, -1, c)
    return p * s, (s * p * d - 1) // c, p * c, p * d


def reduce_heegner_form(form: QuadForm, p: int) -> QuadForm:
    """The form of the highest CM point in the Gamma_0(p)+ orbit of a form with p | a.

    Im(tau) = sqrt|D| / (2a), and the move with lower row (c, d) sends a to
    f(d, -c) when p | c and to p f(d, -c) otherwise, so one scan for the
    smallest such value finds the highest point.  Every point of the orbit
    is one move away, so the scan reaches the top from any Heegner form, not
    only from one near it.  The form is then moved by the matrix and
    translated so that b lies in (-a, a].  Every move keeps p | a; the
    Fricke involution [a, b, c] -> [pc, -b, a/p] is the Atkin-Lehner move
    with row (1, 0).
    """
    if not form.is_positive_definite():
        raise ValueError("form must be positive definite")
    if form.a % p:
        raise ValueError(f"form {form} is not a Heegner representative for p = {p}")
    a, b, c = form.a, form.b, form.c
    D = form.discriminant()

    def f(x, y):
        return a * x * x + b * x * y + c * y * y

    # |c' tau + d| >= c' Im(tau) = c' sqrt|D| / (2a), so a row can lower a
    # only when c'^2 |D| < 4 a^2, an Atkin-Lehner row only when p c'^2 |D| < 4 a^2
    best, move = a, None
    for cp in _raising_candidates(p, math.isqrt((4 * a * a - 1) // (-p * D)),
                                  math.isqrt((4 * a * a - 1) // -D)):
        d = (cp * b + a) // (2 * a)  # nearest integer to -c' Re(tau)
        a1 = f(d, -cp) * (1 if cp % p == 0 else p)
        if a1 < best and math.gcd(cp, d) == 1:
            best, move = a1, (cp, d)
    if move is not None:
        # the form of M tau is f(E X - B Y, -C X + A Y) / det M, whose
        # leading coefficient f(E, -C) / det M is best
        A, B, C, E = _move_matrix(*move, p)
        det = A * E - B * C
        a, b = best, (f(E - B, A - C) - f(-B, A)) // det - best
    b = (b + a - 1) % (2 * a) - a + 1
    return QuadForm(a, b, (b * b - D) // (4 * a))


def al_pair_classes(classes: tuple[QuadForm, ...], p: int) -> list[tuple[QuadForm, QuadForm]]:
    """Partition the classes into h/2 Atkin-Lehner pairs {[a], [a*p-ideal]}.

    On a Heegner form [a, b, c] the Fricke involution acts as
    [a, b, c] -> [pc, -b, a/p], which is multiplication by the class of the
    ramified prime above p; the partner of a class is the class of that
    image (of the form [a/p, b, pc], properly equivalent to it).  The
    classes of ``enumerate_classes`` are reduced and primitive already, so
    each is translated and its image reduced once, on integer triples.
    D is read off the first class; the tuple is never empty, since it holds
    the principal form.
    p must be a level dividing D exactly once, else ValueError (D / p need
    not be l or 4l); when p^2 | D, p divides the conductor and no
    invertible ideal lies above it.
    """
    D = classes[0].discriminant()
    level(p)  # ValueError for an unsupported p
    if D % p or D % (p * p) == 0:
        raise ValueError(f"p = {p} must divide D = {D} exactly once")
    paired = set()
    pairs = []
    for f in classes:
        if f in paired:
            continue
        a, b, c = _translated(*f, D, p)
        partner = _reduced(a // p, b, p * c)
        if partner == f:
            raise ALFixedClassError(
                f"class {f} is Atkin-Lehner fixed for D = {D}: |D| too small"
            )
        paired.add(partner)
        pairs.append((f, partner) if f <= partner else (partner, f))
    return pairs


def fundamental_unit(p: int) -> tuple[int, int]:
    """Fundamental unit c + d*sqrt(p) of Q(sqrt(p)) at a level with the real arc.

    Computed by the continued-fraction expansion of sqrt(p).  These p are all
    3 mod 4, where c^2 - p*d^2 = c^2 + d^2 (mod 4) is never -1, so the norm is
    +1; c is even and d odd.
    """
    if not level(p).real_arc:
        raise ValueError(f"fundamental unit only supported at the real-arc levels, not p = {p}")
    a0 = math.isqrt(p)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while h * h - p * k * k != 1:
        m = d * a - m
        d = (p - m * m) // d
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    if h % 2 or k % 2 == 0:
        raise ArithmeticError(f"unit {h} + {k} sqrt({p}) does not have h even, k odd")
    return h, k
