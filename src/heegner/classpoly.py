"""Class polynomials P_D(X) from Heegner-point evaluations.

P_D has one root per Atkin-Lehner pair of ideal classes (degree h/2), the
value of j_p at the highest point of the pair's Gamma_0(p)+ orbit.  The
q-coefficients of j_p are integers and the form [a, -b, c] represents the
inverse class, so the pair of the inverse classes has the complex conjugate
root.  A pair that inversion maps to itself (f^2 is 1 or the p-ideal class)
has a real root; every other pair is matched with its inverse pair, and j_p
is evaluated once for the two.  A build has one precision, sized from the
reduced Heegner forms [a_i, b_i, c_i], one per root: log2 prod max(1,
|r_i|) is about sum pi sqrt|D| / (a_i ln 2), and to it come log2 of the
largest binomial coefficient of the degree and 20 bits for the rounding
tolerance.  ``hauptmodul.jp_at_form`` returns each root as a ``Ball`` with
a radius below 2^-bits max(1, |r|), over 2^prec for a prec that adds its
own guard bits.  A real root gives the factor X - r, a conjugate couple the
real quadratic X^2 - 2 Re(r) X + |r|^2, and their product is formed at the
roots' prec in real balls, integer midpoints with integer radii, by integer
multiplies.  A coefficient is accepted only when its whole ball lies within
2^-20 of exactly one integer, so the rounding is proven rather than tested;
the test is exact, one integer comparison in units of 2^-prec.  A
coefficient ball that fails the proof raises ``PrecisionExhaustedError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .hauptmodul import jp_at_form
from .modpoly import poly_mul
from .quadforms import (
    Discriminant,
    QuadForm,
    al_pair_classes,
    enumerate_classes,
    heegner_rep,
    reduce_heegner_form,
)

__all__ = [
    "ClassPolynomial",
    "PrecisionExhaustedError",
    "build_PD",
    "build_Pl",
    "evaluate",
]

ROUNDING_BITS = 20


class PrecisionExhaustedError(ArithmeticError):
    """Rounding could not be proven at the sized precision."""


@dataclass(frozen=True, slots=True)
class ClassPolynomial:
    """Monic integer polynomial of degree h(D)/2 (or a product of two).

    Its equality and hash are those of (p, D, coefficients): a polynomial
    read back from ``to_json`` equals the one built.
    """

    p: int
    D: int | tuple[int, int]
    coefficients: tuple[int, ...]  # ascending, leading coefficient 1

    def __post_init__(self):
        if self.coefficients[-1] != 1:
            raise ValueError("class polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def to_json(self) -> str:
        return json.dumps(
            {"p": self.p, "D": self.D, "coefficients": [str(c) for c in self.coefficients]}
        )

    def __str__(self) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            x = "" if i == 0 else ("X" if i == 1 else f"X^{i}")
            terms.append(f"{c}" if i == 0 else (x if c == 1 else f"{c}*{x}"))
        return " + ".join(terms).replace("+ -", "- ")


def _as_disc(D, p=None) -> Discriminant:
    if isinstance(D, Discriminant):
        if p is not None and p != D.p:
            raise ValueError(f"p = {p} differs from p = {D.p} of the discriminant {D.D}")
        return D
    if p is None:
        raise ValueError("p is required when D is given as an integer")
    return Discriminant.from_D(int(D), p)


def _sized_bits(D: int, reps) -> int:
    """The bits to ask of the roots at the reduced Heegner forms ``reps``, with no guard.

    |j_p| is about |q|^-1 = exp(pi sqrt|D| / a) at the form's point, and a
    coefficient of prod (X - r_i) is at most C(n, k) prod max(1, |r_i|).
    """
    height = sum(math.pi * math.sqrt(-D) / (rep.a * math.log(2)) for rep in reps)
    n = len(reps)
    return math.ceil(height + math.log2(math.comb(n, n // 2))) + ROUNDING_BITS


def _real_factors(roots):
    """The monic real factors of prod (X - r) for root balls r, as real balls
    (mid, rad) at the roots' precision, ascending and without the leading 1:
    X - r for a real root, X^2 - 2 Re(r) X + |r|^2 for a conjugate couple."""
    for r, real in roots:
        if not real:
            norm = r * r.conjugate()
            yield [(norm.re, norm.rad), (-2 * r.re, 2 * r.rad)]
        elif abs(r.im) <= r.rad:
            yield [(-r.re, r.rad)]
        else:
            raise ArithmeticError("the enclosure of a real root excludes the real line")


def _product(factors, prec):
    """Ascending coefficients, as real balls (mid, rad) over 2^prec, of the
    product of monic factors, each given without its leading 1.

    A coefficient of the product by X^d + sum g_m X^m is c_(k-d) + sum
    g_m c_(k-m); it is summed exactly over 2^(2 prec) and floored once, with
    |g c - g' c'| <= |g'| r_c + r_g (|c'| + r_c) for its radius.  The
    factors are linear or quadratic (``_real_factors``), and the loop is
    written out for each.
    """
    coeffs = [(1 << prec, 0)]
    zero = (0, 0)
    for low in factors:
        out = []
        if len(low) == 1:
            (g, g_rad), = low
            for (top, top_rad), (c, c_rad) in zip([zero] + coeffs, coeffs + [zero]):
                mid = (top << prec) + g * c
                spread = (top_rad << prec) + abs(g) * c_rad + g_rad * (abs(c) + c_rad)
                out.append((mid >> prec, -(-spread >> prec) + 1))
        else:
            (g, g_rad), (h, h_rad) = low
            for (top, top_rad), (e, e_rad), (c, c_rad) in zip(
                    [zero, zero] + coeffs, [zero] + coeffs + [zero], coeffs + [zero, zero]):
                mid = (top << prec) + g * c + h * e
                spread = ((top_rad << prec) + abs(g) * c_rad + g_rad * (abs(c) + c_rad)
                          + abs(h) * e_rad + h_rad * (abs(e) + e_rad))
                out.append((mid >> prec, -(-spread >> prec) + 1))
        coeffs = out
    return coeffs


def _round_proven(coeffs, prec):
    """The integers of the coefficient balls (mid, rad) over 2^prec when every
    ball lies within 2^-20 of one integer n, else None.

    The test is exact, in units of 2^-prec: the farthest point of the ball
    from n, |mid - n 2^prec| + rad, is below 2^(prec - 20).
    """
    ints = []
    margin = 1 << (prec - ROUNDING_BITS)
    for mid, rad in coeffs:
        n = (mid + (1 << (prec - 1))) >> prec
        if not abs(mid - (n << prec)) + rad < margin:
            return None
        ints.append(n)
    return tuple(ints)


def build_PD(D, p: int | None = None) -> ClassPolynomial:
    """The class polynomial P_D(X), one root per Atkin-Lehner class pair, from
    one evaluation per real root or conjugate couple of roots, at one precision."""
    disc = _as_disc(D, p)
    pairs = al_pair_classes(enumerate_classes(disc.D), disc.p)
    # the two classes of a pair reach the same highest point, or (37 of the
    # 1 650 sweep pairs) mirror images [a, +-b, c] with the same a, so
    # either sizes the pair.  The form reduced here, once, is also the
    # point jp_at_form evaluates.  The inverse of a reduced class
    # [a, b, c] is [a, -b, c], or the class itself when b = 0, b = a or
    # a = c.  The pair of the inverse classes has the conjugate root, and
    # its form [a, -b, c] has the same a, so it takes the evaluated form's
    # place in the sizing; a pair that is its own inverse has a real root.
    where = {f: i for i, pair in enumerate(pairs) for f in pair}
    reps, evaluated = [None] * len(pairs), []
    for i, (f, _) in enumerate(pairs):
        if reps[i] is None:
            a, b, c = f
            j = where[f if b == 0 or b == a or a == c else QuadForm(a, -b, c)]
            reps[i] = reps[j] = reduce_heegner_form(heegner_rep(f, disc.p), disc.p)
            evaluated.append((reps[i], i == j))
    bits = _sized_bits(disc.D, reps)
    roots = [(jp_at_form(rep, disc.p, bits), real) for rep, real in evaluated]
    prec = roots[0][0].prec
    coefficients = _round_proven(_product(_real_factors(roots), prec), prec)
    if coefficients is None:
        raise PrecisionExhaustedError(f"could not prove the rounding of P_D for D = {disc.D} "
                                      f"at {bits} bits")
    return ClassPolynomial(disc.p, disc.D, coefficients)


def build_Pl(parts: tuple[ClassPolynomial, ClassPolynomial]) -> ClassPolynomial:
    """The product P_l = P_{-pl} * P_{-4pl} of the two built parts, the
    polynomial a level that multiplies both shapes (p = 5 and 13) searches
    with; ValueError unless the parts are P_{-pl} and P_{-4pl} of one p and l."""
    odd, even = parts
    if odd.p != even.p or even.D != 4 * odd.D:
        raise ValueError(f"the parts P_{odd.D} (p = {odd.p}) and P_{even.D} (p = {even.p}) "
                         "are not P_-pl and P_-4pl of one p and l")
    return ClassPolynomial(odd.p, (odd.D, even.D), poly_mul(odd.coefficients, even.coefficients))


def evaluate(P: ClassPolynomial, h: Fraction) -> Fraction:
    """Exact rational value P(h).  For h = u/v in lowest terms, Horner's rule
    in integers gives the numerator sum c_i u^i v^(n-i), and one Fraction
    puts it over v^n."""
    h = Fraction(h)
    u, v = h.numerator, h.denominator
    coefficients = reversed(P.coefficients)
    acc, vk = next(coefficients), 1
    for c in coefficients:
        vk *= v
        acc = acc * u + c * vk
    return Fraction(acc, vk)
