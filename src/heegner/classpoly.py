"""Class polynomials P_D(X) from Heegner-point evaluations.

P_D has one root per Atkin-Lehner pair of ideal classes (degree h/2), the
value of j_p at the highest point of the pair's Gamma_0(p)+ orbit.  The
working precision is sized once from the reduced Heegner forms [a_i, b_i,
c_i]: log2 prod max(1, |r_i|) is about sum pi sqrt|D| / (a_i ln 2), and to it
come log2 of the largest binomial coefficient of the degree, 20 bits for the
rounding tolerance and a guard.  Each root arrives as an ``mpmath.iv``
complex interval (``hauptmodul.jp_at_form``), the product of the linear
factors is formed in interval arithmetic, and a coefficient is accepted only
when its whole interval lies within 2^-20 of exactly one integer, so the
rounding is proven rather than tested.  Each root is evaluated once; a
coefficient interval that fails the proof raises ``PrecisionExhaustedError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv
from mpmath.libmp import from_int, mpf_neg, mpf_sub, round_ceiling, to_fixed, to_float

from .hauptmodul import GUARD_BITS, _iv_workprec, jp_at_form, reduce_heegner_form
from .levels import level
from .quadforms import (
    Discriminant,
    al_pair_classes,
    enumerate_classes,
    heegner_rep,
)

__all__ = [
    "ClassPolynomial",
    "PrecisionExhaustedError",
    "build_PD",
    "build_Pl",
    "evaluate",
    "real_roots",
    "count_real_roots",
    "count_roots_in",
]

ROUNDING_BITS = 20
ROUNDING_TOLERANCE = 2.0**-ROUNDING_BITS


class PrecisionExhaustedError(ArithmeticError):
    """Rounding could not be proven at the sized precision."""


@dataclass(frozen=True)
class ClassPolynomial:
    """Monic integer polynomial of degree h(D)/2 (or a product of two)."""

    p: int
    D: int | tuple[int, int]
    coefficients: tuple[int, ...]  # ascending, leading coefficient 1
    rounding_residual: float

    def __post_init__(self):
        if self.coefficients[-1] != 1:
            raise ValueError("class polynomial must be monic")
        if self.rounding_residual >= ROUNDING_TOLERANCE:
            raise ValueError("rounding residual above certification threshold")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, h: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * h + c
        return acc

    def to_json(self) -> str:
        D = list(self.D) if isinstance(self.D, tuple) else self.D
        return json.dumps(
            {"p": self.p, "D": D, "coefficients": [str(c) for c in self.coefficients]}
        )

    @classmethod
    def from_json(cls, text: str) -> "ClassPolynomial":
        data = json.loads(text)
        D = data["D"]
        if isinstance(D, list):
            D = tuple(D)
        return cls(
            p=data["p"],
            D=D,
            coefficients=tuple(int(c) for c in data["coefficients"]),
            rounding_residual=0.0,
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
        return D
    if p is None:
        raise ValueError("p is required when D is given as an integer")
    return Discriminant.from_D(int(D), p)


def _sized_bits(D: int, reps) -> int:
    """Precision for the roots at the reduced Heegner forms ``reps``.

    |j_p| is about |q|^-1 = exp(pi sqrt|D| / a) at the form's point, and a
    coefficient of prod (X - r_i) is at most C(n, k) prod max(1, |r_i|).
    """
    height = sum(math.pi * math.sqrt(-D) / (rep.a * math.log(2)) for rep in reps)
    n = len(reps)
    return math.ceil(height + math.log2(math.comb(n, n // 2))) + ROUNDING_BITS + GUARD_BITS


def _product_of_linear_factors(roots):
    coeffs = [iv.mpc(1)]
    for r in roots:
        coeffs = [iv.mpc(0)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    return coeffs


def _round_proven(coeffs):
    """(integers, residual) when every coefficient interval lies within
    2^-20 of one integer, else None.

    The residual bounds the distance from every point of every interval to
    its integer (the midpoint's distance plus the radius), rounded up.
    """
    ints = []
    residual = 0.0
    for c in coeffs:
        (re_lo, re_hi), (im_lo, im_hi) = c._mpci_
        n = (to_fixed(re_lo, 1) + 1) >> 1  # the integer nearest the lower end
        exact = from_int(n)
        for gap in (mpf_sub(exact, re_lo), mpf_sub(re_hi, exact), mpf_neg(im_lo), im_hi):
            distance = to_float(gap, rnd=round_ceiling)
            if not distance < ROUNDING_TOLERANCE:
                return None
            residual = max(residual, distance)
        ints.append(n)
    return tuple(ints), residual


def build_PD(D, p: int | None = None) -> ClassPolynomial:
    """The class polynomial P_D(X), one root per Atkin-Lehner class pair,
    from one evaluation per root at the precision sized from the reduced
    forms."""
    disc = _as_disc(D, p)
    group = enumerate_classes(disc.D)
    pairs = al_pair_classes(group, disc.p)
    # both classes of a pair reach the same highest point; reduced here for
    # the sizing, each form passes jp_at_form's own reduction unmoved
    reps = [reduce_heegner_form(heegner_rep(f, disc.p), disc.p) for f, _ in pairs]
    work = _sized_bits(disc.D, reps)
    roots = [jp_at_form(rep, disc.p, work) for rep in reps]
    with _iv_workprec(work + GUARD_BITS):
        rounded = _round_proven(_product_of_linear_factors(roots))
    if rounded is None:
        raise PrecisionExhaustedError(
            f"could not prove the rounding of P_D for D = {disc.D} at {work} bits"
        )
    return ClassPolynomial(disc.p, disc.D, *rounded)


def build_Pl(ell: int, p: int,
             parts: tuple[ClassPolynomial, ClassPolynomial] | None = None) -> ClassPolynomial:
    """Product polynomial P_l = P_{-pl} * P_{-4pl} at a level whose search
    multiplies both shapes (p = 5 and 13).

    Pass already-built factors through ``parts`` to avoid rebuilding them.
    """
    shapes = level(p).shapes
    if shapes != ("-pl", "-4pl"):
        raise ValueError(f"p = {p} searches with P_D for shapes {shapes}, not a product")
    if parts is None:
        odd, even = (build_PD(Discriminant(p, ell, shape)) for shape in shapes)
    else:
        odd, even = parts
        if odd.D != -p * ell or even.D != -4 * p * ell:
            raise ValueError("parts do not match the requested discriminants")
    coeffs = _int_poly_mul(odd.coefficients, even.coefficients)
    residual = max(odd.rounding_residual, even.rounding_residual)
    return ClassPolynomial(p, (odd.D, even.D), tuple(coeffs), residual)


def _int_poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def evaluate(P: ClassPolynomial, h: Fraction) -> Fraction:
    """Exact rational value P(h)."""
    return P.evaluate(Fraction(h))


# --- real-root machinery (Sturm sequences over Z) ---------------------------


def _int_derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _content(f):
    g = 0
    for c in f:
        g = math.gcd(g, abs(c))
    return g or 1


def _pseudo_rem_signed(a, b):
    """Remainder of a by b scaled by a positive constant (sign-faithful).

    Each elimination step replaces r by lc(b)*r - top*X^s*b, so the result is
    lc(b)^k * rem(a, b); the sign is corrected when lc(b)^k < 0.
    """
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    steps = 0
    while r and len(r) - 1 >= db:
        top = r[-1]
        shift = len(r) - 1 - db
        r = [lead * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= top * bc
        while r and r[-1] == 0:
            r.pop()
        steps += 1
    if lead < 0 and steps % 2:
        r = [-c for c in r]
    return r


def sturm_chain(f):
    """Sturm chain of an integer polynomial, entries scaled by positive ints."""
    f = list(f)
    chain = [f, _int_derivative(f)]
    while len(chain[-1]) > 1:
        r = _pseudo_rem_signed(chain[-2], chain[-1])
        if not r:
            break
        r = [-c for c in r]
        cont = _content(r)
        chain.append([c // cont for c in r])
    return chain


def _sign_at(f, x: Fraction) -> int:
    n = len(f) - 1
    u, v = x.numerator, x.denominator
    acc = 0
    upow = 1
    vpow = v**n
    for c in f:
        acc += c * upow * vpow
        upow *= u
        if vpow != 1:
            vpow //= v
    return (acc > 0) - (acc < 0)


def _sign_at_infinity(f, positive: bool) -> int:
    lead = f[-1]
    if positive or (len(f) - 1) % 2 == 0:
        return (lead > 0) - (lead < 0)
    return (lead < 0) - (lead > 0)


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_real_roots(P: ClassPolynomial) -> int:
    chain = sturm_chain(list(P.coefficients))
    v_neg = _variations([_sign_at_infinity(f, False) for f in chain])
    v_pos = _variations([_sign_at_infinity(f, True) for f in chain])
    return v_neg - v_pos


def count_roots_in(P: ClassPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]; endpoints must not be roots."""
    chain = sturm_chain(list(P.coefficients))
    v_lo = _variations([_sign_at(f, Fraction(lo)) for f in chain])
    v_hi = _variations([_sign_at(f, Fraction(hi)) for f in chain])
    return v_lo - v_hi


def real_roots(P: ClassPolynomial, width: Fraction = Fraction(1, 1 << 32)):
    """Isolating intervals of width <= 2^-32 for all real roots of P."""
    chain = sturm_chain(list(P.coefficients))

    def var_at(x):
        return _variations([_sign_at(f, x) for f in chain])

    bound = 1 + max(abs(c) for c in P.coefficients)
    total = count_real_roots(P)
    out = []
    stack = [(Fraction(-bound), Fraction(bound), var_at(Fraction(-bound)), var_at(Fraction(bound)))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        n = vlo - vhi
        if n == 0:
            continue
        if n == 1 and hi - lo <= width:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        vmid = var_at(mid)
        stack.append((lo, mid, vlo, vmid))
        stack.append((mid, hi, vmid, vhi))
    out.sort()
    if len(out) != total:
        raise ArithmeticError(f"isolated {len(out)} real roots, Sturm count {total}")
    return out
