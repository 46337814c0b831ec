"""Independent supersingularity verification.

A quadratic-surd j-invariant is reduced modulo a prime q (into F_q or F_q^2
according to the splitting of its radicand) and tested by walking its
2-isogeny graph (``supersingular``), which answers the Hasse-invariant
question in O(log q) square roots.  Verification is bounded by an explicit
limit, by default 2^64, where ``is_prime`` stops being deterministic; larger
primes are reported as unverified rather than trusted.

Also home to the exact h -> j lift that enables end-to-end verification for
p = 3.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .intmath import is_prime, kronecker, squarefree_part
from .supersingular import Fq2Field, hasse_nonzero_fq, hasse_nonzero_fq2, sqrt_mod

__all__ = [
    "QuadSurd",
    "Fq2",
    "BadReductionError",
    "EffortBoundExceeded",
    "VERIFY_EFFORT_BOUND",
    "reduce_mod",
    "sqrt_mod",
    "is_supersingular_j",
    "is_supersingular_mod",
    "verify_certificate",
    "lift_j_from_h_level3",
]

VERIFY_EFFORT_BOUND = 2**64


class BadReductionError(ValueError):
    """q divides the denominator of the surd representation."""


class EffortBoundExceeded(RuntimeError):
    """q exceeds the verification effort bound."""


@dataclass(frozen=True)
class QuadSurd:
    """(u + v*sqrt(m)) / w with w > 0, gcd(u, v, w) = 1 and m squarefree."""

    u: int
    v: int
    w: int
    m: int

    def __post_init__(self):
        if self.w <= 0:
            raise ValueError("denominator must be positive")
        if math.gcd(math.gcd(self.u, self.v), self.w) != 1:
            raise ValueError("representation not in lowest terms")

    @classmethod
    def make(cls, u: int, v: int, w: int, m: int) -> "QuadSurd":
        """Canonicalize: positive w, square part of m folded into v, a
        rational surd (m = 1) folded into u, gcd 1."""
        if w == 0:
            raise ZeroDivisionError("denominator is zero")
        if w < 0:
            u, v, w = -u, -v, -w
        if v == 0:
            m = 1
        elif m == 0:
            v, m = 0, 1
        else:
            m, s = squarefree_part(m)
            v *= s
        if m == 1:
            u, v = u + v, 0
        g = math.gcd(math.gcd(u, v), w)
        return cls(u // g, v // g, w // g, m)

    _PATTERN = re.compile(
        r"^\(?\s*(?P<u>[+-]?\d+)?\s*"
        r"(?:(?P<sign>[+-]?)\s*(?:(?P<v>\d+)\s*\*\s*)?sqrt\(\s*(?P<m>-?\d+)\s*\))?"
        r"\s*\)?\s*(?:/\s*(?P<w>\d+))?$"
    )

    @classmethod
    def from_string(cls, text: str) -> "QuadSurd":
        """Parse "(u + v*sqrt(m))/w"; the surd and denominator are optional."""
        match = cls._PATTERN.match(text.strip().replace(" ", ""))
        if not match or (match.group("u") is None and match.group("m") is None):
            raise ValueError(f"cannot parse quadratic surd {text!r}")
        u = int(match.group("u") or 0)
        if match.group("m") is not None:
            v = int(match.group("v") or 1)
            if match.group("sign") == "-":
                v = -v
            m = int(match.group("m"))
        else:
            v, m = 0, 1
        w = int(match.group("w") or 1)
        return cls.make(u, v, w, m)

    def __str__(self) -> str:
        if self.v == 0:
            return f"{self.u}/{self.w}"
        sign = "+" if self.v >= 0 else "-"
        return f"({self.u}{sign}{abs(self.v)}*sqrt({self.m}))/{self.w}"

    def conjugate(self) -> "QuadSurd":
        return QuadSurd(self.u, -self.v, self.w, self.m)


@dataclass(frozen=True)
class Fq2:
    """c0 + c1*t in F_q(t), t^2 = m (m a quadratic nonresidue mod q)."""

    q: int
    m: int
    c0: int
    c1: int


def reduce_mod(j: QuadSurd, q: int) -> list[int] | Fq2:
    """Reduction of j modulo q: residues in F_q, or an element of F_q^2.

    Split m gives the two conjugate residues, ramified m a single one, inert
    m an element of F_q(sqrt(m)).
    """
    if not is_prime(q) or q == 2:
        raise ValueError(f"q = {q} must be an odd prime")
    if j.w % q == 0:
        raise BadReductionError(f"{q} divides the denominator of {j}")
    winv = pow(j.w, -1, q)
    if j.v % q == 0:
        return [j.u * winv % q]
    symbol = kronecker(j.m, q)
    if symbol == 0:
        return [j.u * winv % q]
    if symbol == 1:
        s = sqrt_mod(j.m, q)
        return sorted({(j.u + j.v * s) * winv % q, (j.u - j.v * s) * winv % q})
    return Fq2(q, j.m % q, j.u * winv % q, j.v * winv % q)


def _curve_from_j(F: Fq2Field, j) -> tuple:
    """(a, b) of a curve y^2 = x^3 + a x + b with invariant j."""
    if j == (0, 0):
        return (0, 0), (1, 0)
    if j == (1728 % F.q, 0):
        return (1, 0), (0, 0)
    k = F.mul(j, F.inv(F.sub((1728, 0), j)))
    return F.scale(k, 3), F.scale(k, 2)


def is_supersingular_j(j0: int | Fq2, q: int,
                       effort_bound: int = VERIFY_EFFORT_BOUND) -> bool:
    """Supersingularity of a j-invariant over F_q or F_q^2.

    Twists share the same answer, so any curve with the given invariant may
    be passed to the Hasse-invariant test; we take y^2 = x^3 + 3k x + 2k with
    k = j/(1728 - j) and the standard special curves at j = 0 and 1728.
    """
    if q in (2, 3):
        raise ValueError("supersingularity test defined for q >= 5")
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if q > effort_bound:
        raise EffortBoundExceeded(f"q = {q} exceeds effort bound {effort_bound}")
    if isinstance(j0, Fq2):
        F, j = Fq2Field(q, j0.m), (j0.c0 % q, j0.c1 % q)
    else:
        F, j = Fq2Field(q), (j0 % q, 0)
    (a0, a1), (b0, b1) = _curve_from_j(F, j)
    if a1 == b1 == 0:
        return not hasse_nonzero_fq(q, a0, b0)
    return not hasse_nonzero_fq2(q, F.m, a0, a1, b0, b1)


def is_supersingular_mod(j: QuadSurd, q: int,
                         effort_bound: int = VERIFY_EFFORT_BOUND) -> bool:
    """Supersingularity of the reduction of j modulo the odd prime q.

    Every residue of j mod q must give the same verdict (conjugate curves are
    supersingular together); disagreement raises ArithmeticError.  A q that
    divides the denominator of j raises BadReductionError, and a q above the
    effort bound EffortBoundExceeded.
    """
    residues = reduce_mod(j, q)
    if isinstance(residues, Fq2):
        residues = [residues]
    verdicts = {is_supersingular_j(r, q, effort_bound) for r in residues}
    if len(verdicts) != 1:
        raise ArithmeticError(f"conjugate residues disagree at q = {q}: internal error")
    return verdicts.pop()


def verify_certificate(selected, j: QuadSurd,
                       effort_bound: int = VERIFY_EFFORT_BOUND) -> dict[int, str]:
    """Per-prime verification statuses for the selected primes of a search
    certificate, given the j-invariant corresponding to its h."""
    statuses: dict[int, str] = {}
    for q in selected:
        if q in (2, 3):
            statuses[q] = "unverified-small"
            continue
        if q > effort_bound:
            statuses[q] = "unverified-large"
            continue
        try:
            supersingular = is_supersingular_mod(j, q, effort_bound)
        except BadReductionError:
            statuses[q] = "bad-reduction"
            continue
        statuses[q] = "supersingular" if supersingular else "ordinary"
    return statuses


# --- the level-3 lift ---------------------------------------------------------


def lift_j_from_h_level3(h) -> QuadSurd:
    """The j-invariant of the curve pair with level-3 invariant h (non-real case).

    The eta-quotient value satisfies t^2 - h t + 729 = 0 and
    j - 1728 = (t^2 - 486 t - 19683)^2 / t^3.  With h = n/d, m0 = n^2 - 2916 d^2
    and T = n + sqrt(m0), t = T / 2d and t tbar = 729, so
    j = 1728 + G^2 Tbar^3 / (128 d^7 729^3) with G = T^2 - 972 d T - 78732 d^2,
    computed in Z[sqrt(m0)] on pairs (a, b) = a + b sqrt(m0).
    """
    h = Fraction(h)
    if h * h >= 2916:
        raise ValueError("real case not handled (h^2 >= 2916)")
    n, d = h.numerator, h.denominator
    m0 = n * n - 2916 * d * d  # (sqrt of) discriminant of the lift, negative

    def mul(x, y):
        return x[0] * y[0] + m0 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    g = (n * n + m0 - 972 * d * n - 78732 * d * d, 2 * n - 972 * d)
    tbar = (n, -1)  # Tbar = n - sqrt(m0)
    u, v = mul(mul(g, g), mul(mul(tbar, tbar), tbar))
    w = 128 * d**7 * 729**3
    return QuadSurd.make(u + 1728 * w, v, w, m0)
