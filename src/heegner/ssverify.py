"""Independent supersingularity verification.

A quadratic-surd j-invariant is reduced modulo a prime q into F_q^2, with
nothing factored, and the residue itself is tested by walking its 2-isogeny
graph (``supersingular``), which answers the Hasse-invariant question in
O(log q) square roots; at q = 3 the answer is the closed form j = 0.
Verification is bounded by an explicit limit, by default 2^64, where
``is_prime`` stops being deterministic; larger primes are reported as
unverified rather than trusted.

Also home to the exact h -> j lift that enables end-to-end verification for
p = 3.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .intmath import is_prime, is_square, kronecker
from .supersingular import Fq2Field, hasse_nonzero_fq, hasse_nonzero_fq2, sqrt_mod

__all__ = [
    "QuadSurd",
    "BadReductionError",
    "VERIFY_EFFORT_BOUND",
    "reduce_mod",
    "is_supersingular_j",
    "verify_certificate",
    "lift_j_from_h_level3",
]

VERIFY_EFFORT_BOUND = 2**64


class BadReductionError(ValueError):
    """q divides the denominator of the surd representation."""


@dataclass(frozen=True)
class QuadSurd:
    """(u + v*sqrt(m)) / w with w > 0, gcd(u, v, w) = 1 and m not a square,
    or m = 1 and v = 0 for a rational number.  m may have square factors."""

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
        """Canonicalize: positive w, a square m (a rational surd) folded
        into u, gcd 1.  Any other m is kept as given."""
        if w == 0:
            raise ZeroDivisionError("denominator is zero")
        if w < 0:
            u, v, w = -u, -v, -w
        if v == 0 or m == 0:
            v, m = 0, 1
        elif is_square(m):
            u, v, m = u + v * math.isqrt(m), 0, 1
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


def _local(j: QuadSurd, q: int) -> tuple[int, int, int, int]:
    """(u, v, w, m) of j with sqrt(m) = q sqrt(m/q^2) while q^2 divides m,
    then a q common to u, v and w cancelled; BadReductionError if q | w."""
    u, v, w, m = j.u, j.v, j.w, j.m
    while m and m % (q * q) == 0:
        m, v = m // (q * q), v * q
    g = math.gcd(u, v, w)  # a power of q, as gcd(j.u, j.v, j.w) = 1
    if w // g % q == 0:
        raise BadReductionError(f"{q} divides the denominator of {j}")
    return u // g, v // g, w // g, m


def reduce_mod(j: QuadSurd, q: int) -> list[tuple[int, int]]:
    """The residues of j modulo the odd prime q, as pairs (x0, x1) of the
    standard ``Fq2Field(q)``, F_q(t) with t^2 = z for its non-residue z.

    After ``_local``, split m gives the two conjugate residues in F_q,
    ramified m a single one, and inert m u/w + (v sqrt(m/z)/w) t, the
    conjugate with the smaller x1.  So one number has one reduction however
    m is written, the one its squarefree form gives.
    """
    if not is_prime(q) or q == 2:
        raise ValueError(f"q = {q} must be an odd prime")
    u, v, w, m = _local(j, q)
    winv = pow(w, -1, q)
    x0 = u * winv % q
    symbol = kronecker(m, q)
    if v % q == 0 or symbol == 0:
        return [(x0, 0)]
    if symbol == 1:
        s = v * sqrt_mod(m, q) * winv
        return sorted({((x0 + s) % q, 0), ((x0 - s) % q, 0)})
    x1 = v * sqrt_mod(m * pow(Fq2Field(q).m, -1, q), q) * winv % q
    return [(x0, min(x1, q - x1))]


def is_supersingular_j(j: tuple[int, int], q: int) -> bool:
    """Supersingularity of a j-invariant (x0, x1) of the standard
    ``Fq2Field(q)``, x1 = 0 for one in F_q.

    In characteristic 3 the only supersingular j is 0.  Otherwise j itself
    goes to the 2-isogeny walk, through ``hasse_nonzero_fq`` for j in F_q and
    ``hasse_nonzero_fq2`` for j outside it: a curve is supersingular iff its
    Hasse invariant vanishes, and twists share the answer, so j decides it.
    """
    if q == 2 or not is_prime(q):
        raise ValueError(f"q = {q}: the test is defined for odd primes q")
    if q == 3:
        return (j[0] % 3, j[1] % 3) == (0, 0)
    if j[1] % q == 0:
        return not hasse_nonzero_fq(q, j[0])
    return not hasse_nonzero_fq2(q, j[0], j[1])


def verify_certificate(selected, j: QuadSurd,
                       effort_bound: int = VERIFY_EFFORT_BOUND) -> dict[int, str]:
    """Per-prime verification statuses for the selected primes of a search
    certificate, given the j-invariant corresponding to its h.

    q = 2 is ``unverified-small``, a q that divides the denominator of j
    ``bad-reduction``, and a q above ``effort_bound`` ``unverified-large``.
    Otherwise, q = 3 included, every residue of j mod q must give the same
    verdict (conjugate curves are supersingular together), ``supersingular``
    or ``ordinary``; disagreement raises ArithmeticError.  Primes above the
    bound are taken as given, not tested.
    """
    statuses: dict[int, str] = {}
    for q in selected:
        try:
            if q == 2:
                status = "unverified-small"
            elif q > effort_bound:
                _local(j, q)  # bad reduction is reported whatever the bound
                status = "unverified-large"
            else:
                verdicts = {is_supersingular_j(r, q) for r in reduce_mod(j, q)}
                if len(verdicts) != 1:
                    raise ArithmeticError(f"conjugate residues disagree at q = {q}")
                status = "supersingular" if verdicts.pop() else "ordinary"
        except BadReductionError:
            status = "bad-reduction"
        statuses[q] = status
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
