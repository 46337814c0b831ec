"""Independent supersingularity verification.

A quadratic-surd j-invariant is reduced modulo a prime q into F_q^2, with
nothing factored, and the residue itself is tested by walking its 2-isogeny
graph (``supersingular``), which answers the Hasse-invariant question in
O(log q) square roots; at q = 3 the answer is the closed form j = 0.
``verify_certificate`` tests each q once and builds one ``Fq2Field(q)`` for
both the reduction and the walk, whose Hasse adapters in ``supersingular``
take q first, where the benchmark's tracer reads it, then the field.
Verification is bounded by an explicit limit, by default 2^64, above which
``is_prime``'s Baillie-PSW answer is no longer proven; larger primes are
reported as unverified rather than trusted.

Also home to the exact h -> j lift that enables end-to-end verification for
p = 3.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .intmath import is_prime, is_square
from .supersingular import Fq2Field, hasse_nonzero_fq, hasse_nonzero_fq2

__all__ = [
    "QuadSurd",
    "BadReductionError",
    "VERIFY_EFFORT_BOUND",
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

    # parentheses in pairs, and a sign between u and the surd
    _PATTERN = re.compile(
        r"(?P<open>\()?(?P<u>[+-]?\d+)?"
        r"(?:(?P<sign>(?(u)[+-]|[+-]?))(?:(?P<v>\d+)\*)?sqrt\((?P<m>-?\d+)\))?"
        r"(?(open)\))(?:/(?P<w>\d+))?"
    )

    @classmethod
    def from_string(cls, text: str) -> "QuadSurd":
        """Parse "(u+v*sqrt(m))/w".  The surd, the denominator and the
        parentheses are optional, but not those around u+v*sqrt(m) before a
        denominator: "u+sqrt(m)/w" reads u + sqrt(m)/w."""
        match = cls._PATTERN.fullmatch(text.strip().replace(" ", ""))
        if (not match or match["u"] is None and match["m"] is None
                or match["u"] and match["m"] and match["w"] and not match["open"]):
            raise ValueError(f"cannot parse quadratic surd {text!r}: the form is (u+v*sqrt(m))/w")
        u = int(match["u"] or 0)
        if match["m"] is not None:
            v = int(match["v"] or 1)
            if match["sign"] == "-":
                v = -v
            m = int(match["m"])
        else:
            v, m = 0, 1
        w = int(match["w"] or 1)
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


def _residues(j: QuadSurd, F: Fq2Field) -> list[tuple[int, int]]:
    """The residues of j modulo the odd prime q = F.q, as pairs (x0, x1) of
    F, F_q(t) with t^2 = z for its non-residue z.

    After ``_local``, j = (u + v sqrt(m)) / w reduces to (u + v s) / w for
    the field's square root s of m.  A root in F_q^* means m splits: two
    conjugate residues in F_q.  A root on t F_q means m is inert: one
    residue, the conjugate with the smaller x1.  A zero root means m is
    ramified or q divides v: one residue in F_q.  So one number has one
    reduction however m is written, the one its squarefree form gives.
    """
    q = F.q
    u, v, w, m = _local(j, q)
    winv = pow(w, -1, q)
    x0 = u * winv % q
    s0, s1 = (v * r * winv % q for r in F.sqrt((m, 0)))
    if s0:
        return sorted([((x0 + s0) % q, 0), ((x0 - s0) % q, 0)])
    return [(x0, min(s1, q - s1))]


def _is_supersingular(F: Fq2Field, j: tuple[int, int]) -> bool:
    """Supersingularity of a j-invariant (x0, x1) of F, x1 = 0 for one in
    F_q, for the odd prime q = F.q.

    In characteristic 3 the only supersingular j is 0.  Otherwise j itself
    goes to the 2-isogeny walk, through ``hasse_nonzero_fq`` for j in F_q and
    ``hasse_nonzero_fq2`` for j outside it: a curve is supersingular iff its
    Hasse invariant vanishes, and twists share the answer, so j decides it.
    """
    q = F.q
    if q == 3:
        return (j[0] % 3, j[1] % 3) == (0, 0)
    if j[1] % q == 0:
        return not hasse_nonzero_fq(q, j[0], F)
    return not hasse_nonzero_fq2(q, j[0], j[1], F)


def verify_certificate(selected, j: QuadSurd,
                       effort_bound: int = VERIFY_EFFORT_BOUND) -> dict[int, str]:
    """Per-prime verification statuses for the selected primes of a search
    certificate, given the j-invariant corresponding to its h.

    Each q must be an odd prime, whatever the bound (ValueError otherwise).
    A q that divides the denominator of j is ``bad-reduction``, and a q above
    ``effort_bound`` ``unverified-large``: taken as given, not tested.
    Otherwise, q = 3 included, one ``Fq2Field(q)`` serves the reduction and
    the verdicts, and every residue of j mod q must give the same verdict
    (conjugate curves are supersingular together), ``supersingular`` or
    ``ordinary``; disagreement raises ArithmeticError.
    """
    statuses: dict[int, str] = {}
    for q in selected:
        if q == 2 or not is_prime(q):
            raise ValueError(f"q = {q} must be an odd prime")
        try:
            if q > effort_bound:
                _local(j, q)  # bad reduction is reported whatever the bound
                status = "unverified-large"
            else:
                F = Fq2Field(q)
                verdicts = {_is_supersingular(F, r) for r in _residues(j, F)}
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
