"""Independent supersingularity verification.

A quadratic-surd j-invariant, canonical as constructed, is rewritten
q-locally with nothing factored: the powers of q^2 leave m, and a q common
to u, v and w cancels.  A q left in the denominator is bad reduction.
Otherwise j is reduced into F_q^2, and its residue is tested by walking its
2-isogeny graph (``supersingular``), which answers the Hasse-invariant
question in O(log q) square roots; at q = 3 ``is_supersingular`` answers
with the closed form j = 0.  ``verify_certificate`` tests each q once and
builds one ``Fq2Field(q)`` for both the reduction and the walk, whose Hasse
adapters in ``supersingular`` take q first, where the benchmark's tracer
reads it, then the field.
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
    "VERIFY_EFFORT_BOUND",
    "verify_certificate",
    "lift_j_from_h_level3",
]

VERIFY_EFFORT_BOUND = 2**64


@dataclass(frozen=True)
class QuadSurd:
    """(u + v*sqrt(m)) / w, put by the constructor into canonical form:
    w > 0, gcd(u, v, w) = 1 and m not a square, or m = 1 and v = 0 for a
    rational number (a square m is folded into u).  m may have square
    factors: nothing is factored.  ZeroDivisionError for w = 0."""

    u: int
    v: int
    w: int
    m: int

    def __post_init__(self):
        u, v, w, m = self.u, self.v, self.w, self.m
        if w == 0:
            raise ZeroDivisionError("denominator is zero")
        if w < 0:
            u, v, w = -u, -v, -w
        if v == 0 or m == 0:
            v, m = 0, 1
        elif is_square(m):
            u, v, m = u + v * math.isqrt(m), 0, 1
        g = math.gcd(u, v, w)
        for name, value in zip("uvwm", (u // g, v // g, w // g, m)):
            object.__setattr__(self, name, value)

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
        denominator: "u+sqrt(m)/w" reads u + sqrt(m)/w.  White space may
        stand around a token but not inside one: "1 2" is not 12."""
        match = None if re.search(r"\w\s+\w", text) else cls._PATTERN.fullmatch(
            re.sub(r"\s+", "", text))
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
        return cls(u, v, w, m)

    def __str__(self) -> str:
        if self.v == 0:
            return f"{self.u}/{self.w}"
        sign = "+" if self.v >= 0 else "-"
        return f"({self.u}{sign}{abs(self.v)}*sqrt({self.m}))/{self.w}"


def _local(j: QuadSurd, q: int) -> QuadSurd:
    """j with sqrt(m) = q sqrt(m/q^2) while q^2 divides m; the constructor
    then cancels a q common to u, v and w.  j has good reduction at q
    exactly when q does not divide the local denominator."""
    v, m = j.v, j.m
    while m % (q * q) == 0:
        m, v = m // (q * q), v * q
    return QuadSurd(j.u, v, j.w, m)


def _residues(j: QuadSurd, F: Fq2Field) -> list[tuple[int, int]]:
    """The residues of the q-local j, from ``_local``, modulo the odd prime
    q = F.q that does not divide its denominator, as pairs (x0, x1) of F,
    F_q(t) with t^2 = z for its non-residue z.

    j = (u + v sqrt(m)) / w reduces to (u + v s) / w for the field's square
    root s of m.  A root in F_q^* means m splits: two conjugate residues in
    F_q.  A root on t F_q means m is inert: one residue, the conjugate with
    the smaller x1.  A zero root means m is ramified or q divides v: one
    residue in F_q.  So one number has one reduction however m is written,
    the one its squarefree form gives.
    """
    q = F.q
    winv = pow(j.w, -1, q)
    x0 = j.u * winv % q
    s0, s1 = (j.v * r * winv % q for r in F.sqrt((j.m, 0)))
    if s0:
        return sorted([((x0 + s0) % q, 0), ((x0 - s0) % q, 0)])
    return [(x0, min(s1, q - s1))]


def _is_supersingular(F: Fq2Field, j: tuple[int, int]) -> bool:
    """Supersingularity of a j-invariant (x0, x1) of F, x1 = 0 for one in
    F_q, for every odd prime q = F.q.

    j itself goes to ``supersingular.is_supersingular``, through
    ``hasse_nonzero_fq`` for j in F_q and ``hasse_nonzero_fq2`` for j
    outside it: a curve is supersingular iff its Hasse invariant vanishes,
    and twists share the answer, so j decides it.
    """
    q = F.q
    if j[1] % q == 0:
        return not hasse_nonzero_fq(q, j[0], F)
    return not hasse_nonzero_fq2(q, j[0], j[1], F)


def verify_certificate(selected, j: QuadSurd,
                       effort_bound: int = VERIFY_EFFORT_BOUND) -> dict[int, str]:
    """Per-prime verification statuses for the selected primes of a search
    certificate, given the j-invariant corresponding to its h.

    Each q must be an odd prime, whatever the bound (ValueError otherwise).
    A q that divides the denominator of j's q-local form (``_local``) is
    ``bad-reduction``, whatever the bound; otherwise a q above
    ``effort_bound`` is ``unverified-large``: taken as given, not tested.
    Otherwise, q = 3 included, one ``Fq2Field(q)`` serves the reduction and
    the verdicts, and every residue of j mod q must give the same verdict
    (conjugate curves are supersingular together), ``supersingular`` or
    ``ordinary``; disagreement raises ArithmeticError.
    """
    statuses: dict[int, str] = {}
    for q in selected:
        if q == 2 or not is_prime(q):
            raise ValueError(f"q = {q} must be an odd prime")
        local = _local(j, q)
        if local.w % q == 0:
            status = "bad-reduction"
        elif q > effort_bound:
            status = "unverified-large"
        else:
            F = Fq2Field(q)
            verdicts = {_is_supersingular(F, r) for r in _residues(local, F)}
            if len(verdicts) != 1:
                raise ArithmeticError(f"conjugate residues disagree at q = {q}")
            status = "supersingular" if verdicts.pop() else "ordinary"
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
    return QuadSurd(u + 1728 * w, v, w, m0)
