"""Supersingular prime search for rational points on X_0*(p).

The procedure is one walk over l: ``search`` checks the hypotheses on p
and h once, then sieves primes l that are admissible for p, demands
quadratic character 1 at every avoided prime, builds the level's search
polynomial (``search_polynomial``: P_-4pl alone, or the product P_l of
P_-pl and P_-4pl; see ``levels.LEVELS``), requires a negative value at h,
and harvests the numerator primes q with (q | pl) != 1, which join the
avoided primes.  Each accepted l also has its mod-l and mod-p squareness
witnessed at runtime, not only in the test suite, and the symbol
(num | pl) in {0, 1} that they force on the numerator of the value.

Verification of harvested primes runs through ssverify at levels with an
exact h -> j lift; elsewhere primes are reported unverified.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .classpoly import ClassPolynomial, build_PD, build_Pl, evaluate
from .intmath import FactorBudget, Factorization, factorize, is_prime, is_square, kronecker
from .levels import LEVELS, level
from .modpoly import is_perfect_square, is_square_times_linear, mod_p_square_check
from .quadforms import Discriminant
from .hauptmodul import jp_arc_interval
from .ssverify import (
    VERIFY_EFFORT_BOUND,
    lift_j_from_h_level3,
    verify_certificate,
)

__all__ = [
    "SearchCertificate",
    "RealJCaseError",
    "SupersingularAtPError",
    "ell_admissible",
    "sigma_condition",
    "search_polynomial",
    "extract_primes",
    "search",
]

INTERIOR_MARGIN = 2.0**-16


class RealJCaseError(ValueError):
    """h lies outside j_p(S): the real-j case, covered elsewhere, not searched."""


class SupersingularAtPError(ValueError):
    """h reduces to a supersingular j_p-invariant mod p (theorem hypothesis)."""


@dataclass(frozen=True, slots=True)
class SearchCertificate:
    """Full provenance of one supersingular-prime discovery."""

    p: int
    h: Fraction
    sigma: tuple[int, ...]
    ell: int
    D: int | tuple[int, int]
    value: Fraction
    factorization: Factorization
    selected: tuple[int, ...]
    verification: dict[int, str]

    @property
    def candidates(self) -> tuple[tuple[int, int], ...]:
        """Each prime of the factorization with its symbol (q | pl)."""
        return _symbols(self.factorization, self.p * self.ell)

    def check(self) -> None:
        """Machine-checkable invariants, independent of the search run;
        ArithmeticError names the first that fails.  The factorization must
        multiply to the numerator, cofactor included, and hold every
        selected prime: a factorization the stop rule ended has a cofactor,
        and this identity is then the only link from its primes to the
        value."""
        if self.value >= 0:
            raise ArithmeticError("certificate value is not negative")
        if not is_square(self.value.denominator):
            raise ArithmeticError("value denominator is not a perfect square")
        pl = self.p * self.ell
        num = self.value.numerator
        if kronecker(num, pl) == -1:
            raise ArithmeticError(f"value numerator is a nonsquare modulo {pl}")
        fac = self.factorization
        if fac.sign * fac.cofactor * math.prod(q**e for q, e in fac.factors) != num:
            raise ArithmeticError("the factorization does not multiply to the numerator")
        for q in self.selected:
            if kronecker(q, pl) == 1:
                raise ArithmeticError(f"selected prime {q} is a square mod {pl}")
            if q in self.sigma or q == self.p:
                raise ArithmeticError(f"selected prime {q} is excluded")
            if num % q != 0:
                raise ArithmeticError(f"selected prime {q} does not divide the numerator")
            if q not in fac.primes():
                raise ArithmeticError(f"selected prime {q} is not a factor")

    def to_json(self) -> str:
        data = {
            "p": self.p,
            "h": f"{self.h.numerator}/{self.h.denominator}",
            "sigma": [str(v) for v in self.sigma],
            "ell": self.ell,
            "D": self.D,
            "value": {
                "num": str(self.value.numerator),
                "den": str(self.value.denominator),
            },
            "factors": [
                {"prime": str(q), "exponent": e} for q, e in self.factorization.factors
            ],
            "selected": [str(q) for q in self.selected],
            "kronecker": [{"q": str(q), "symbol": s} for q, s in self.candidates],
            "verified": [
                {"q": str(q), "status": status}
                for q, status in self.verification.items()
            ],
        }
        if not self.factorization.complete:
            data["unfactored"] = str(self.factorization.cofactor)
        return json.dumps(data)


def ell_admissible(p: int, ell: int) -> bool:
    """The congruence and splitting conditions on l for level p: l an odd
    prime other than p, p l = 3 mod 4, and -p a square mod l."""
    level(p)  # ValueError for an unsupported p
    return (is_prime(ell) and ell not in (2, p) and (p * ell) % 4 == 3
            and kronecker(-p, ell) == 1)


def sigma_condition(ell: int, p: int, sigma) -> bool:
    """(v | pl) = 1 for every avoided prime v, except possibly v = p."""
    pl = p * ell
    return all(kronecker(v, pl) == 1 for v in sigma if v != p)


def search_polynomial(p: int, ell: int) -> tuple[ClassPolynomial, tuple[ClassPolynomial, ...]]:
    """(polynomial, parts): the polynomial the search evaluates at level p
    and prime l, and the P_D of the level's shapes whose product it is."""
    parts = tuple(build_PD(Discriminant(p, ell, shape)) for shape in level(p).shapes)
    return (parts[0] if len(parts) == 1 else build_Pl(parts)), parts


def _runtime_squareness(p: int, ell: int, poly: ClassPolynomial, parts,
                        value: Fraction) -> None:
    """The mod-l and mod-p square statements, enforced on the search path,
    and the symbol (num | pl) they force on the numerator of the value.

    Modulo l each part is a square, or (X - r) R^2 with the level's linear
    root r; such levels multiply two shapes, whose product (X - r)^2 R_1^2
    R_2^2 is a square again.  Modulo p the polynomial is a square by
    ``mod_p_square_check``.  So the polynomial P, monic of degree 2d, is S^2
    modulo l and T^2 modulo p.  Write h = u / v in lowest terms.  The binary
    form P(u, v) = v^(2d) P(u / v) is then S(u, v)^2 mod l and T(u, v)^2 mod
    p, as forms, so for every u and v, also when p divides v.  It is the
    numerator of the value: P is monic, so P(u, v) is u^(2d) modulo each
    prime of v, hence prime to v, and the denominator is v^(2d).  Hence
    (num | l) and (num | p) lie in {0, 1}, and so does (num | pl), their
    product.  A value with symbol -1 means a check above, or the value, is
    wrong.
    """
    lev = level(p)
    root = lev.linear_root
    for part in parts:
        if root is None:
            if is_perfect_square(part.coefficients, ell) is None:
                raise ArithmeticError(f"P_D mod {ell} is not a perfect square (p={p})")
        elif is_square_times_linear(part.coefficients, ell, root) is None:
            raise ArithmeticError(f"P_D mod {ell} lacks the (X - ({root})) R^2 shape (p={p})")
    companion = build_PD(Discriminant(p, ell, "-pl")) if lev.t2_check else None
    if mod_p_square_check(poly, companion) is None:
        raise ArithmeticError(f"polynomial is not a perfect square mod {p}")
    if kronecker(value.numerator, p * ell) == -1:
        raise ArithmeticError(f"the value {value} is a nonsquare modulo {p * ell}")


def _symbols(fac: Factorization, pl: int) -> tuple[tuple[int, int], ...]:
    return tuple((q, kronecker(q, pl)) for q in fac.primes())


def extract_primes(value: Fraction, p: int, ell: int, sigma,
                   budget: FactorBudget | None = None, needed: int = 1):
    """Numerator primes q with (q | pl) != 1, q != p, q outside sigma.

    The numerator is factored until it yields ``needed`` such primes: ECM
    splits no composite once the primes found include that many, and the
    rest is left as the factorization's cofactor.  Returns (selected,
    candidates, factorization, skip), where ``selected`` holds every such
    prime found, ``candidates`` pairs every prime found with its symbol
    (q | pl), and ``skip`` is set when a cofactor left by the budget hides
    every such prime; an empty selection from a complete factorization
    contradicts the square/negativity argument and raises.
    """
    if value >= 0:
        raise ValueError("extraction requires a negative value")
    if not is_square(value.denominator):
        raise ArithmeticError(f"denominator {value.denominator} is not a perfect square")
    pl = p * ell

    def usable(primes):
        return [q for q in primes if kronecker(q, pl) != 1 and q != p and q not in sigma]

    fac = factorize(value.numerator, budget, lambda found: len(usable(found)) >= needed)
    candidates = _symbols(fac, pl)
    selected = tuple(usable(fac.primes()))
    if not selected:
        if not fac.complete:
            return (), candidates, fac, True
        raise ArithmeticError(
            "no admissible prime factor in a certified negative square value: "
            "internal consistency failure"
        )
    return selected, candidates, fac, False


def search(p: int, h, sigma=(), count: int = 1, ell_bound: int = 500,
           budget: FactorBudget | None = None,
           effort_bound: int = VERIFY_EFFORT_BOUND) -> list[SearchCertificate]:
    """Certified supersingular primes for the point h on X_0*(p).

    Checks the theorem's hypotheses on p and h, then walks l = 3 ...
    ``ell_bound`` once, adding each certificate's primes to the avoided set,
    until ``count`` distinct primes are collected or the l bound is
    exhausted (partial results are returned in that case).  A value is
    factored only until it yields the primes still needed, so a certificate
    may leave part of its numerator unfactored.  ``sigma`` holds primes
    (ValueError otherwise); besides them, 2 and the denominator primes of h
    are always avoided.  ``budget`` is the ECM effort of the whole search:
    the denominator is factored first, and a ValueError names a cofactor it
    leaves; each numerator then gets what the earlier factorizations left,
    and once that is spent only trial division and the stop rule remain.
    """
    lev, h = _check_point(p, h)
    given = set(sigma)
    avoided = {int(v) for v in given}
    if avoided != given or not all(v > 0 and is_prime(v) for v in avoided):
        raise ValueError(f"the avoided values {sorted(given)} must be primes")
    # primes of bad reduction are invisible from h alone; always avoid 2
    # and the denominator primes of h
    avoided.add(2)
    effort = (budget or FactorBudget()).rho_iterations  # what ECM may still spend
    if h.denominator > 1:
        denominator = factorize(h.denominator, FactorBudget(effort))
        effort -= denominator.effort
        if not denominator.complete:
            raise ValueError(
                f"the denominator of h leaves {denominator.cofactor} unfactored within "
                "the factoring budget, so its primes cannot be avoided"
            )
        avoided.update(denominator.primes())
    certificates: list[SearchCertificate] = []
    found = 0
    for ell in range(3, ell_bound + 1):
        if found >= count:
            break
        if not (ell_admissible(p, ell) and sigma_condition(ell, p, avoided)):
            continue
        poly, parts = search_polynomial(p, ell)
        value = evaluate(poly, h)
        if value >= 0:
            continue
        _runtime_squareness(p, ell, poly, parts, value)
        current = tuple(sorted(avoided))
        selected, _, fac, skip = extract_primes(value, p, ell, current, FactorBudget(effort),
                                                needed=count - found)
        effort -= fac.effort
        if skip:
            continue
        if lev.j_lift:
            statuses = verify_certificate(selected, lift_j_from_h_level3(h), effort_bound)
        else:
            statuses = {q: "unverified-no-invariant" for q in selected}
        cert = SearchCertificate(p=p, h=h, sigma=current, ell=ell, D=poly.D, value=value,
                                 factorization=fac, selected=selected, verification=statuses)
        cert.check()
        certificates.append(cert)
        avoided.update(selected)
        found += len(selected)
    return certificates


def _check_point(p: int, h):
    """(level entry of p, h as a Fraction), once p is a level the theorem
    covers, h is not supersingular mod p and, where the level has the real
    arc, h lies inside j_p(S); the hypotheses are checked in that order."""
    lev = LEVELS.get(p)
    if lev is None or not lev.searchable:
        searchable = tuple(q for q, entry in LEVELS.items() if entry.searchable)
        raise ValueError(f"search supports p in {searchable}")
    h = Fraction(h)
    # a denominator divisible by p reduces to the cusp, not a supersingular invariant
    if h.denominator % p:
        residue = h.numerator * pow(h.denominator, -1, p) % p
        if residue in lev.supersingular:
            raise SupersingularAtPError(
                f"h = {h} = {residue} mod {p} is a supersingular j_{p}-invariant: "
                "the theorem hypothesis excludes this point"
            )
    if lev.real_arc:
        lo, hi = jp_arc_interval(p)
        # Fraction-float comparison is exact, so an h beyond the float range is
        # compared without an overflow
        if not (lo + INTERIOR_MARGIN < h < hi - INTERIOR_MARGIN):
            raise RealJCaseError(
                f"h = {h} is not interior to j_{p}(S) = ({lo:.6f}, {hi:.6f}): "
                "real-j case - covered by the real-field result, not searched"
            )
    return lev, h
