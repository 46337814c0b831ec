"""The levels p, one frozen entry each: everything that differs between them.

The theorem holds at p = 3, 5, 7, 11, 13 and 19; p = 23 is carried for the
empirical mod-23 study, the first level where the argument breaks down (its
Brandt matrix has odd column sums).  The other modules read a level's data
through ``level(p)`` instead of branching on p, so adding a level means
adding an entry to ``LEVELS``.  This module imports nothing from the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = ["ETA", "THETA_STAR", "EtaQuotient", "Level", "LEVELS", "level"]

# Series kinds of the evaluator value(kind, scale) that a Hauptmodul
# expression receives: ETA is the pentagonal sum eta(tau) q^(-1/24),
# THETA_STAR is theta*(tau) q^(-1/2), and ("theta", a, b, c) is the theta
# series of a positive definite form.
ETA = ("eta",)
THETA_STAR = ("theta*",)


class EtaQuotient(NamedTuple):
    """j_p = t + w / t on a genus-0 X_0(p), t = (eta(tau) / eta(p tau))^exponent.

    t is the Hauptmodul of X_0(p), and the Fricke involution w_p sends t to
    w / t; ``exponent`` is 24 / (p - 1) and ``w`` is p^(12 / (p - 1)), both
    derived from p.  A named tuple, because it is created at import several
    times faster than a dataclass.
    """

    p: int

    @property
    def exponent(self) -> int:
        return 24 // (self.p - 1)

    @property
    def w(self) -> int:
        return self.p ** (12 // (self.p - 1))

    def t(self, value, qinv):
        # (eta(tau) / eta(p tau))^e = q^-1 (E(q) / E(q^p))^e
        return qinv * (value(ETA, 1) / value(ETA, self.p)) ** self.exponent

    def __call__(self, value, qinv):
        u = self.t(value, qinv)
        return u + self.w / u


def _theta_11(value, qinv):
    # (theta / (eta(tau) eta(11 tau)))^2, eta(tau) eta(11 tau) = q^(1/2) E(q) E(q^11)
    return qinv * (value(("theta", 1, 1, 3), 1) / (value(ETA, 1) * value(ETA, 11))) ** 2


def _theta_19(value, qinv):
    # theta* = -2 q^(1/2) (1 + ...), so the square of the printed quotient
    # has residue 1/4; rescale to a residue-1 Hauptmodul (pinned by the
    # supersingular residues {0, 8} mod 19)
    return 4 * qinv * (value(("theta", 1, 1, 5), 1) / value(THETA_STAR, 1)) ** 2


def _theta_23(value, qinv):
    # ratio of the weight-1 class theta series of discriminant -23,
    # normalized to residue 1 and vanishing constant term
    a, b = value(("theta", 1, 1, 6), 1), value(("theta", 2, 1, 3), 1)
    return (3 * b - a) / (a - b)


@dataclass(frozen=True)
class Level:
    """What the pipeline needs to know about one level p.

    ``hauptmodul(value, qinv)`` forms j_p from the series evaluator and 1/q
    (an ``EtaQuotient`` on genus-0 levels).  It uses only + - * / ** and
    integer scalars, so it runs unchanged on the error-counting balls of
    ``hauptmodul.Ball`` (``jp_at_form``, the library's one evaluation of
    j_p) and on the mpc values of the floating-point ``j_p`` that the tests
    check it against (``tests/oracles.py``).
    Modulo an admissible l the class polynomial of each discriminant shape
    ("-pl" is -p l, "-4pl" is -4 p l) is a square, or (X - linear_root)
    times a square.  ``shapes``, derived from ``linear_root``, lists the
    shapes whose class polynomials the search multiplies; only
    ``sssearch.search_polynomial`` reads it.
    ``supersingular`` lists the supersingular j_p-invariants s_i mod p,
    ascending.  ``brandt`` is the Brandt matrix B(2) of T_2 on them: row i
    lists the coefficients of T_2(s_i) in that order (the test suite derives
    both from the 2-isogeny graph mod p).  ``t2_check`` runs the T_2 exponent
    check mod p; ``j_lift`` marks an exact h -> j lift, through which the harvested primes
    are verified (``ssverify.lift_j_from_h_level3``, the only one so far).
    ``real_arc``, derived, marks the searchable p = 3 mod 4, where Q(sqrt p)
    has a fundamental unit of norm +1 and j_p the arc S of bounded real roots.
    """

    p: int
    hauptmodul: Callable
    supersingular: tuple[int, ...]
    linear_root: int | None = None
    brandt: tuple[tuple[int, ...], ...] | None = None
    searchable: bool = True
    t2_check: bool = False
    j_lift: bool = False

    @property
    def shapes(self) -> tuple[str, ...]:
        # each part's linear factor X - linear_root mod l is squared only
        # by multiplying both shapes
        return ("-4pl",) if self.linear_root is None else ("-pl", "-4pl")

    @property
    def real_arc(self) -> bool:
        return self.searchable and self.p % 4 == 3


LEVELS = {lev.p: lev for lev in (
    Level(3, EtaQuotient(3), (0,), j_lift=True),
    Level(5, EtaQuotient(5), (0,), linear_root=-22),
    Level(7, EtaQuotient(7), (0,)),
    Level(11, _theta_11, (0, 10), t2_check=True, brandt=((1, 2), (3, 0))),
    Level(13, EtaQuotient(13), (0,), linear_root=-6),
    Level(19, _theta_19, (0, 8), brandt=((1, 2), (1, 2))),
    Level(23, _theta_23, (11, 15, 18), searchable=False,
          brandt=((1, 1, 1), (3, 0, 0), (2, 0, 1))),
)}


def level(p: int) -> Level:
    """The table entry of level p; ValueError for any other p."""
    try:
        return LEVELS[p]
    except KeyError:
        raise ValueError(f"unsupported p = {p}") from None
