"""Polynomial arithmetic over prime fields and the mod-l / mod-p square tests.

Polynomials are coefficient tuples in ascending degree.  ``poly_mul`` is the
package's one polynomial product, on integer coefficients; an ``FPoly``
holds its entries reduced into [0, q).  Squareness is decided by computing
the monic square root coefficient by coefficient from the top and squaring
it back with ``poly_mul`` mod q, never through a factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmath import is_prime, kronecker
from .levels import level

__all__ = [
    "FPoly",
    "poly_mul",
    "is_perfect_square",
    "is_square_times_linear",
    "mod_p_square_check",
    "epsilon_split",
    "supersingular_jp_residues",
]


@dataclass(frozen=True)
class FPoly:
    """Dense polynomial over F_q, ascending coefficients, trimmed."""

    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.q) or self.q == 2:
            raise ValueError(f"modulus {self.q} must be an odd prime")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be trimmed")
        if any(not 0 <= c < self.q for c in self.coeffs):
            raise ValueError("coefficients must lie in [0, q)")

    @classmethod
    def from_coeffs(cls, coeffs, q: int) -> "FPoly":
        return cls(q, _trim(tuple(c % q for c in coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1


def _trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def poly_mul(f, g) -> tuple[int, ...]:
    """The product of two integer polynomials, ascending coefficients, unreduced."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return tuple(out)


def _divide_linear(f, r, q):
    """(quotient, remainder) of f by X - r over F_q, by synthetic division;
    the remainder is f(r)."""
    acc, quot = 0, []
    for c in reversed(f):
        acc = (acc * r + c) % q
        quot.append(acc)
    rem = quot.pop() if quot else 0
    return tuple(reversed(quot)), rem


def is_perfect_square(f: FPoly) -> FPoly | None:
    """The monic square root of f, or None when f is not a square.

    For f of degree 2n the root g is monic of degree n, and matching the
    coefficients of X^(2n-1), ..., X^n of g^2 with those of f fixes
    g_(n-1), ..., g_0 one at a time (2 is invertible since q is odd); f is a
    square iff that g squares back to f.
    """
    if not f.is_monic():
        raise ValueError("square test expects a monic polynomial")
    if f.degree % 2:
        return None
    q, n = f.q, f.degree // 2
    half = pow(2, -1, q)
    g = [0] * n + [1]
    for k in range(1, n + 1):
        acc = sum(g[i] * g[2 * n - k - i] for i in range(n - k + 1, n))
        g[n - k] = (f.coeffs[2 * n - k] - acc) * half % q
    root = tuple(g)
    square = tuple(c % q for c in poly_mul(root, root))
    return FPoly(q, root) if square == f.coeffs else None


def is_square_times_linear(f: FPoly, r: int) -> FPoly | None:
    """Square root of f/(X - r) when f has that shape; r is the root."""
    if not f.is_monic() or f.degree % 2 == 0:
        raise ValueError("expected a monic polynomial of odd degree")
    q = f.q
    quot, rem = _divide_linear(f.coeffs, r, q)
    if rem:
        raise ArithmeticError(f"(X - {r % q}) does not divide the polynomial mod {q}")
    return is_perfect_square(FPoly(q, quot))


def epsilon_split(D_prime: int) -> int:
    """0, 1 or 2 as 2 is inert, ramified or split in the order of odd disc D'."""
    if D_prime % 2 == 0:
        raise ValueError("epsilon_split expects an odd discriminant")
    if D_prime % 4 != 1:
        raise ValueError(f"{D_prime} is not a discriminant")
    return 1 + kronecker(D_prime, 2)


def supersingular_jp_residues(p: int) -> tuple[int, ...]:
    """Supersingular j_p-invariants mod p, ascending, from the level table.

    The test suite derives them from the roots mod p of built class
    polynomials, all of which are supersingular there.
    """
    return level(p).supersingular


def mod_p_square_check(poly, poly_minus_pl=None) -> FPoly | None:
    """Perfect-square test of a class polynomial modulo its own p.

    ``poly`` is a ClassPolynomial for D = -4pl or the product P_l of the
    level's search.  Returns the monic square root mod p, or None when the
    polynomial is not a square or fails the Hecke pattern below.  At a level
    with the T_2 check (p = 11) the companion P_{-pl}, of discriminant
    D / 4, is required (ValueError when it is missing or of another D), and
    the Hecke exponent pattern predicted by the T_2 expansion is verified:
    if the Brandt basis invariants b_j have multiplicities m_j in P_{-pl}
    mod p, then b_i has multiplicity sum_j m_j B_ji - eps m_i in P_{-4pl}
    mod p, with B the Brandt matrix and eps read off the companion's
    discriminant (at p = 11, X^(m+3n-eps*m) (X+1)^(2m-eps*n)).
    """
    p = poly.p
    lev = level(p)
    if lev.t2_check and (poly_minus_pl is None or 4 * poly_minus_pl.D != poly.D):
        raise ValueError(f"the T_2 check at p = {p} needs the companion P_(D/4) of D = {poly.D}")
    f = FPoly.from_coeffs(poly.coefficients, p)
    root = is_perfect_square(f)
    if root is None:
        return None
    if lev.t2_check:
        basis, matrix = lev.brandt.basis, lev.brandt.matrix
        g = FPoly.from_coeffs(poly_minus_pl.coefficients, p)
        m = [_root_multiplicity(g, b) for b in basis]
        if sum(m) != g.degree:
            raise ArithmeticError(
                f"P_(-pl) mod {p} has roots outside the Brandt basis {basis}: {g.coeffs}"
            )
        eps = epsilon_split(poly_minus_pl.D)
        expected = [sum(mj * row[i] for mj, row in zip(m, matrix)) - eps * m[i]
                    for i in range(len(basis))]
        if ([_root_multiplicity(f, b) for b in basis] != expected
                or sum(expected) != f.degree):
            return None
    return root


def _root_multiplicity(f: FPoly, r: int) -> int:
    count, (quot, rem) = 0, _divide_linear(f.coeffs, r, f.q)
    while not rem:
        count += 1
        quot, rem = _divide_linear(quot, r, f.q)
    return count
