"""Polynomial arithmetic over prime fields and the mod-l / mod-p square tests.

Polynomials are integer coefficient tuples in ascending degree, reduced into
[0, q) modulo q; ``poly_mul`` is the package's one polynomial product.  The
square tests check once that the modulus is an odd prime and the polynomial
monic, reduce it, and decide squareness by computing the monic square root
coefficient by coefficient from the top and squaring it back with
``poly_mul`` mod q, never through a factorization.
"""

from __future__ import annotations

from .intmath import is_prime, kronecker
from .levels import level

__all__ = [
    "poly_mul",
    "is_perfect_square",
    "is_square_times_linear",
    "mod_p_square_check",
    "epsilon_split",
    "supersingular_jp_residues",
]


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


def _monic_mod(coeffs, q):
    """coeffs reduced into [0, q), once q is known to be an odd prime and
    the polynomial to be monic modulo q."""
    if q == 2 or not is_prime(q):
        raise ValueError(f"modulus {q} must be an odd prime")
    f = tuple(c % q for c in coeffs)
    if not f or f[-1] != 1:
        raise ValueError(f"square test expects a monic polynomial mod {q}")
    return f


def _square_root(f, q):
    """The monic square root of the reduced monic f over F_q, or None.

    For f of degree 2n the root g is monic of degree n, and matching the
    coefficients of X^(2n-1), ..., X^n of g^2 with those of f fixes
    g_(n-1), ..., g_0 one at a time (2 is invertible since q is odd); f is a
    square iff that g squares back to f.
    """
    if len(f) % 2 == 0:  # odd degree
        return None
    n = len(f) // 2
    half = pow(2, -1, q)
    g = [0] * n + [1]
    for k in range(1, n + 1):
        acc = sum(g[i] * g[2 * n - k - i] for i in range(n - k + 1, n))
        g[n - k] = (f[2 * n - k] - acc) * half % q
    root = tuple(g)
    return root if tuple(c % q for c in poly_mul(root, root)) == f else None


def is_perfect_square(coeffs, q: int) -> tuple[int, ...] | None:
    """The monic square root mod q of the integer polynomial ``coeffs``,
    monic modulo the odd prime q, or None when it is not a square there."""
    return _square_root(_monic_mod(coeffs, q), q)


def is_square_times_linear(coeffs, q: int, r: int) -> tuple[int, ...] | None:
    """The monic square root mod q of coeffs / (X - r), or None when the
    quotient is not a square; coeffs is monic of odd degree with root r."""
    f = _monic_mod(coeffs, q)
    if len(f) % 2:
        raise ValueError("expected a monic polynomial of odd degree")
    quot, rem = _divide_linear(f, r, q)
    if rem:
        raise ArithmeticError(f"(X - {r % q}) does not divide the polynomial mod {q}")
    return _square_root(quot, q)


def epsilon_split(D_prime: int) -> int:
    """0 or 2 as 2 is inert or split in the order of odd discriminant D';
    2 never ramifies there, since D' = 1 mod 4."""
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


def mod_p_square_check(poly, poly_minus_pl=None) -> tuple[int, ...] | None:
    """Perfect-square test of a class polynomial modulo its own p.

    ``poly`` is a ClassPolynomial for D = -4pl or the product P_l of the
    level's search.  Returns the monic square root mod p, or None when the
    polynomial is not a square or fails the Hecke pattern below.  At a level
    with the T_2 check (p = 11) the companion P_{-pl}, of discriminant
    D / 4, is required (ValueError when it is missing or of another D), and
    the Hecke exponent pattern predicted by the T_2 expansion is verified:
    if the supersingular residues s_j, ascending, have multiplicities m_j in
    P_{-pl} mod p, then s_i has multiplicity sum_j m_j B_ji - eps m_i in
    P_{-4pl} mod p, with B the Brandt matrix on that basis and eps read off
    the companion's discriminant (at p = 11, X^(m+3n-eps*m) (X+1)^(2m-eps*n)).
    """
    p = poly.p
    lev = level(p)
    if lev.t2_check and (poly_minus_pl is None or 4 * poly_minus_pl.D != poly.D):
        raise ValueError(f"the T_2 check at p = {p} needs the companion P_(D/4) of D = {poly.D}")
    f = _monic_mod(poly.coefficients, p)
    root = _square_root(f, p)
    if root is None:
        return None
    if lev.t2_check:
        basis, matrix = lev.supersingular, lev.brandt
        g = tuple(c % p for c in poly_minus_pl.coefficients)
        m = [_root_multiplicity(g, b, p) for b in basis]
        if sum(m) != len(g) - 1:
            raise ArithmeticError(
                f"P_(-pl) mod {p} has roots outside the Brandt basis {basis}: {g}"
            )
        eps = epsilon_split(poly_minus_pl.D)
        expected = [sum(mj * row[i] for mj, row in zip(m, matrix)) - eps * m[i]
                    for i in range(len(basis))]
        if ([_root_multiplicity(f, b, p) for b in basis] != expected
                or sum(expected) != len(f) - 1):
            return None
    return root


def _root_multiplicity(f, r: int, q: int) -> int:
    """The multiplicity of r as a root of the reduced, nonzero f over F_q."""
    count, (quot, rem) = 0, _divide_linear(f, r, q)
    while not rem:
        count += 1
        quot, rem = _divide_linear(quot, r, q)
    return count
