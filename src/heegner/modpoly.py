"""Polynomial arithmetic over prime fields and the mod-l / mod-p square tests.

Polynomials are coefficient tuples in ascending degree with entries reduced
into [0, q).  Squareness is decided through squarefree decomposition (gcd
based, handling the char-q p-th power case), never through full irreducible
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmath import is_prime, kronecker
from .levels import level

__all__ = [
    "FPoly",
    "squarefree_decomposition",
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

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.q
        return acc

    def __mul__(self, other: "FPoly") -> "FPoly":
        if self.q != other.q:
            raise ValueError("mixed moduli")
        return FPoly(self.q, _mul(self.coeffs, other.coeffs, self.q))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else (f"{c}*X^{i}" if i > 1 else f"{c}*X"))
        return " + ".join(reversed(terms)) + f"  (mod {self.q})"


def _trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def _mul(f, g, q):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % q
    return _trim(out)


def _divmod(f, g, q):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = len(g) - 1
    lead_inv = pow(g[-1], -1, q)
    quot = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        factor = f[-1] * lead_inv % q
        quot[shift] = factor
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - factor * b) % q
        while f and f[-1] == 0:
            f.pop()
    return _trim(quot), _trim(f)


def _monic(f, q):
    if not f:
        return f
    inv = pow(f[-1], -1, q)
    return tuple(c * inv % q for c in f)


def _gcd(f, g, q):
    while g:
        _, r = _divmod(f, g, q)
        f, g = g, r
    return _monic(f, q)


def _diff(f, q):
    return _trim(tuple(i * c % q for i, c in enumerate(f)))[1:] if f else ()


def _qth_root(f, q):
    """g with g(X)^q = f(X), valid when f = h(X^q) over F_q."""
    out = []
    for i, c in enumerate(f):
        if i % q == 0:
            out.append(c)
        elif c:
            raise ArithmeticError("polynomial is not a q-th power")
    return _trim(out)


def squarefree_decomposition(f: FPoly) -> list[tuple[FPoly, int]]:
    """f = prod g_i^(e_i) with the g_i squarefree, monic, pairwise coprime.

    Char-q variant of Yun's algorithm: the part of f whose multiplicities are
    divisible by q has vanishing derivative and is peeled off through a q-th
    root before recursing.
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    q = f.q
    out: dict[tuple[int, ...], int] = {}
    _sqf_into(_monic(f.coeffs, q), q, 1, out)
    factors = sorted(out.items(), key=lambda kv: (kv[1], len(kv[0]), kv[0]))
    return [(FPoly(q, g), e) for g, e in factors]


def _sqf_into(f, q, scale, out):
    if len(f) == 1:
        return
    df = _diff(f, q)
    if not df:
        _sqf_into(_qth_root(f, q), q, scale * q, out)
        return
    g = _gcd(f, df, q)
    w, _ = _divmod(f, g, q)
    i = 1
    while len(w) > 1:
        y = _gcd(w, g, q)
        z, _ = _divmod(w, y, q)
        if len(z) > 1:
            key = z
            out[key] = out.get(key, 0) + i * scale
        g, _ = _divmod(g, y, q)
        w = y
        i += 1
    if len(g) > 1:
        _sqf_into(_qth_root(g, q), q, scale * q, out)


def is_perfect_square(f: FPoly) -> FPoly | None:
    """The monic square root of f if every factor multiplicity is even."""
    if not f.is_monic():
        raise ValueError("square test expects a monic polynomial")
    root = FPoly(f.q, (1,))
    for g, e in squarefree_decomposition(f):
        if e % 2:
            return None
        half = e // 2
        acc = g
        power = FPoly(f.q, (1,))
        while half:
            if half & 1:
                power = power * acc
            acc = acc * acc
            half >>= 1
        root = root * power
    if (root * root).coeffs != f.coeffs:
        raise ArithmeticError("square root does not square back to f")
    return root


def is_square_times_linear(f: FPoly, r: int) -> FPoly | None:
    """Square root of f/(X - r) when f has that shape; r is the root."""
    if not f.is_monic() or f.degree % 2 == 0:
        raise ValueError("expected a monic polynomial of odd degree")
    q = f.q
    linear = (-r % q, 1)
    quot, rem = _divmod(f.coeffs, linear, q)
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


def mod_p_square_check(poly, poly_minus_pl=None) -> tuple[bool, object]:
    """Perfect-square test of a class polynomial modulo its own p.

    ``poly`` is a ClassPolynomial for D = -4pl or the product P_l of the
    level's search.  Returns (True, square root) on success and (False,
    squarefree decomposition) on failure.  At a level with the T_2 check
    (p = 11), when the companion P_{-pl} is supplied, additionally verifies
    the Hecke exponent pattern predicted by the T_2 expansion: if the Brandt
    basis invariants b_j have multiplicities m_j in P_{-pl} mod p, then b_i
    has multiplicity sum_j m_j B_ji - eps m_i in P_{-4pl} mod p, with B the
    Brandt matrix (at p = 11, X^(m+3n-eps*m) (X+1)^(2m-eps*n)).
    """
    p = poly.p
    f = FPoly.from_coeffs(poly.coefficients, p)
    root = is_perfect_square(f)
    if root is None:
        return False, squarefree_decomposition(f)
    lev = level(p)
    if lev.t2_check and poly_minus_pl is not None:
        basis, matrix = lev.brandt.basis, lev.brandt.matrix
        g = FPoly.from_coeffs(poly_minus_pl.coefficients, p)
        m = [_root_multiplicity(g, b) for b in basis]
        if sum(m) != g.degree:
            raise ArithmeticError(
                f"P_(-pl) mod {p} has roots outside the Brandt basis {basis}: {g}"
            )
        eps = epsilon_split(_odd_part_discriminant(poly))
        expected = [sum(mj * row[i] for mj, row in zip(m, matrix)) - eps * m[i]
                    for i in range(len(basis))]
        if ([_root_multiplicity(f, b) for b in basis] != expected
                or sum(expected) != f.degree):
            return False, squarefree_decomposition(f)
    return True, root


def _odd_part_discriminant(poly) -> int:
    D = poly.D
    if isinstance(D, tuple):
        D = max(D)  # the odd discriminant -pl is the larger of the pair
    if D % 2 == 0:
        D //= 4
    return D


def _root_multiplicity(f: FPoly, r: int) -> int:
    q = f.q
    lin = ((-r) % q, 1)
    count = 0
    coeffs = f.coeffs
    while True:
        quot, rem = _divmod(coeffs, lin, q)
        if rem:
            return count
        coeffs = quot
        count += 1
