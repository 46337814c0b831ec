"""Supersingularity of a j-invariant by walking the 2-isogeny graph.

Sutherland, "Identifying supersingular elliptic curves", LMS J. Comput. Math.
15 (2012), Algorithm 1 (arXiv:1107.1140).  A supersingular j lies in F_q^2
with all its 2-isogenous neighbours, the roots of Phi_2(j, Y).  An ordinary j
lies on a 2-volcano of depth at most log2 q + 1, and of three non-backtracking
paths from a vertex one descends and meets the floor, where only one
neighbour lies in F_q^2, within ceil(log2 q) + 1 steps.  So j is supersingular
iff the roots of Phi_2(j, Y) lie in F_q^2 and three such paths from them never
leave it: O(log q) square roots, where the Hasse invariant costs O(q).  They
are all the field's: ``Fq2Field`` finds its non-residue and its Tonelli-Shanks
constants once, in its constructor, so a square root in F_q is one
Tonelli-Shanks exponentiation for every odd q, q = 3 mod 4 included, that
also tells a non-residue, with no Euler test before it.
This module imports nothing from the package.

Hasse-invariant contract: ``hasse_nonzero_fq(q, j, F)`` and
``hasse_nonzero_fq2(q, j0, j1, F)`` answer whether curves with invariant j
in F = ``Fq2Field(q)`` are ordinary, their Hasse invariant nonzero, that is,
whether j is not supersingular.  Each is one ``is_supersingular`` call; they
stay only because the benchmark's tracer (perfbench/spans.py) patches them
in ``ssverify`` and reads q, their first argument.
"""

from __future__ import annotations

__all__ = ["PHI2", "Fq2Field", "phi2_roots", "is_supersingular", "hasse_nonzero_fq",
           "hasse_nonzero_fq2"]

# Phi_2(X, Y) = sum of PHI2[k][i] X^i Y^k; the polynomial is symmetric.
PHI2 = (
    (-157464000000000, 8748000000, -162000, 1),
    (8748000000, 40773375, 1488, 0),
    (-162000, 1488, -1, 0),
    (1, 0, 0, 0),
)


class Fq2Field:
    """F_q^2 = F_q(t), t^2 = m for the least non-residue m, with elements
    x0 + x1 t as pairs (x0, x1), 0 <= xi < q.  The field also keeps the
    Tonelli-Shanks constants of q - 1 = 2^s d, d odd, and c = m^d, so each
    square root in F_q costs one exponentiation."""

    __slots__ = ("q", "m", "s", "d", "c")

    def __init__(self, q: int):
        self.q = q
        self.m = next((z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1), None)
        if self.m is None:
            raise ValueError(f"F_{q} has no non-residue to adjoin a square root of")
        self.s = ((q - 1) & (1 - q)).bit_length() - 1
        self.d = (q - 1) >> self.s
        self.c = pow(self.m, self.d, q)

    def mul(self, x, y):
        q = self.q
        return (x[0] * y[0] + self.m * x[1] * y[1]) % q, (x[0] * y[1] + x[1] * y[0]) % q

    def add(self, x, y):
        return (x[0] + y[0]) % self.q, (x[1] + y[1]) % self.q

    def sub(self, x, y):
        return (x[0] - y[0]) % self.q, (x[1] - y[1]) % self.q

    def scale(self, x, k: int):
        return x[0] * k % self.q, x[1] * k % self.q

    def inv(self, x):
        q = self.q
        n = pow((x[0] * x[0] - self.m * x[1] * x[1]) % q, -1, q)
        return x[0] * n % q, -x[1] * n % q

    def sqrt(self, x):
        """A square root of x, or None: in F_q or on t F_q for x in F_q.  For
        x1 != 0 a root y0 + y1 t has y0^2 = (x0 +- sqrt(norm x)) / 2, exactly
        one sign giving a square in F_q, and y1 = x1 / (2 y0)."""
        q = self.q
        x0, x1 = x[0] % q, x[1] % q
        if x1 == 0:
            r = self._sqrt_fq(x0)
            if r is not None:
                return r, 0
            return 0, self._sqrt_fq(x0 * pow(self.m, -1, q) % q)
        n = self._sqrt_fq((x0 * x0 - self.m * x1 * x1) % q)
        if n is None:
            return None
        y0 = self._sqrt_fq((x0 + n) * (q + 1) // 2 % q)
        if y0 is None:
            y0 = self._sqrt_fq((x0 - n) * (q + 1) // 2 % q)
        return y0, x1 * pow(2 * y0, -1, q) % q

    def _sqrt_fq(self, a: int) -> int | None:
        """A square root of 0 <= a < q in F_q, or None for a non-residue, in
        one exponentiation: Tonelli-Shanks (Cohen, GTM 138, Algorithm 1.5.1)
        with the field's constants.  w = a^((d-1)/2) gives r = a^((d+1)/2)
        and t = a^d, and a t of order 2^s, found in the loop, marks a
        non-residue.  For q = 3 mod 4, s = 1 and r = a^((q+1)/4), and a
        non-residue's t = -1 is told by the loop's first order test."""
        q = self.q
        if a == 0:
            return 0
        w = pow(a, (self.d - 1) // 2, q)
        r = w * a % q
        e, c, t = self.s, self.c, w * r % q
        while t != 1:
            t2, i = t * t % q, 1
            while t2 != 1:
                t2 = t2 * t2 % q
                i += 1
            if i == e:
                return None
            b = pow(c, 1 << (e - i - 1), q)
            e, c = i, b * b % q
            t, r = t * c % q, r * b % q
        return r


# --- polynomials over F_q^2 modulo a monic cubic --------------------------------
# A polynomial is a list of field elements, lowest degree first.


def _mulmod(F, a, b, f):
    """a * b mod the monic cubic f, for a and b of degree at most 2."""
    q, m = F.q, F.m
    (a0, a1), (b0, b1), (c0, c1) = a
    (d0, d1), (e0, e1), (g0, g1) = b
    # a * b = p0 + p1 Y + p2 Y^2 + p3 Y^3 + p4 Y^4 over Z[t], t^2 = m
    p4 = ((c0 * g0 + m * c1 * g1) % q, (c0 * g1 + c1 * g0) % q)
    p3 = ((b0 * g0 + c0 * e0 + m * (b1 * g1 + c1 * e1)) % q,
          (b0 * g1 + b1 * g0 + c0 * e1 + c1 * e0) % q)
    p2 = (a0 * g0 + b0 * e0 + c0 * d0 + m * (a1 * g1 + b1 * e1 + c1 * d1),
          a0 * g1 + a1 * g0 + b0 * e1 + b1 * e0 + c0 * d1 + c1 * d0)
    p1 = (a0 * e0 + b0 * d0 + m * (a1 * e1 + b1 * d1), a0 * e1 + a1 * e0 + b0 * d1 + b1 * d0)
    p0 = (a0 * d0 + m * a1 * d1, a0 * d1 + a1 * d0)
    (f0, f1), (h0, h1), (k0, k1) = f
    # Y^4 = -f2 Y^3 - f1 Y^2 - f0 Y and Y^3 = -f2 Y^2 - f1 Y - f0 modulo f
    x0, x1 = p4
    p3 = ((p3[0] - x0 * k0 - m * x1 * k1) % q, (p3[1] - x0 * k1 - x1 * k0) % q)
    p2 = (p2[0] - x0 * h0 - m * x1 * h1, p2[1] - x0 * h1 - x1 * h0)
    p1 = (p1[0] - x0 * f0 - m * x1 * f1, p1[1] - x0 * f1 - x1 * f0)
    x0, x1 = p3
    return [((p0[0] - x0 * f0 - m * x1 * f1) % q, (p0[1] - x0 * f1 - x1 * f0) % q),
            ((p1[0] - x0 * h0 - m * x1 * h1) % q, (p1[1] - x0 * h1 - x1 * h0) % q),
            ((p2[0] - x0 * k0 - m * x1 * k1) % q, (p2[1] - x0 * k1 - x1 * k0) % q)]


def _powmod(F, a, e, f):
    """a^e mod f, e >= 1."""
    result = a
    for bit in bin(e)[3:]:
        result = _mulmod(F, result, result, f)
        if bit == "1":
            result = _mulmod(F, result, a, f)
    return result


# --- Phi_2 and the walk -------------------------------------------------------


def _phi2_at(F, j):
    """Coefficients c0, c1, c2 of the monic cubic Phi_2(j, Y)."""
    (x0, x1), (y0, y1) = j, F.mul(j, j)
    z0, z1 = F.mul((y0, y1), j)
    return [((a + b * x0 + c * y0 + d * z0) % F.q, (b * x1 + c * y1 + d * z1) % F.q)
            for a, b, c, d in PHI2[:3]]


def _quadratic_root(F, b1, b0):
    """A root of Y^2 + b1 Y + b0 in F_q^2, or None."""
    s = F.sqrt(F.sub(F.mul(b1, b1), F.scale(b0, 4)))
    return None if s is None else F.scale(F.sub(s, b1), (F.q + 1) // 2)


def phi2_roots(F: Fq2Field, j):
    """The three roots of Phi_2(j, Y), with multiplicity, if all lie in F_q^2.

    The cubic f is first reduced to its squarefree part: a repeated root has
    a closed form in the coefficients, so it and the third root -c2 - 2r lie
    in F_q^2.  For squarefree f, h = (Y + d)^((q^2-1)/2) mod f is 0 or +-1 at
    a root in F_q^2 and neither at a root outside, so f splits iff h^3 = h (a
    repeated factor fails that test whatever its roots).  When h takes one
    value at two roots, h minus it is c (Y - r2)(Y - r3) and the third root is
    h1/h2 - c2; shifts d = k + t, k + 2t, ... are tried until one gives it.
    """
    c0, c1, c2 = f = _phi2_at(F, j)
    mul, sub, scale = F.mul, F.sub, F.scale
    # for f = Y^3 + bY^2 + cY + d: d1 = b^2 - 3c and 27 disc(f) = 4 d1^3 - d3^2
    c2c2, c2c1 = mul(c2, c2), mul(c2, c1)
    d1 = sub(c2c2, scale(c1, 3))
    d3 = F.add(sub(scale(mul(c2c2, c2), 2), scale(c2c1, 9)), scale(c0, 27))
    if mul(mul(d1, d1), scale(d1, 4)) == mul(d3, d3):
        if d1 == (0, 0):  # (Y - r)^3
            r = scale(c2, F.q - pow(3, -1, F.q))
            return [r, r, r]
        r = mul(sub(scale(c0, 9), c2c1), F.inv(scale(d1, 2)))  # (Y - r)^2 (Y - s)
        return [r, r, sub(sub((0, 0), c2), scale(r, 2))]
    for k in range(F.q * F.q):
        h = _powmod(F, [(k % F.q, k // F.q + 1), (1, 0), (0, 0)], (F.q * F.q - 1) // 2, f)
        if _mulmod(F, _mulmod(F, h, h, f), h, f) != h:
            return None
        if h[2] != (0, 0):
            r = sub(mul(h[1], F.inv(h[2])), c2)
            if F.add(mul(F.add(mul(F.add(r, c2), r), c1), r), c0) == (0, 0):
                break
    else:
        raise ArithmeticError(f"no shift separates the roots of Phi_2({j}, Y)")
    b1 = F.add(c2, r)
    s = _quadratic_root(F, b1, F.add(c1, mul(r, b1)))
    return [r, s, sub(sub((0, 0), b1), s)]


def is_supersingular(F: Fq2Field, j) -> bool:
    """Whether j in F_q^2 (q >= 5 prime) is a supersingular j-invariant."""
    q = F.q
    j = (j[0] % q, j[1] % q)
    if j == (0, 0):
        return q % 3 == 2
    if j == (1728 % q, 0):
        return q % 4 == 3
    roots = phi2_roots(F, j)
    if roots is None:
        return False
    paths = [(j, r) for r in roots]
    for _ in range(q.bit_length() + 1):
        for i, (previous, current) in enumerate(paths):
            _, c1, c2 = _phi2_at(F, current)
            # Phi_2(current, Y) / (Y - previous) = Y^2 + b1 Y + b0
            b1 = F.add(c2, previous)
            following = _quadratic_root(F, b1, F.add(c1, F.mul(previous, b1)))
            if following is None:
                return False
            paths[i] = current, following
    return True


# --- the Hasse-invariant contract -----------------------------------------------


def hasse_nonzero_fq(q: int, j: int, F: Fq2Field) -> bool:
    """True iff curves over F_q with invariant j have nonzero Hasse
    invariant, that is, iff j is ordinary; F is ``Fq2Field(q)``."""
    return not is_supersingular(F, (j, 0))


def hasse_nonzero_fq2(q: int, j0: int, j1: int, F: Fq2Field) -> bool:
    """The same for j = j0 + j1 t in F = ``Fq2Field(q)``."""
    return not is_supersingular(F, (j0, j1))
