"""Supersingularity of a j-invariant by walking the 2-isogeny graph.

Sutherland, "Identifying supersingular elliptic curves", LMS J. Comput. Math.
15 (2012), Algorithm 1 (arXiv:1107.1140).  A supersingular j lies in F_q^2
with all its 2-isogenous neighbours, the roots of Phi_2(j, Y).  An ordinary j
lies on a 2-volcano of depth at most log2 q + 1, and of three non-backtracking
paths from a vertex one descends and meets the floor, where only one
neighbour lies in F_q^2, within ceil(log2 q) + 1 steps.  So j is supersingular
iff the roots of Phi_2(j, Y) lie in F_q^2 and three such paths from them never
leave it: O(log q) square roots, where the Hasse invariant costs O(q).  At
q = 3, where the only supersingular j is 0, ``is_supersingular`` answers
with that closed form and walks nothing.  A step of a path works on ints
alone: the two coefficients of Phi_2(current, Y) it needs, the quadratic
left by the previous vertex and its discriminant, whose root is the one
call into the field.  The square roots are all the field's: ``Fq2Field``
finds its non-residue and its Tonelli-Shanks constants once, in its
constructor, so a square root in F_q is one Tonelli-Shanks exponentiation
for every odd q, q = 3 mod 4 included, that also tells a non-residue, with
no Euler test before it, and a root in F_q^2 is two of them and one
inversion.
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
    Tonelli-Shanks constants of q - 1 = 2^s d, d odd: the table
    ``c_powers`` of c^(2^k), k < s, for c = m^d, and ``twist``, the pair
    m^(-(d+1)/2) and c^-1 that turn the state of a non-residue a into that
    of a / m.  So each square root in F_q costs one exponentiation and no
    other, the root of a / m for a non-residue a included."""

    __slots__ = ("q", "m", "s", "d", "c_powers", "twist")

    def __init__(self, q: int):
        self.q = q
        self.m = next((z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1), None)
        if self.m is None:
            raise ValueError(f"F_{q} has no non-residue to adjoin a square root of")
        self.s = ((q - 1) & (1 - q)).bit_length() - 1
        self.d = (q - 1) >> self.s
        self.c_powers = [pow(self.m, self.d, q)]
        while len(self.c_powers) < self.s:
            self.c_powers.append(self.c_powers[-1] ** 2 % q)
        r = pow(self.m, -((self.d + 1) // 2), q)
        self.twist = r, r * r * self.m % q  # r^2 m = m^-d = c^-1

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
        x1 != 0 a root y0 + y1 t has y0^2 = a = (x0 + sqrt(norm x)) / 2 and
        y1 = x1 / (2 y0) when a is a square of F_q, and else
        m y1^2 = a and y0 = x1 / (2 y1)."""
        q = self.q
        x0, x1 = x[0] % q, x[1] % q
        if x1 == 0:
            r, square = self._root_or_twisted_root(x0)
            return (r, 0) if square else (0, r)
        n = self._sqrt_fq((x0 * x0 - self.m * x1 * x1) % q)
        if n is None:
            return None
        r, square = self._root_or_twisted_root((x0 + n) * (q + 1) // 2 % q)
        other = x1 * pow(2 * r, -1, q) % q
        return (r, other) if square else (other, r)

    def _sqrt_fq(self, a: int) -> int | None:
        """A square root of 0 <= a < q in F_q, or None for a non-residue,
        in one exponentiation, ``_root_or_twisted_root``'s."""
        r, square = self._root_or_twisted_root(a)
        return r if square else None

    def _root_or_twisted_root(self, a: int) -> tuple[int, bool]:
        """(r, True) with r^2 = a for a square a, 0 <= a < q, else
        (r, False) with r^2 = a / m, in one exponentiation: Tonelli-Shanks
        (Cohen, GTM 138, Algorithm 1.5.1) with the field's constants.
        w = a^((d-1)/2) gives r = a^((d+1)/2) and t = a^d.  Each step of
        the loop finds the order 2^i of t by squaring and multiplies r by
        c^(2^(s-i-1)) and t by its square, both read from the table.  A t
        of order 2^s marks a non-residue, at the first order test; then
        a / m, a square, takes over, its r and t those of a times the
        field's ``twist``.  For q = 3 mod 4, s = 1 and r = a^((q+1)/4)."""
        q = self.q
        if a == 0:
            return 0, True
        w = pow(a, (self.d - 1) // 2, q)
        r = w * a % q
        s, c_powers, t = self.s, self.c_powers, w * r % q
        square = True
        while t != 1:
            t2, i = t * t % q, 1
            while t2 != 1:
                t2 = t2 * t2 % q
                i += 1
            if i == s:
                r, t, square = r * self.twist[0] % q, t * self.twist[1] % q, False
                continue
            r = r * c_powers[s - i - 1] % q
            t = t * c_powers[s - i] % q
        return r, square


# --- polynomials over F_q^2 modulo a monic cubic --------------------------------
# A polynomial is a list of field elements, lowest degree first.


def _square(F, a, f):
    """a^2 mod the monic cubic f, for a of degree at most 2."""
    q, m = F.q, F.m
    (a0, a1), (b0, b1), (c0, c1) = a
    # a^2 = p0 + p1 Y + p2 Y^2 + p3 Y^3 + p4 Y^4 over Z[t], t^2 = m
    x0, x1 = (c0 * c0 + m * c1 * c1) % q, 2 * c0 * c1 % q  # p4
    p3 = (2 * (b0 * c0 + m * b1 * c1), 2 * (b0 * c1 + b1 * c0))
    p2 = (2 * (a0 * c0 + m * a1 * c1) + b0 * b0 + m * b1 * b1, 2 * (a0 * c1 + a1 * c0 + b0 * b1))
    p1 = (2 * (a0 * b0 + m * a1 * b1), 2 * (a0 * b1 + a1 * b0))
    p0 = (a0 * a0 + m * a1 * a1, 2 * a0 * a1)
    (f0, f1), (h0, h1), (k0, k1) = f
    # Y^4 = -f2 Y^3 - f1 Y^2 - f0 Y and Y^3 = -f2 Y^2 - f1 Y - f0 modulo f
    p3 = ((p3[0] - x0 * k0 - m * x1 * k1) % q, (p3[1] - x0 * k1 - x1 * k0) % q)
    p2 = (p2[0] - x0 * h0 - m * x1 * h1, p2[1] - x0 * h1 - x1 * h0)
    p1 = (p1[0] - x0 * f0 - m * x1 * f1, p1[1] - x0 * f1 - x1 * f0)
    x0, x1 = p3
    return [((p0[0] - x0 * f0 - m * x1 * f1) % q, (p0[1] - x0 * f1 - x1 * f0) % q),
            ((p1[0] - x0 * h0 - m * x1 * h1) % q, (p1[1] - x0 * h1 - x1 * h0) % q),
            ((p2[0] - x0 * k0 - m * x1 * k1) % q, (p2[1] - x0 * k1 - x1 * k0) % q)]


def _times_y_plus(F, a, d, f):
    """a (Y + d) mod the monic cubic f, for a of degree at most 2: a d, and
    a Y with its Y^3 term a2 Y^3 = -a2 (f2 Y^2 + f1 Y + f0) folded in."""
    q, m = F.q, F.m
    (a0, a1), (b0, b1), (c0, c1) = a
    (f0, f1), (h0, h1), (k0, k1), (d0, d1) = *f, d
    return [((d0 * a0 + m * d1 * a1 - c0 * f0 - m * c1 * f1) % q,
             (d0 * a1 + d1 * a0 - c0 * f1 - c1 * f0) % q),
            ((a0 + d0 * b0 + m * d1 * b1 - c0 * h0 - m * c1 * h1) % q,
             (a1 + d0 * b1 + d1 * b0 - c0 * h1 - c1 * h0) % q),
            ((b0 + d0 * c0 + m * d1 * c1 - c0 * k0 - m * c1 * k1) % q,
             (b1 + d0 * c1 + d1 * c0 - c0 * k1 - c1 * k0) % q)]


# --- Phi_2 and the walk -------------------------------------------------------


def _phi2_at(F, j):
    """Coefficients c0, c1, c2 of the monic cubic Phi_2(j, Y)."""
    (x0, x1), (y0, y1) = j, F.mul(j, j)
    z0, z1 = F.mul((y0, y1), j)
    return [((a + b * x0 + c * y0 + d * z0) % F.q, (b * x1 + c * y1 + d * z1) % F.q)
            for a, b, c, d in PHI2[:3]]


def _neighbour(F, previous, current):
    """The vertex after current on a path that came from previous: a root
    of Phi_2(current, Y) / (Y - previous) = Y^2 + b1 Y + b0, or None if
    the roots lie outside F_q^2.  With c1, c2 the coefficients of Y and
    Y^2 in Phi_2(current, Y), b1 = c2 + previous and
    b0 = c1 + previous b1; the root is (sqrt(b1^2 - 4 b0) - b1) / 2.  All of
    it runs on ints, and only the root of the discriminant calls the field.
    """
    q, m = F.q, F.m
    (x0, x1), (p0, p1) = current, previous
    (k10, k11, k12, _), (k20, k21, k22, _) = PHI2[1], PHI2[2]
    s0, s1 = x0 * x0 + m * x1 * x1, 2 * x0 * x1  # current^2
    u0 = (k20 + k21 * x0 + k22 * s0 + p0) % q  # b1
    u1 = (k21 * x1 + k22 * s1 + p1) % q
    v0 = k10 + k11 * x0 + k12 * s0 + p0 * u0 + m * p1 * u1  # b0, unreduced
    v1 = k11 * x1 + k12 * s1 + p0 * u1 + p1 * u0
    root = F.sqrt(((u0 * u0 + m * u1 * u1 - 4 * v0) % q, (2 * u0 * u1 - 4 * v1) % q))
    if root is None:
        return None
    half = (q + 1) // 2
    return (root[0] - u0) * half % q, (root[1] - u1) * half % q


def phi2_roots(F: Fq2Field, j):
    """The three roots of Phi_2(j, Y), with multiplicity, if all lie in F_q^2.

    The cubic f is first reduced to its squarefree part: a repeated root has
    a closed form in the coefficients, so it and the third root -c2 - 2r lie
    in F_q^2.  For squarefree f, h = (Y + d)^((q^2-1)/2) mod f is 0 or +-1 at
    a root in F_q^2 and neither at a root outside, so f splits iff h^2 is
    idempotent (a repeated factor fails that test whatever its roots).  h is
    raised by squaring and by multiplying by the linear Y + d.  When h takes
    one value at two roots, h minus it is c (Y - r2)(Y - r3) and the third
    root is h1/h2 - c2; shifts d = k + t, k + 2t, ... are tried until one
    gives it, and the other two are the roots of f / (Y - r), as in a step
    of the walk.  The closed forms divide by 3, so q = 3 raises ValueError.
    """
    q = F.q
    if q == 3:
        raise ValueError("phi2_roots needs q > 3: its closed forms divide by 3")
    c0, c1, c2 = f = _phi2_at(F, j)
    mul, sub, scale = F.mul, F.sub, F.scale
    # for f = Y^3 + bY^2 + cY + d: d1 = b^2 - 3c and 27 disc(f) = 4 d1^3 - d3^2
    c2c2, c2c1 = mul(c2, c2), mul(c2, c1)
    d1 = sub(c2c2, scale(c1, 3))
    d3 = F.add(sub(scale(mul(c2c2, c2), 2), scale(c2c1, 9)), scale(c0, 27))
    if mul(mul(d1, d1), scale(d1, 4)) == mul(d3, d3):
        if d1 == (0, 0):  # (Y - r)^3
            r = scale(c2, q - pow(3, -1, q))
            return [r, r, r]
        r = mul(sub(scale(c0, 9), c2c1), F.inv(scale(d1, 2)))  # (Y - r)^2 (Y - s)
        return [r, r, sub(sub((0, 0), c2), scale(r, 2))]
    bits = bin((q * q - 1) // 2)[3:]
    for k in range(q * q):
        d = (k % q, k // q + 1)
        h = [d, (1, 0), (0, 0)]
        for bit in bits:
            h = _square(F, h, f)
            if bit == "1":
                h = _times_y_plus(F, h, d, f)
        h2 = _square(F, h, f)
        if _square(F, h2, f) != h2:
            return None
        if h[2] != (0, 0):
            r = sub(mul(h[1], F.inv(h[2])), c2)
            if F.add(mul(F.add(mul(F.add(r, c2), r), c1), r), c0) == (0, 0):
                break
    else:
        raise ArithmeticError(f"no shift separates the roots of Phi_2({j}, Y)")
    s = _neighbour(F, r, j)
    return [r, s, sub(sub((0, 0), F.add(c2, r)), s)]


def is_supersingular(F: Fq2Field, j) -> bool:
    """Whether j in F_q^2 (q an odd prime) is a supersingular j-invariant;
    in characteristic 3 only j = 0 is."""
    q = F.q
    j = (j[0] % q, j[1] % q)
    if q == 3:
        return j == (0, 0)
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
            following = _neighbour(F, previous, current)
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
