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
with that closed form and walks nothing.  The three first roots come from
Cardano's formula: one square root and one cube root in F_q^2 and one
inversion.  A step of a path works on ints alone: the two coefficients of
Phi_2(current, Y) it needs, the quadratic left by the previous vertex and
its discriminant, whose root is the one call into the field.  The roots are
all the field's: ``Fq2Field`` finds its non-residue and its Tonelli-Shanks
constants once, in its constructor, so a square root in F_q is one
Tonelli-Shanks exponentiation for every odd q, q = 3 mod 4 included, that
also tells a non-residue, with no Euler test before it, and gives the
root's inverse; a root in F_q^2 is two of them and no inversion.  Its
cube-root constants the field finds once, for the first cube root.
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
    x0 + x1 t as pairs (x0, x1), 0 <= xi < q.  The field keeps the
    Tonelli-Shanks constants of q - 1 = 2^s d, d odd: the table ``c_powers``
    of c^(2^k), k < s, for c = m^d, and ``twist``, which turns the state of
    a non-residue a into that of a / m.  So a square root in F_q and its
    inverse cost one exponentiation.  For the first cube root,
    ``_cube_constants`` finds those of q^2 - 1 = 3^e k, 3 prime to k:
    ``sylow``, the pairs (g^(3^i), g^(2 3^i)), i < e, for a generator g of
    the Sylow 3-subgroup, and ``omega`` = g^(3^(e-1)), which is
    (-1 + sqrt(-3)) / 2 for one of the roots of -3."""

    __slots__ = ("q", "m", "s", "d", "c_powers", "twist", "cube_exponent", "sylow", "omega")

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
        # the factors of r, t and 1/r: r^2 m = m^-d = c^-1
        self.twist = r, r * r * self.m % q, r * self.m % q
        self.sylow = None

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
        m y1^2 = a and y0 = x1 / (2 y1), the inverse coming with the root."""
        q = self.q
        x0, x1 = x[0] % q, x[1] % q
        if x1 == 0:
            r, _, square = self._root_or_twisted_root(x0)
            return (r, 0) if square else (0, r)
        n, _, square = self._root_or_twisted_root((x0 * x0 - self.m * x1 * x1) % q)
        if not square:
            return None
        r, inverse, square = self._root_or_twisted_root((x0 + n) * (q + 1) // 2 % q)
        other = x1 * inverse * (q + 1) // 2 % q
        return (r, other) if square else (other, r)

    def _root_or_twisted_root(self, a: int) -> tuple[int, int, bool]:
        """(r, 1/r, True) with r^2 = a for a square a, 0 <= a < q, else
        (r, 1/r, False) with r^2 = a / m, in one exponentiation:
        Tonelli-Shanks (Cohen, GTM 138, Algorithm 1.5.1) with the field's
        constants; a = 0 gives (0, 0, True).  w = a^((d-1)/2) gives
        r = a^((d+1)/2) and t = a^d.  Each step of the loop finds the order
        2^i of t by squaring and multiplies r by c^(2^(s-i-1)) and t by its
        square, both read from the table.  A t of order 2^s marks a
        non-residue, at the first order test; then a / m, a square, takes
        over, its r and t those of a times the field's ``twist``.  As t ends
        at 1, 1/r = w C for the product C of the factors of r, with
        m^(-(d+1)/2) m for the twist's.  For q = 3 mod 4, s = 1 and
        r = a^((q+1)/4)."""
        q = self.q
        if a == 0:
            return 0, 0, True
        w = pow(a, (self.d - 1) // 2, q)
        r = w * a % q
        s, c_powers, t = self.s, self.c_powers, w * r % q
        inverse, square = w, True
        while t != 1:
            t2, i = t * t % q, 1
            while t2 != 1:
                t2 = t2 * t2 % q
                i += 1
            if i == s:
                twist, square = self.twist, False
                r, t, inverse = r * twist[0] % q, t * twist[1] % q, inverse * twist[2] % q
                continue
            c = c_powers[s - i - 1]
            r, inverse = r * c % q, inverse * c % q
            t = t * c_powers[s - i] % q
        return r, inverse, square

    def cbrt(self, x):
        """A cube root of x, or None if x is no cube: 0 for x = 0, else the
        Adleman-Manders-Miller analogue of Tonelli-Shanks.  w = x^(n-1)
        gives r = x^n and t = r^3 / x = r^2 w, in the Sylow 3-subgroup as k
        divides 3n - 1.  Each step finds the order 3^i of t by cubing; as
        t^(3^(i-1)) is omega^c, c = 1 or 2, r times g^((3-c) 3^(e-i-1)) and
        t times its cube lower that order, so at most e - 1 steps follow,
        none at e = 1.  A t of order 3^e marks a non-cube, at the first."""
        if self.sylow is None:
            self._cube_constants()
        if x[0] % self.q == 0 == x[1] % self.q:
            return 0, 0
        mul, sylow = self.mul, self.sylow
        e = len(sylow)
        w = self._power(x, self.cube_exponent)
        r = mul(w, x)
        t = mul(mul(r, r), w)
        while t != (1, 0):
            last, power, i = t, mul(mul(t, t), t), 1
            while power != (1, 0):
                last, power, i = power, mul(mul(power, power), power), i + 1
            if i == e:
                return None
            twice = last == self.omega  # c = 1, so 3 - c = 2
            r, t = mul(r, sylow[e - i - 1][twice]), mul(t, sylow[e - i][twice])
        return r

    def _cube_constants(self):
        """n - 1, ``sylow`` and ``omega``, for q > 3: g = z^k for the first
        z = c + t, c = 0, 1, ..., with g^(3^(e-1)) != 1, so of order 3^e."""
        q, mul = self.q, self.mul
        k, e = q * q - 1, 0
        while k % 3 == 0:
            k, e = k // 3, e + 1
        for c in range(q):
            powers = [self._power((c, 1), k)]
            while len(powers) < e:
                g = powers[-1]
                powers.append(mul(mul(g, g), g))
            if powers[-1] != (1, 0):
                break
        self.cube_exponent = (k * (3 - k % 3) + 1) // 3 - 1  # 3^-1 mod k, minus 1
        self.sylow = [(g, mul(g, g)) for g in powers]
        self.omega = powers[-1]

    def _power(self, x, n: int):
        """x^n: x^(q+1) = x conj(x) is the norm of x, in F_q, so
        n = a (q + 1) + b takes one pow in F_q and a ladder over b <= q."""
        q, m = self.q, self.m
        (x0, x1), (a, b) = x, divmod(n, q + 1)
        y0, y1 = 1, 0
        for bit in bin(b)[2:]:
            y0, y1 = (y0 * y0 + m * y1 * y1) % q, 2 * y0 * y1 % q
            if bit == "1":
                y0, y1 = (y0 * x0 + m * y1 * x1) % q, (y0 * x1 + y1 * x0) % q
        norm = pow((x0 * x0 - m * x1 * x1) % q, a, q)
        return y0 * norm % q, y1 * norm % q


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

    Cardano's formula.  For f = Y^3 + c2 Y^2 + c1 Y + c0, d1 = c2^2 - 3 c1
    and d3 = 2 c2^3 - 9 c2 c1 + 27 c0, W = 3Y + c2 turns 27 f into
    W^3 - 3 d1 W + d3, and delta = d3^2 - 4 d1^3 is -27 disc(f).  Then
    W = a + d1 / a for the three cube roots a of u = (sqrt(delta) - d3) / 2,
    or of -d3 if that u is 0.  F_q^2 holds omega, so if f splits there delta
    is a square and the Lagrange resolvent, a cube root of u, lies in F_q^2;
    a missing root answers None.  So do repeated roots: W-roots s, s, -2s
    give u = (-s)^3 and d1 = s^2, and a triple root u = a = d1 = 0, with
    d1 / a read as 0.  One inversion, of a, serves the three roots, each
    checked against f.  The formula divides by 2 and 3: q = 3 raises ValueError.
    """
    q = F.q
    if q == 3:
        raise ValueError("phi2_roots needs q > 3: Cardano's formula divides by 2 and 3")
    c0, c1, c2 = _phi2_at(F, j)
    mul, add, sub, scale = F.mul, F.add, F.sub, F.scale
    third = (q * (3 - q % 3) + 1) // 3  # 1/3 mod q
    c2c2 = mul(c2, c2)
    d1 = sub(c2c2, scale(c1, 3))
    d3 = add(sub(scale(mul(c2c2, c2), 2), scale(mul(c2, c1), 9)), scale(c0, 27))
    delta = sub(mul(d3, d3), mul(mul(d1, d1), scale(d1, 4)))
    root = F.sqrt(delta)
    if root is None:
        return None
    u = scale(sub(root, d3), (q + 1) // 2) if root != d3 else sub((0, 0), d3)
    a = F.cbrt(u)
    if a is None:
        return None
    b, omega = mul(d1, F.inv(a)) if a != (0, 0) else a, F.omega
    omega2 = sub((q - 1, 0), omega)
    roots = []
    for x, y in ((a, b), (mul(omega, a), mul(omega2, b)), (mul(omega2, a), mul(omega, b))):
        r = scale(sub(add(x, y), c2), third)
        if add(mul(add(mul(add(r, c2), r), c1), r), c0) != (0, 0):
            raise ArithmeticError(f"Cardano's root {r} of Phi_2({j}, Y) is no root")
        roots.append(r)
    return roots


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
