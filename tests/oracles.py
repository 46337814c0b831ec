"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: ideal arithmetic on
Z-module bases for form composition, Gauss composition by congruences (the
reference for the Fricke pairing of classes, with the ramified class and the
principal form), sparse polynomial powering and an O(q) recurrence for the
Hasse coefficient, naive point counts for supersingularity, trial
factorization over F_q and Yun's squarefree decomposition in characteristic
q, the references for the square test mod q, the classical
j-invariant from its Eisenstein and product series, the Hauptmoduls in plain
floating point at any tau (summed from the exact coefficient lists, with the
orbit reduction done on tau rather than on a form), class polynomials from
the full h-class product of those values, square-rooted over Z, real roots
counted and isolated by Sturm sequences, trial division one prime at a
time (also as the full sweep of the trial division that stops at a prime
rest), primality by 66 seeded Miller-Rabin rounds, Chernick numbers that
pass the strong test to base 2, the fixed-point series sum with its error
counted term by term, and exp with one division per Taylor term and its
term count from factorials.
Also
the checks of statements of the paper that the pipeline does not run: the
T_2 degree relation, the Brandt table lookup, the exact sum S(j_p) and
product N(j_p) of j(tau) and j(p tau) with j = E_4^3 / Delta, and from them,
by Kronecker's congruence and every element of F_p^2 tried, the level
table's supersingular residues and B(2), the level-3 norm N(j - 1728),
the Pell data and bounded roots on the arc S, the genus forms of the
unbounded root and the Diophantine obstruction, and the algebra that checks
every class polynomial: it splits completely modulo q exactly when the
ideals above q lie in the principal or the p-ideal class.  The
Kronecker-symbol reduction of a quadratic surd is the reference for the one
the library decides by a square root, and Tonelli-Shanks with an Euler test
and every power raised apart the reference for that root.  Last, small
readers the library does not need: the checked Gauss reduction of any form, the
reduced-form test, the Brandt column sums and class polynomials read back
from JSON.  For the factoring budget, Brent's rho,
whose iteration is its unit, and ECM with the unnormalized stage 2 whose
multiplications ``_ecm_plan`` charges.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from itertools import chain

import mpmath
from mpmath import mpc, mpf
from mpmath.libmp import to_fixed

from heegner.classpoly import ClassPolynomial, PrecisionExhaustedError
from heegner.hauptmodul import Ball
from heegner.intmath import (
    _ECM_SCHEDULE,
    _ECM_STRIDE,
    _MULS_PER_RHO_ITERATION,
    TRIAL_BOUND,
    Factorization,
    _ecm_plan,
    _xadd,
    _xdbl,
    factorize,
    is_prime,
    is_square,
    kronecker,
)
from heegner.levels import ETA, THETA_STAR, EtaQuotient, level
from heegner.modpoly import epsilon_split
from heegner.quadforms import (
    Discriminant,
    QuadForm,
    _check_form,
    _reduced,
    class_number,
    enumerate_classes,
    fundamental_unit,
    heegner_rep,
)
from heegner.supersingular import PHI2


# --- ideal arithmetic in O_D with basis (1, w), w = (D + sqrt(D))/2 ---------


def _xgcd(a, b):
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def ideal_of_form(f: QuadForm):
    """The ideal [a, (-b + sqrt(D))/2] as rows (x, y) = x + y*w."""
    D = f.discriminant()
    return [(f.a, 0), ((-f.b - D) // 2, 1)], D


def _mult(e1, e2, D):
    # (x1 + y1 w)(x2 + y2 w) with w^2 = D*w - D(D-1)/4
    x1, y1 = e1
    x2, y2 = e2
    c = D * (D - 1) // 4
    return (x1 * x2 - y1 * y2 * c, x1 * y2 + x2 * y1 + y1 * y2 * D)

def _hnf_basis(gens):
    """Basis [(n, 0), (x0, m)] of the Z-module spanned by gens, m > 0."""
    cur = (0, 0)
    ints = []
    for g in gens:
        if g[1] == 0:
            ints.append(g[0])
        elif cur[1] == 0:
            cur = g
        else:
            gg, u, v = _xgcd(cur[1], g[1])
            new = (u * cur[0] + v * g[0], gg)
            # push the eliminated directions down to y = 0
            ints.append(cur[0] * (g[1] // gg) - g[0] * (cur[1] // gg))
            cur = new
    x0, m = cur
    if m < 0:
        x0, m = -x0, -m
    n = 0
    for v in ints:
        n = math.gcd(n, v)
    assert n > 0 and m > 0
    x0 %= n
    return (n, 0), (x0, m)


def ideal_product_form(f: QuadForm, g: QuadForm) -> QuadForm:
    """Reduced form of the product of the ideals of f and g (the oracle)."""
    If, D = ideal_of_form(f)
    Ig, D2 = ideal_of_form(g)
    assert D == D2
    gens = [_mult(e1, e2, D) for e1 in If for e2 in Ig]
    (n, _), (x0, m) = _hnf_basis(gens)
    norm = n * m
    assert n % m == 0 and x0 % m == 0, "product is not an O_D-module"
    # associated form N(x*alpha - y*beta)/norm for oriented basis (n, x0 + m*w)
    a = n * n // norm
    b = -(n * (2 * x0 + m * D)) // norm
    num_c = x0 * x0 + x0 * m * D + m * m * (D * D - D) // 4
    assert num_c % norm == 0
    c = num_c // norm
    return reduce_form(QuadForm(a, b, c))


# --- Gauss composition, the reference for the Fricke pairing ---------------


def _solve_linear_mod(a: int, b: int, m: int) -> tuple[int, int]:
    """Solve a*x = b (mod m); returns (x0, step) with x = x0 + t*step."""
    if m == 1:
        return 0, 1
    g, u, _ = _xgcd(a, m)
    if b % g:
        raise ArithmeticError(f"no solution to {a}*x = {b} mod {m}")
    step = m // g
    x0 = (b // g) * u % m
    return x0 % step, step


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Reduced Gauss/Dirichlet composition of two primitive forms.

    Congruence-based general composition; the class-group laws (identity,
    inverses, associativity) are checked against an ideal-arithmetic oracle
    in the test suite.
    """
    _check_form(f)
    _check_form(g)
    if f.discriminant() != g.discriminant():
        raise ValueError("cannot compose forms of different discriminants")
    a1, b1, c1 = f.a, f.b, f.c
    a2, b2, c2 = g.a, g.b, g.c
    s = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = math.gcd(math.gcd(a1, a2), s)
    sw, tw, uw = a1 // w, a2 // w, s // w
    k0, step = _solve_linear_mod(tw * uw, h * uw + sw * c1, sw * tw)
    n0, _ = _solve_linear_mod(tw * step, h - tw * k0, sw)
    k = k0 + step * n0
    m = (tw * uw * k - h * uw - sw * c1) // (sw * tw)
    l = (tw * k - h) // sw
    a3 = sw * tw
    b3 = w * uw - (k * tw + l * sw)
    c3 = k * l - w * m
    return reduce_form(QuadForm(a3, b3, c3))


def principal_form(D: int) -> QuadForm:
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"invalid negative discriminant {D}")
    k = D % 2
    return QuadForm(1, k, (k * k - D) // 4)


def p_ideal_class(disc: Discriminant) -> QuadForm:
    """Reduced form of the class of the ramified ideal (p, sqrt(D))."""
    p, ell = disc.p, disc.ell
    if disc.shape == "-pl":
        return reduce_form(QuadForm(p, p, (p + ell) // 4))
    return reduce_form(QuadForm(p, 0, ell))


def reduce_form(f: QuadForm) -> QuadForm:
    """The unique reduced form properly equivalent to f (Gauss reduction)."""
    _check_form(f)
    return _reduced(*f)


def is_reduced(form: QuadForm) -> bool:
    a, b, c = form.a, form.b, form.c
    if not (abs(b) <= a <= c):
        return False
    if (abs(b) == a or a == c) and b < 0:
        return False
    return True


# --- class polynomials modulo primes that split in K ------------------------
# The roots of P_D generate the subfield of the ring class field of O_D fixed
# by the class of the ramified p-ideal.  So for a prime q = N(Q) prime to D,
# P_D mod q splits into distinct linear factors iff the class of Q is 1 or
# that class (Sutherland, Math. Comp. 80, 2011; Enge and Sutherland, ANTS IX,
# 2010).


def _principal_primes(D: int, count: int, above: int) -> list[int]:
    """The first ``count`` primes q > above of the form (t^2 - v^2 D) / 4,
    t = v D mod 2, v = 1 or 2: norms of (t + v sqrt(D)) / 2 in O_D, so the
    principal form of D represents them."""
    primes = []
    for t in itertools.count():
        for v in (1, 2):
            q = (t * t - v * v * D) // 4
            if (t - v * D) % 2 == 0 and q > above and q not in primes and is_prime(q):
                primes.append(q)
                if len(primes) == count:
                    return primes


def _nonsplit_primes(disc: Discriminant, count: int, above: int) -> list[int]:
    """The first ``count`` primes q > above, prime to D, that a form of
    discriminant D outside the principal class and the p-ideal class
    represents: b^2 = D mod 4q, found by scanning, gives (q, b, c)."""
    D = disc.D
    split = {principal_form(D), p_ideal_class(disc)}
    primes, q = [], above
    while len(primes) < count:
        q += 1
        if not is_prime(q) or D % q == 0:
            continue
        b = next((b for b in range(2 * q) if (b * b - D) % (4 * q) == 0), None)
        if b is not None and reduce_form(QuadForm(q, b, (b * b - D) // (4 * q))) not in split:
            primes.append(q)
    return primes


def splits_by_class(coeffs, disc: Discriminant, count: int) -> bool:
    """Whether the monic f of discriminant ``disc`` splits completely modulo
    the first ``count`` primes q > 2p of the principal class, and modulo none
    of the first ``count`` of the classes outside the principal and the
    p-ideal class, as P_D does."""
    above = 2 * disc.p
    return (all(splits_completely(coeffs, q) for q in _principal_primes(disc.D, count, above))
            and not any(splits_completely(coeffs, q)
                        for q in _nonsplit_primes(disc, count, above)))


def splits_completely(coeffs, q: int) -> bool:
    """Whether the monic integer polynomial f splits into distinct linear
    factors modulo q, that is, whether X^q = X modulo (f, q).

    Each product is one integer multiplication (Kronecker substitution,
    ``slot`` bits a coefficient), reduced modulo f by the packed rows
    X^k mod f, d <= k < 2d.
    """
    f = [c % q for c in coeffs]
    d = len(f) - 1
    slot = 2 * q.bit_length() + d.bit_length() + 2
    mask, low = (1 << slot) - 1, (1 << slot * d) - 1

    def pack(a):
        return sum(c << slot * i for i, c in enumerate(a))

    def unpack(n):
        return [(n >> slot * i & mask) % q for i in range(d)]

    row, rows = [-c % q for c in f[:d]], []  # X^d mod f
    for _ in range(d):
        rows.append(pack(row))
        row = [(lo - row[-1] * c) % q for lo, c in zip([0] + row[:-1], f)]

    def reduce(n):
        tops = unpack(n >> slot * d)
        return pack(unpack((n & low) + sum(c * r for c, r in zip(tops, rows))))

    x = power = reduce(1 << slot)
    for bit in bin(q)[3:]:
        power = reduce(power * power)
        if bit == "1":
            power = reduce(power << slot)
    return power == x


# --- naive factorization over F_q -------------------------------------------


def _fq_divmod(f, g, q):
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, q)
    quot = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        factor = f[-1] * inv % q
        quot[shift] = factor
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - factor * b) % q
        while f and f[-1] == 0:
            f.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return tuple(quot), tuple(f)


def _trim(f):
    """f without its zero leading coefficients, as a tuple."""
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def fq_mul(factors, q: int) -> tuple[int, ...]:
    """The product over F_q of coefficient tuples, by schoolbook
    multiplication, reduced into [0, q) and trimmed."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] = (prod[i + j] + a * b) % q
        out = prod
    return _trim(out)


def fq_eval(coeffs, q: int, x: int) -> int:
    """f(x) in F_q, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _monic_polys_of_degree(d, q):
    from itertools import product

    for low in product(range(q), repeat=d):
        yield low + (1,)


def factor_fq_brute(coeffs, q):
    """Monic irreducible factorization over F_q by trial division.

    Returns a multiplicity dict {coeff tuple: exponent}.  Only usable for
    small q and degree.
    """
    f = tuple(c % q for c in coeffs)
    assert f and f[-1] == 1, "expected monic input"
    out = {}
    d = 1
    while len(f) - 1 >= 2 * d:
        for g in _monic_polys_of_degree(d, q):
            quot, rem = _fq_divmod(f, g, q)
            while not rem and len(f) > 1:
                out[g] = out.get(g, 0) + 1
                f = quot
                if len(f) - 1 < d:
                    break
                quot, rem = _fq_divmod(f, g, q)
        d += 1
    if len(f) > 1:
        out[f] = out.get(f, 0) + 1
    return out


# --- squarefree decomposition over F_q (Yun) ---------------------------------
#
# The reference for the library's square test, which takes a square root by
# coefficient matching instead.


def _monic(f, q):
    if not f:
        return f
    inv = pow(f[-1], -1, q)
    return tuple(c * inv % q for c in f)


def _gcd(f, g, q):
    while g:
        _, r = _fq_divmod(f, g, q)
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


def squarefree_decomposition(coeffs, q: int) -> list[tuple[tuple[int, ...], int]]:
    """f = prod g_i^(e_i) over F_q with the g_i squarefree, monic, pairwise
    coprime, as (g_i, e_i) with g_i a coefficient tuple.

    Char-q variant of Yun's algorithm: the part of f whose multiplicities are
    divisible by q has vanishing derivative and is peeled off through a q-th
    root before recursing.
    """
    f = _trim(c % q for c in coeffs)
    if not f:
        raise ValueError("cannot decompose the zero polynomial")
    out: dict[tuple[int, ...], int] = {}
    _sqf_into(_monic(f, q), q, 1, out)
    return sorted(out.items(), key=lambda kv: (kv[1], len(kv[0]), kv[0]))


def _sqf_into(f, q, scale, out):
    if len(f) == 1:
        return
    df = _diff(f, q)
    if not df:
        _sqf_into(_qth_root(f, q), q, scale * q, out)
        return
    g = _gcd(f, df, q)
    w, _ = _fq_divmod(f, g, q)
    i = 1
    while len(w) > 1:
        y = _gcd(w, g, q)
        z, _ = _fq_divmod(w, y, q)
        if len(z) > 1:
            key = z
            out[key] = out.get(key, 0) + i * scale
        g, _ = _fq_divmod(g, y, q)
        w = y
        i += 1
    if len(g) > 1:
        _sqf_into(_qth_root(g, q), q, scale * q, out)


# --- exact Laurent q-expansions of the Hauptmoduls --------------------------
#
# Series are pairs (val, coeffs) meaning sum coeffs[i] * q^(val + i) with
# Fraction coefficients, computed without any floating point; an independent
# route to the Hauptmodul normalizations.

from fractions import Fraction


def _ser_mul(f, g, terms):
    fv, fc = f
    gv, gc = g
    out = [Fraction(0)] * terms
    for i, a in enumerate(fc[:terms]):
        if not a:
            continue
        for j, b in enumerate(gc[: terms - i]):
            out[i + j] += a * b
    return fv + gv, out


def _ser_div(f, g, terms):
    fv, fc = f
    gv, gc = g
    lead = next(i for i, c in enumerate(gc) if c)
    gv += lead
    gc = gc[lead:]
    out = [Fraction(0)] * terms
    fc = list(fc[:terms]) + [Fraction(0)] * max(0, terms - len(fc))
    for i in range(terms):
        acc = fc[i]
        for j in range(1, i + 1):
            if j < len(gc):
                acc -= gc[j] * out[i - j]
        out[i] = acc / gc[0]
    return fv - gv, out


def _ser_add(f, g, terms):
    fv, fc = f
    gv, gc = g
    val = min(fv, gv)
    out = [Fraction(0)] * terms
    for i, a in enumerate(fc):
        if fv - val + i < terms:
            out[fv - val + i] += a
    for i, b in enumerate(gc):
        if gv - val + i < terms:
            out[gv - val + i] += b
    return val, out


def _ser_pow(f, e, terms):
    out = (0, [Fraction(1)] + [Fraction(0)] * (terms - 1))
    for _ in range(e):
        out = _ser_mul(out, f, terms)
    return out


def dedekind_product_series(scale, terms):
    """prod (1 - q^(scale n)) as a series; the eta prefactor is tracked
    separately through 24*valuation bookkeeping by the callers."""
    coeffs = [Fraction(0)] * terms
    coeffs[0] = Fraction(1)
    k = 1
    while True:  # pentagonal numbers g = k(3k -+ 1)/2, sign (-1)^k
        hit = False
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if scale * g < terms:
                coeffs[scale * g] += Fraction((-1) ** k)
                hit = True
        if not hit:
            return 0, coeffs
        k += 1


def theta_coeff_series(a, b, c, terms):
    counts = [Fraction(0)] * terms
    counts[0] = Fraction(1)
    x = 1
    while a * x * x < terms:
        counts[a * x * x] += 2
        x += 1
    disc = 4 * a * c - b * b
    ymax = math.isqrt(4 * a * (terms - 1) // disc)
    for y in range(1, ymax + 1):
        w = math.isqrt(4 * a * (terms - 1) - disc * y * y)
        for x in range(-((b * y + w) // (2 * a)), (w - b * y) // (2 * a) + 1):
            n = a * x * x + b * x * y + c * y * y
            if n < terms:
                counts[n] += 2
    return 0, counts


def theta_star_series(terms):
    """Signed series in u = q^(1/2) with exponents m^2 + m n + 5 n^2, m+n odd."""
    counts = [Fraction(0)] * terms
    m = 1
    while m * m < terms:
        counts[m * m] += 2 * (-1 if m % 2 else 1)
        m += 2
    ymax = math.isqrt(4 * (terms - 1) // 19)
    for n in range(1, ymax + 1):
        w = math.isqrt(4 * (terms - 1) - 19 * n * n)
        for m in range(-((n + w) // 2), (w - n) // 2 + 1):
            if (m + n) % 2 == 0:
                continue
            k = m * m + m * n + 5 * n * n
            if k < terms:
                counts[k] += 2 * (-1 if m % 2 else 1)
    return 0, counts


def hauptmodul_q_expansion(p, terms=16):
    """Exact q-expansion (valuation, Fraction coefficients) of j_p.

    Eta-quotient levels: j_p0 = q^-1 (P(q)/P(q^p))^(24/(p-1)) with
    P = prod(1 - q^n); the eta prefactors contribute exactly q^-1.
    """
    n = terms + 2
    if p in (3, 5, 7, 13):
        e = 24 // (p - 1)
        quot = _ser_div(dedekind_product_series(1, n), dedekind_product_series(p, n), n)
        j0 = _ser_pow(quot, e, n)
        j0 = (j0[0] - 1, j0[1])  # q^(e (1 - p)/24) = q^-1
        const = (0, [Fraction(p ** (12 // (p - 1)))] + [Fraction(0)] * (n - 1))
        return _ser_add(j0, _ser_div(const, j0, n), n)
    if p == 11:
        num = theta_coeff_series(1, 1, 3, n)
        den = _ser_mul(dedekind_product_series(1, n), dedekind_product_series(11, n), n)
        quot = _ser_div(num, den, n)
        sq = _ser_mul(quot, quot, n)
        return (sq[0] - 1, sq[1])  # the eta pair contributes q^(12/24) each factor
    if p == 19:
        # work in u = q^(1/2): theta contributes u^(2n), theta* odd powers
        m = 2 * n
        _, tc = theta_coeff_series(1, 1, 5, n)
        theta_u = [Fraction(0)] * m
        for i, c in enumerate(tc):
            theta_u[2 * i] = c
        quot = _ser_div((0, theta_u), theta_star_series(m), m)
        sq = _ser_mul(quot, quot, m)
        val, coeffs = _ser_mul(sq, (0, [Fraction(4)] + [Fraction(0)] * (m - 1)), m)
        # the square lives in u^2 = q: odd u-powers must vanish
        assert all(c == 0 for i, c in enumerate(coeffs) if (val + i) % 2 == 1)
        out = [c for i, c in enumerate(coeffs) if (val + i) % 2 == 0]
        return val // 2, out
    if p == 23:
        a = theta_coeff_series(1, 1, 6, n)
        b = theta_coeff_series(2, 1, 3, n)
        minus = (0, [Fraction(-1)] + [Fraction(0)] * (n - 1))
        three = (0, [Fraction(3)] + [Fraction(0)] * (n - 1))
        num = _ser_add(_ser_mul(three, b, n), _ser_mul(minus, a, n), n)
        den = _ser_add(a, _ser_mul(minus, b, n), n)
        return _ser_div(num, den, n)
    raise ValueError(p)


# --- j(tau) and j(p tau) over Z[j_p] -----------------------------------------
#
# w_p swaps j(tau) and j(p tau), so their sum S and their product N are
# polynomials in j_p, of degrees p and p + 1.  Every series below carries the
# same number of coefficients from its valuation, each of them exact.


def _integral(coeffs) -> tuple[int, ...]:
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError(f"not an integer series: {coeffs}")
    return tuple(int(c) for c in coeffs)


def j_q_expansion(terms: int):
    """j = E_4^3 / Delta = q^-1 + 744 + 196884 q + ..., with ``terms``
    coefficients from q^-1 on."""
    e4 = (0, [Fraction(1)] + [Fraction(240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0))
                             for n in range(1, terms)])
    delta = _ser_pow(dedekind_product_series(1, terms), 24, terms)
    val, coeffs = _ser_div(_ser_pow(e4, 3, terms), delta, terms)
    return val - 1, coeffs


def _as_polynomial(f, x, degree: int, terms: int) -> tuple[int, ...]:
    """The integers c_k with f = sum c_k x^k on all ``terms`` coefficients of f,
    for x = q^-1 + O(1) and f of valuation -degree."""
    powers = [(0, [Fraction(1)] + [Fraction(0)] * (terms - 1))]
    for _ in range(degree):
        powers.append(_ser_mul(powers[-1], x, terms))
    coeffs = [Fraction(0)] * (degree + 1)
    for k in range(degree, -1, -1):
        val, fc = f
        coeffs[k] = fc[-k - val]
        f = _ser_add(f, (-k, [-coeffs[k] * c for c in powers[k][1]]), terms)
    if any(f[1]):
        raise ArithmeticError(f"no polynomial of degree {degree} through q^{f[0] + terms - 1}")
    return _integral(coeffs)


def jp_pair_polynomials(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(S, N), ascending integer coefficients of degrees p and p + 1, with
    j(tau) + j(p tau) = S(j_p) and j(tau) j(p tau) = N(j_p), read off the
    exact q-expansions and checked through q^(p+8).

    Each series keeps 2p + 10 coefficients from its valuation: j and j_p
    reach q^(2p+8), and j_p^(p+1) and j(tau) j(p tau) reach q^(p+8).
    j(p tau) is j's series spread out to every p-th power."""
    terms = 2 * p + 10
    jp = hauptmodul_q_expansion(p, terms=terms)
    if jp[0] != -1 or jp[1][0] != 1:
        raise ArithmeticError(f"j_p at p = {p} is not q^-1 + O(1)")
    j = j_q_expansion(terms)
    j_of_p_tau = (-p, [j[1][i // p] if i % p == 0 else Fraction(0) for i in range(terms)])
    S = _as_polynomial(_ser_add(j, j_of_p_tau, terms), jp, p, terms)
    N = _as_polynomial(_ser_mul(j, j_of_p_tau, terms), jp, p + 1, terms)
    return S, N


# --- the Hauptmoduls in plain floating point ----------------------------------
#
# mpc values of eta, theta, theta* and j_p at an mpc tau, with no error bound.
# Each series is summed in fixed point from the exact coefficient lists
# above, far past the precision asked for; j_p and j_p0 first move tau up its
# Gamma_0(p)+ orbit in floating point (``reduce_tau``) unless told not to, and
# form the Hauptmodul with the level table's expression.

GUARD_BITS = 32
MIN_IM = 0.05


def _theta_kind(a: int, b: int, c: int):
    if a <= 0 or 4 * a * c - b * b <= 0:
        raise ValueError(f"theta exponent form ({a}, {b}, {c}) must be positive definite")
    return ("theta", a, b, c)


def _require_upper(tau, min_im=MIN_IM):
    if mpmath.im(tau) <= 0:
        raise ValueError("tau must lie in the upper half plane")
    if mpmath.im(tau) < min_im:
        raise ValueError(
            f"Im(tau) = {float(mpmath.im(tau)):.4g} below evaluation cutoff {min_im}"
        )


def _reduced_min_im(p: int) -> float:
    # reduced points of Gamma_0(p)+ sit at Im(tau) >= sqrt(3)/(2p); allow a
    # margin below that
    return min(MIN_IM, 0.8 * math.sqrt(3) / (2 * p))


@functools.lru_cache(maxsize=None)
def _series_terms(kind, size: int):
    """The nonzero (n, c) of a series kind for n < size, n ascending: the
    pentagonal sum E(q) for ETA, theta*(tau) q^(-1/2) for THETA_STAR, and the
    theta series of a form otherwise."""
    if kind == ETA:
        _, coeffs = dedekind_product_series(1, size)
    elif kind == THETA_STAR:
        _, coeffs = theta_star_series(2 * size)
        coeffs = coeffs[1::2]  # u^(2n + 1) = u q^n
    else:
        _, coeffs = theta_coeff_series(*kind[1:], size)
    return tuple((n, int(c)) for n, c in enumerate(coeffs) if c)


def series_per_term(q, q_err: int, prefixes, prec: int):
    """The sums of one point's series with the error of each power counted
    along the products that built it: the reference for the closed-form
    count of ``hauptmodul._Powers``.

    ``prefixes`` are the library's term prefixes (terms, count, weight) of
    ``hauptmodul._terms`` in the order the point's series ask for them.  The
    powers are shared and built as the library builds them: a power a series
    lacks is the previous term's power times the power of the gap, or that
    gap's power alone after q^0, and a missing gap g is q^(g // 2)
    q^(g - g // 2).  A product of two values with errors e, f is within
    e + f + 2 units while both are under 2^(prec/2 - 1), and an operand past
    that raises.  Returns (re, im, err) per prefix: the fixed-point sum of
    c q^n over its terms and the sum of |c| times the count of each power.
    """
    powers = {0: ((1 << prec, 0), 0), 1: (q, q_err)}

    def product(x, y):
        ((xr, xi), ex), ((yr, yi), ey) = x, y
        if max(ex, ey) >= 1 << (prec // 2 - 1):
            raise ArithmeticError("fixed-point error count outgrew its bound")
        return ((xr * yr - xi * yi) >> prec, (xr * yi + xi * yr) >> prec), ex + ey + 2

    def power(e):
        if e not in powers:
            powers[e] = product(power(e // 2), power(e - e // 2))
        return powers[e]

    sums = []
    for terms, count, _ in prefixes:
        re = im = err = last = 0
        for e, c in terms[:count]:
            if e not in powers:
                powers[e] = product(powers[last], power(e - last)) if last else power(e)
            (x, y), errors = powers[e]
            re, im, err, last = re + c * x, im + c * y, err + abs(c) * errors, e
        sums.append((re, im, err))
    return sums


def exp_reference(z: Ball) -> Ball:
    """The library's exp with each Taylor term floored by m 2^wp in one
    division and the term count found from factorials on every call: the
    reference for ``hauptmodul._exp``, which floors by 2^wp, then by m, and
    looks the count up per precision.  See ``_exp`` for the error count.
    """
    k = max(0, (abs(z.re) + abs(z.im) + z.rad).bit_length() + 8 - z.prec)
    wp = z.prec + k
    n, factorial = 1, 1
    while factorial << (8 * n) < 1 << (wp + 1):
        n += 1
        factorial *= n
    sr, si = z.re, z.im
    re = tr = 1 << wp
    im = ti = 0
    for m in range(1, n):
        unit = m << wp
        tr, ti = (tr * sr - ti * si) // unit, (tr * si + ti * sr) // unit
        re += tr
        im += ti
    err = 2 * n - 1
    err += -(-(abs(re) + abs(im) + err) * z.rad // ((1 << wp) - z.rad))
    for _ in range(k):
        size = abs(re) + abs(im)
        re, im, err = ((re * re - im * im) >> wp, (2 * re * im) >> wp,
                       -(-(2 * size + err) * err >> wp) + 2)
    return Ball(re, im, err, wp).round_to(z.prec)


def _mpc_values(tau, bits: int, min_im: float):
    """(value, q) for an mpc tau: value(kind, scale) is a series at q^scale."""
    _require_upper(tau, min_im)
    prec = bits + 2 * GUARD_BITS
    with mpmath.workprec(prec):
        q = mpmath.expjpi(2 * mpc(tau))
    im_tau = float(mpmath.im(tau))

    def value(kind, scale=1):
        # |q|^(scale n) < 2^-(prec + 64) past nmax, and the coefficient of
        # q^n is O(n), so the dropped tail is far below 2^-prec
        nmax = math.ceil((prec + 64) * math.log(2) / (2 * math.pi * scale * im_tau))
        with mpmath.workprec(prec):
            x = q**scale
        xr, xi = to_fixed(mpmath.re(x)._mpf_, prec), to_fixed(mpmath.im(x)._mpf_, prec)
        re = im = last = 0
        pr, pi = 1 << prec, 0
        for n, c in _series_terms(kind, 1 << nmax.bit_length()):
            if n > nmax:
                break
            for _ in range(n - last):
                pr, pi = (pr * xr - pi * xi) >> prec, (pr * xi + pi * xr) >> prec
            last = n
            re, im = re + c * pr, im + c * pi
        return mpc(mpmath.ldexp(re, -prec), mpmath.ldexp(im, -prec))

    return value, q


def eta(tau, bits: int, min_im: float = MIN_IM):
    """Dedekind eta via the pentagonal-number series."""
    with mpmath.workprec(bits + GUARD_BITS):
        value, _ = _mpc_values(tau, bits, min_im)
        return mpmath.expjpi(mpc(tau) / 12) * value(ETA)


def theta(a: int, b: int, c: int, tau, bits: int, min_im: float = MIN_IM):
    """Lattice sum of q^(a x^2 + b x y + c y^2) over x, y in Z."""
    kind = _theta_kind(a, b, c)
    with mpmath.workprec(bits + GUARD_BITS):
        value, _ = _mpc_values(tau, bits, min_im)
        return value(kind)


def theta_star(tau, bits: int, min_im: float = MIN_IM):
    """Signed sum of (-1)^m q^((m^2 + m n + 5 n^2)/2) over m + n odd."""
    with mpmath.workprec(bits + GUARD_BITS):
        value, _ = _mpc_values(tau, bits, min_im)
        return mpmath.expjpi(mpc(tau)) * value(THETA_STAR)


def j_p0(tau, p: int, bits: int, reduce: bool = True):
    """Eta-quotient Hauptmodul of X_0(p) at the genus-0 levels."""
    t0 = level(p).hauptmodul
    if not isinstance(t0, EtaQuotient):
        raise ValueError(f"j_p0 is defined at the genus-0 levels, not at p = {p}")
    with mpmath.workprec(bits + GUARD_BITS):
        tau = mpc(tau)
        parity = 0
        floor = MIN_IM
        if reduce:
            tau, parity = reduce_tau(tau, p, bits)
            floor = _reduced_min_im(p)
        value, q = _mpc_values(tau, bits, floor)
        u = t0.t(value, 1 / q)
        return t0.w / u if parity else u


def j_p(tau, p: int, bits: int, reduce: bool = True):
    """Hauptmodul of X_0*(p), invariant under Gamma_0(p) and tau -> -1/(p tau)."""
    hauptmodul = level(p).hauptmodul
    with mpmath.workprec(bits + GUARD_BITS):
        tau = mpc(tau)
        floor = MIN_IM
        if reduce:
            tau, _ = reduce_tau(tau, p, bits)
            floor = _reduced_min_im(p)
        value, q = _mpc_values(tau, bits, floor)
        return hauptmodul(value, 1 / q)


def torsion_to_tau(tau_E, k: int | None, p: int, bits: int | None = None):
    """Modular coordinate of (C/<1, tau_E>, kernel) under z <-> (C/<1,z>, <1/p>).

    ``k = None`` selects the kernel <1/p>, giving z = tau_E; an integer
    0 <= k < p selects <(tau_E + k)/p>, giving z = -1/(tau_E + k).  The
    division runs at ``bits`` precision when given, else at the ambient one.
    """
    with mpmath.workprec((bits + GUARD_BITS) if bits else mpmath.mp.prec):
        tau_E = mpc(tau_E)
        if mpmath.im(tau_E) <= 0:
            raise ValueError("tau_E must lie in the upper half plane")
        if k is None:
            return tau_E
        if not 0 <= k < p:
            raise ValueError(f"torsion index k = {k} out of range for p = {p}")
        return -1 / (tau_E + k)


def _bezout(x: int, y: int) -> tuple[int, int]:
    """(s, t) with s x + t y = 1 for coprime x, y."""
    g, s, t = _xgcd(x, y)
    return (s, t) if g == 1 else (-s, -t)


def reduce_tau(tau, p: int, bits: int):
    """Move tau to the highest point of its Gamma_0(p)+ orbit: (tau', parity).

    A move with lower row (c, d) (times p for an Atkin-Lehner move) sends
    Im(tau) to Im(tau) / |c tau + d|^2 when p | c and to
    Im(tau) / (p |c tau + d|^2) otherwise, and |c tau + d| >= c Im(tau), so a
    scan over c, with d nearest to -c Re(tau), finds the highest point; a
    translation then brings Re(tau) into [-1/2, 1/2].  parity is 1 when the
    move is an Atkin-Lehner one.
    """
    with mpmath.workprec(bits + GUARD_BITS):
        tau = mpc(tau)
        if mpmath.im(tau) <= 0:
            raise ValueError("tau must lie in the upper half plane")
        tau -= int(mpmath.nint(mpmath.re(tau)))
        x, t = float(mpmath.re(tau)), float(mpmath.im(tau))
        best, move = 1 - 2.0**-20, None
        for c in chain(range(1, int(1 / (t * math.sqrt(p))) + 1), range(p, int(1 / t) + 1, p)):
            d = round(-c * x)
            height = ((c * x + d) ** 2 + (c * t) ** 2) * (1 if c % p == 0 else p)
            if height < best and math.gcd(c, d) == 1:
                best, move = height, (c, d)
        if move is None:
            return tau, 0
        c, d = move
        if c % p == 0:
            s, t = _bezout(c, d)
            A, B, C, E = t, -s, c, d
        else:
            s, t = _bezout(p * d, c)  # the Atkin-Lehner matrix of determinant p
            A, B, C, E = p * s, -t, p * c, p * d
        tau = (A * tau + B) / (C * tau + E)
        return tau - int(mpmath.nint(mpmath.re(tau))), int(c % p != 0)


def tau_from_form(form: QuadForm, bits: int):
    """CM point (-b + i sqrt(|D|)) / (2a) of a positive definite form."""
    with mpmath.workprec(bits + GUARD_BITS):
        D = form.discriminant()
        if D >= 0:
            raise ValueError("form must be positive definite")
        return (mpf(-form.b) + mpmath.sqrt(mpf(-D)) * 1j) / (2 * form.a)


def arc_point(p: int, re, bits: int):
    """The point of the arc |tau| = 1/sqrt(p) with given real part."""
    with mpmath.workprec(bits + GUARD_BITS):
        re = mpf(re)
        im2 = mpf(1) / p - re * re
        if im2 <= 0:
            raise ValueError("real part outside the circle of radius 1/sqrt(p)")
        return re + mpmath.sqrt(im2) * 1j


# --- class polynomials and j from plain floating point -----------------------


def classical_j(tau, bits):
    """E4(tau)^3 / Delta(tau), with E4 = 1 + 240 sum sigma_3(n) q^n and
    Delta = q prod (1 - q^n)^24, summed to |q|^n < 2^-(bits + 32)."""
    with mpmath.workprec(bits + 32):
        tau = mpmath.mpc(tau)
        if mpmath.im(tau) <= 0:
            raise ValueError("tau must lie in the upper half plane")
        q = mpmath.expjpi(2 * tau)
        nmax = int((bits + 32) * math.log(2) / (2 * math.pi * float(mpmath.im(tau)))) + 1
        e4 = mpmath.mpc(1)
        product = mpmath.mpc(1)
        qn = mpmath.mpc(1)
        for n in range(1, nmax + 1):
            qn *= q
            e4 += 240 * sum(d**3 for d in range(1, n + 1) if n % d == 0) * qn
            product *= 1 - qn
        return e4**3 / (q * product**24)


def poly_from_json(text: str) -> ClassPolynomial:
    data = json.loads(text)
    D = data["D"]
    if isinstance(D, list):
        D = tuple(D)
    return ClassPolynomial(
        p=data["p"],
        D=D,
        coefficients=tuple(int(c) for c in data["coefficients"]),
    )


def int_poly_sqrt(coeffs):
    """G with G^2 = F for monic integer F of even degree, or None."""
    n = len(coeffs) - 1
    if n % 2 or coeffs[-1] != 1:
        return None
    m = n // 2
    g = [0] * (m + 1)
    g[m] = 1
    for k in range(1, m + 1):
        # coefficient of X^(2m - k) in G^2 equals coeffs[2m - k]
        acc = 0
        for i in range(m - k + 1, m):
            j = 2 * m - k - i
            if m - k < j <= m:
                acc += g[i] * g[j]
        num = coeffs[2 * m - k] - acc
        if num % 2:
            return None
        g[m - k] = num // 2
    square = [0] * (n + 1)
    for i in range(m + 1):
        for j in range(m + 1):
            square[i + j] += g[i] * g[j]
    if square != list(coeffs):
        return None
    return tuple(g)


def build_PD_via_square_root(D, p, bits=None, max_bits=1 << 17):
    """P_D from the full h-class product of mpc values j_p(tau), then an exact
    integer square root; the precision doubles until the residual of the
    rounding is below 2^-20 and the square root exists.  The starting
    precision bounds the bits of the coefficients, C(n, k) prod max(1, |r|)
    < 2^n prod max(1, |r|) for n roots r, with |r| ~ exp(2 pi Im tau) at the
    top of the orbit, where ``reduce_tau`` moves tau."""
    disc = Discriminant.from_D(D, p)
    reps = [heegner_rep(f, disc.p) for f in enumerate_classes(disc.D)]
    taus = [reduce_tau(tau_from_form(rep, 53), disc.p, 53)[0] for rep in reps]
    height = sum(2 * math.pi * float(mpmath.im(tau)) / math.log(2) for tau in taus)
    work = bits if bits is not None else 64 + len(reps) + int(height)
    while work <= max_bits:
        with mpmath.workprec(work + 32):
            coeffs = [mpmath.mpc(1)]
            for rep in reps:
                r = j_p(tau_from_form(rep, work), disc.p, work)
                coeffs = [mpmath.mpc(0)] + coeffs
                for k in range(len(coeffs) - 1):
                    coeffs[k] -= r * coeffs[k + 1]
            ints = [int(mpmath.nint(mpmath.re(c))) for c in coeffs]
            residual = max(max(abs(mpmath.im(c)), abs(mpmath.re(c) - n))
                           for c, n in zip(coeffs, ints))
            if residual < 2.0**-20:
                root = int_poly_sqrt(ints)
                if root is not None:
                    return ClassPolynomial(disc.p, disc.D, root)
        work *= 2
    raise PrecisionExhaustedError(f"square-root route failed for D = {disc.D}")


# --- miscellaneous ----------------------------------------------------------


def t2_degree_check(p: int, ell: int) -> bool:
    """deg P_{-4pl} = (3 - eps) deg P_{-pl}, i.e. h(-4pl) = (3-eps) h(-pl)."""
    if (p * ell) % 4 != 3:
        raise ValueError("requires p*l = 3 mod 4")
    eps = epsilon_split(-p * ell)
    return class_number(-4 * p * ell) == (3 - eps) * class_number(-p * ell)


def brandt_table(p: int) -> tuple[tuple[int, ...], ...]:
    matrix = level(p).brandt
    if matrix is None:
        raise ValueError(f"no Brandt data for p = {p}")
    return matrix


def column_sums(matrix) -> tuple[int, ...]:
    return tuple(map(sum, zip(*matrix)))


def _j30_minpoly_norm(h: Fraction, poly_low: Fraction, poly_lin: Fraction) -> Fraction:
    """Norm of lin*t + low over Q[t]/(t^2 - h t + 729)."""
    return poly_lin * poly_lin * 729 + poly_lin * poly_low * h + poly_low * poly_low


def norm_square_check(h) -> tuple[Fraction, bool]:
    """N(j - 1728) for the curve pair with level-3 invariant h; perfect square?

    Requires a non-real lift: the two values of the eta quotient are the
    roots of t^2 - h t + 729, complex exactly when h^2 < 4*729.
    """
    h = Fraction(h)
    if h * h >= 2916:
        raise ValueError(
            f"h = {h} has real eta-quotient values (h^2 >= 2916): real case not handled"
        )
    # reduce t^2 - 486 t - 19683 modulo t^2 - h t + 729: (h - 486) t - 20412
    num_norm = _j30_minpoly_norm(h, Fraction(-20412), h - 486)
    norm = num_norm * num_norm / Fraction(729) ** 3
    return norm, is_square(norm.numerator) and is_square(norm.denominator)


def pell_fundamental_by_scan(p, dmax=1000):
    """Smallest unit c + d*sqrt(p) > 1 by brute-force scan over d."""
    for d in range(1, dmax):
        for sign in (1, -1):
            c2 = p * d * d + sign
            c = math.isqrt(c2)
            if c * c == c2:
                return c, d
    raise AssertionError("no unit found in scan range")


# --- the Pell data, the arc S and the genus forms -----------------------------


@dataclass(frozen=True)
class PellData:
    """Fundamental unit c + d*sqrt(p) and norm-equation solutions A^2 - p*B^2 = l."""

    p: int
    c: int
    d: int
    ell: int | None = None
    solutions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.c * self.c - self.p * self.d * self.d not in (1, -1):
            raise ValueError("(c, d) is not a unit")
        if self.c % 2 or self.d % 2 == 0:
            raise ValueError("expected c even and d odd")
        for A, B in self.solutions:
            if A % 2 == 0 or A * A - self.p * B * B != self.ell:
                raise ValueError(f"({A}, {B}) is not an odd-A solution for l = {self.ell}")

    @classmethod
    def for_prime(cls, p: int, ell: int | None = None) -> "PellData":
        c, d = fundamental_unit(p)
        sols = tuple(norm_equation_solutions(p, ell)) if ell is not None else ()
        return cls(p, c, d, ell, sols)


def norm_equation_solutions(p: int, ell: int) -> list[tuple[int, int]]:
    """All (A, B) with A^2 - p*B^2 = l, A odd, 0 <= B/A < d/c.

    The window condition B/A < d/c is equivalent to B < d*sqrt(l), which
    bounds the scan exactly.
    """
    c, d = fundamental_unit(p)
    out = []
    bmax = math.isqrt(d * d * ell - 1) if d * d * ell > 0 else 0
    for B in range(bmax + 1):
        A2 = ell + p * B * B
        A = math.isqrt(A2)
        if A * A == A2 and A % 2 == 1 and B * c < A * d:
            out.append((A, B))
    return out


def bounded_root_form(p: int, ell: int) -> tuple[QuadForm, tuple[int, int]]:
    """Form (pA, 2pB, A) whose CM root is the bounded real root of P_{-4pl}.

    Takes the minimal-B solution of l = A^2 - p*B^2 with A odd and
    0 <= B/A < d/c; the root t = (-B + i*sqrt(pl)/p... ) has |t| = 1/sqrt(p)
    and real part -B/A inside the arc S.
    """
    if not level(p).real_arc:
        raise ValueError(f"bounded root construction requires a real-arc level, not p = {p}")
    sols = norm_equation_solutions(p, ell)
    if not sols:
        raise ArithmeticError(
            f"no representation l = A^2 - {p}*B^2 for l = {ell}; "
            "l does not satisfy the splitting precondition"
        )
    A, B = min(sols, key=lambda s: s[1])
    form = QuadForm(p * A, 2 * p * B, A)
    if form.discriminant() != -4 * p * ell:
        raise ArithmeticError(f"{form} does not have discriminant {-4 * p * ell}")
    return form, (A, B)


def unbounded_root_forms(disc: Discriminant) -> tuple[QuadForm, QuadForm]:
    """The two genus forms carrying the unbounded real root, an AL pair."""
    p, ell = disc.p, disc.ell
    if disc.shape == "-pl":
        f1 = QuadForm(1, 1, (p * ell + 1) // 4)
        f2 = reduce_form(QuadForm(p, p, (p + ell) // 4))
    else:
        f1 = QuadForm(1, 0, p * ell)
        f2 = reduce_form(QuadForm(p, 0, ell))
    return f1, f2


def diophantine_obstruction_check(p: int, ell: int, bound: int = 200) -> bool:
    """True iff p x^2 + l y^2 = z^2 and the odd-shape analogue have no
    nonzero solutions with |x|, |y| <= bound (they never do for admissible
    p = 1 mod 4, l = 3 mod 4 split)."""
    mixed = (p + ell) % 4 == 0
    for x in range(bound + 1):
        for y in range(-bound, bound + 1):
            if x == 0 and y == 0:
                continue
            v = p * x * x + ell * y * y
            r = math.isqrt(v)
            if r * r == v:
                return False
            if mixed:
                v2 = p * x * x + p * x * y + ((p + ell) // 4) * y * y
                if v2 >= 0:
                    r2 = math.isqrt(v2)
                    if r2 * r2 == v2:
                        return False
    return True


@functools.lru_cache(maxsize=None)
def _chi_table(q):
    """chi[v]: 1 for a nonzero square mod q, -1 for a non-square, chi[0] = 0."""
    chi = [-1] * q
    chi[0] = 0
    for x in range(1, q):
        chi[x * x % q] = 1
    return chi


def point_count(q, a, b):
    """#E(F_q) for y^2 = x^3 + a x + b by summing quadratic characters."""
    chi = _chi_table(q)
    return q + 1 + sum(chi[(x * x * x + a * x + b) % q] for x in range(q))


def hasse_coefficient_by_power(q, a, b):
    """Coefficient of x^(q-1) in (x^3 + a x + b)^((q-1)/2) mod q.

    Literal repeated sparse multiplication, truncated at degree q-1; only
    usable for small q.
    """
    m = (q - 1) // 2
    coeffs = [1]
    for _ in range(m):
        n = min(len(coeffs) + 3, q)
        new = [0] * n
        for i, ci in enumerate(coeffs):
            if ci == 0:
                continue
            if i + 3 < n:
                new[i + 3] = (new[i + 3] + ci) % q
            if i + 1 < n:
                new[i + 1] = (new[i + 1] + ci * a) % q
            new[i] = (new[i] + ci * b) % q
        coeffs = new
    return coeffs[q - 1] if len(coeffs) > q - 1 else 0


# --- the Hasse invariant by an O(q) sweep -------------------------------------


def _mul2(x0, x1, y0, y1, q, m):
    return (x0 * y0 + m * x1 * y1) % q, (x0 * y1 + x1 * y0) % q


def hasse_nonzero_by_sweep(q, m2, a0, a1, b0, b1):
    """Whether y^2 = x^3 + a x + b over F_q(t), t^2 = m2, with a = a0 + a1 t
    and b = b0 + b1 t, has nonzero Hasse invariant (is ordinary).

    The invariant is the coefficient of x^(q-1) in f^m, m = (q-1)/2.  From
    f g' = m f' g for g = f^m the coefficients satisfy
    b (n+1) c_(n+1) = (3m - n + 2) c_(n-2) + a (m - n) c_n; substituting
    c_n = b^(m-n) e_n / n! removes the division, so the coefficient vanishes
    iff e_(q-1) = 0 after one sweep.  Curves with a b = 0 (j = 0 or 1728)
    reduce to a binomial-coefficient criterion instead.
    """
    a0, a1, b0, b1, m2 = a0 % q, a1 % q, b0 % q, b1 % q, m2 % q
    if (a0, a1) == (0, 0) and (b0, b1) == (0, 0):
        raise ValueError("singular curve")
    mm = (q - 1) // 2
    if (b0, b1) == (0, 0):
        return mm % 2 == 0
    if (a0, a1) == (0, 0):
        return (q - 1) % 3 == 0
    c20, c21 = _mul2(b0, b1, b0, b1, q, m2)
    e2, e1, e0 = (0, 0), (0, 0), (1, 0)
    for n in range(q - 1):
        c1 = (3 * mm - n + 2) % q * (n * (n - 1) % q) % q
        t0, t1 = _mul2(c20, c21, e2[0], e2[1], q, m2)
        s = (mm - n) % q
        u0, u1 = _mul2(a0, a1, e0[0], e0[1], q, m2)
        e2, e1, e0 = e1, e0, ((c1 * t0 + s * u0) % q, (c1 * t1 + s * u1) % q)
    return e0 != (0, 0)


def curve_from_j(q, m2, j0, j1):
    """(a0, a1, b0, b1) of a curve with invariant j0 + j1 t over F_q(t), t^2 = m2:
    a = 3k, b = 2k with k = j / (1728 - j), or the special curves at j = 0, 1728."""
    if (j0 % q, j1 % q) == (0, 0):
        return 0, 0, 1, 0
    if (j0 - 1728) % q == 0 and j1 % q == 0:
        return 1, 0, 0, 0
    d0, d1 = (1728 - j0) % q, (-j1) % q
    ninv = pow((d0 * d0 - m2 * d1 * d1) % q, -1, q)
    k0, k1 = _mul2(j0, j1, d0 * ninv % q, -d1 * ninv % q, q, m2)
    return 3 * k0 % q, 3 * k1 % q, 2 * k0 % q, 2 * k1 % q


def j_of_curve(q, m2, a0, a1, b0, b1):
    """(j0, j1) of y^2 = x^3 + a x + b over F_q(t), t^2 = m2, with a = a0 + a1 t
    and b = b0 + b1 t: j = 1728 * 4a^3 / (4a^3 + 27b^2), the inverse of
    ``curve_from_j``.  ValueError for a singular curve."""
    aa = _mul2(a0 % q, a1 % q, a0 % q, a1 % q, q, m2)
    a3 = _mul2(*aa, a0 % q, a1 % q, q, m2)
    b2 = _mul2(b0 % q, b1 % q, b0 % q, b1 % q, q, m2)
    d0, d1 = (4 * a3[0] + 27 * b2[0]) % q, (4 * a3[1] + 27 * b2[1]) % q
    if (d0, d1) == (0, 0):
        raise ValueError("singular curve")
    ninv = pow((d0 * d0 - m2 * d1 * d1) % q, -1, q)
    return _mul2(4 * 1728 * a3[0], 4 * 1728 * a3[1], d0 * ninv, -d1 * ninv, q, m2)


def nonresidue(q):
    return next(m for m in range(2, q) if pow(m, (q - 1) // 2, q) == q - 1)


def tonelli_shanks(a, q, m):
    """A square root of 0 <= a < q in F_q, or None for a non-residue, with
    the non-residue m: Euler's criterion first, then a^((q+1)/4) for q = 3
    mod 4, else Tonelli-Shanks (Cohen, GTM 138, Algorithm 1.5.1) with m^d,
    a^d and a^((d+1)/2) each raised on its own, q - 1 = 2^s d, d odd."""
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) == q - 1:
        return None
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    s = ((q - 1) & (1 - q)).bit_length() - 1
    d = (q - 1) >> s
    e, c, t, r = s, pow(m, d, q), pow(a, d, q), pow(a, (d + 1) // 2, q)
    while t != 1:
        t2, i = t * t % q, 1
        while t2 != 1:
            t2 = t2 * t2 % q
            i += 1
        b = pow(c, 1 << (e - i - 1), q)
        e, c = i, b * b % q
        t, r = t * c % q, r * b % q
    return r


def supersingular_mass(q):
    """Number of supersingular j-invariants in characteristic q >= 5:
    floor(q/12) + 0, 1, 1, 2 for q = 1, 5, 7, 11 mod 12."""
    return q // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[q % 12]


def supersingular_js(q, m2):
    """The supersingular j-invariants in F_q(t), t^2 = m2, as pairs (j0, j1),
    by the sweep; their number is the census of F_(q^2)."""
    return {(j0, j1) for j1 in range(q) for j0 in range(q)
            if not hasse_nonzero_by_sweep(q, m2, *curve_from_j(q, m2, j0, j1))}


# --- the level table from the 2-isogeny graph mod p ----------------------------


def _fq2_eval(coeffs, y, q, m2):
    acc = (0, 0)
    for c0, c1 in reversed(coeffs):
        a0, a1 = _mul2(*acc, *y, q, m2)
        acc = (a0 + c0) % q, (a1 + c1) % q
    return acc


def _fq2_multiplicity(coeffs, y, q, m2) -> int:
    """The multiplicity of y as a root of a polynomial over F_q(t) whose
    degree is below q: the number of derivatives that vanish at y."""
    count = 0
    while coeffs and _fq2_eval(coeffs, y, q, m2) == (0, 0):
        count += 1
        coeffs = [(k * c0 % q, k * c1 % q) for k, (c0, c1) in enumerate(coeffs)][1:]
    return count


def isogeny_graph_mod_p(p: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The supersingular j_p residues mod p, ascending, and the Brandt
    matrix B(2) on them, derived from the 2-isogeny graph, for p >= 5.

    By Kronecker's congruence the roots of Y^2 - S(x) Y + N(x) in F_p^2 are
    the curves over the residue x, so x is supersingular when both roots are
    (``supersingular_js``).  Row i of B(2) counts, with multiplicity, the
    roots of Phi_2(j, Y) that lie over each residue, for one root j over
    s_i.  Each root is found by trying every element of F_p^2 = F_p(t),
    t^2 = m2."""
    S, N = jp_pair_polynomials(p)
    m2 = nonresidue(p)
    field = [(y0, y1) for y1 in range(p) for y0 in range(p)]
    over = {}
    for x in range(p):
        quadratic = [(fq_eval(N, p, x), 0), (-fq_eval(S, p, x) % p, 0), (1, 0)]
        over[x] = {y for y in field if _fq2_eval(quadratic, y, p, m2) == (0, 0)}
    supersingular = supersingular_js(p, m2)
    residues = tuple(x for x in range(p) if over[x] <= supersingular)
    matrix = []
    for s in residues:
        j = min(over[s])
        cubic = [_fq2_eval([(c, 0) for c in row], j, p, m2) for row in PHI2]
        row = [0] * len(residues)
        for y in field:
            if count := _fq2_multiplicity(cubic, y, p, m2):
                (k,) = [k for k, r in enumerate(residues) if y in over[r]]
                row[k] += count
        matrix.append(tuple(row))
    return residues, tuple(matrix)


# --- reduction of a quadratic surd, decided by the Kronecker symbol ----------


def reduce_mod_by_kronecker(j, q: int) -> list[tuple[int, int]] | None:
    """The residues of j = (u + v sqrt(m)) / w modulo the odd prime q, as
    ``ssverify._residues`` gives them, or None for bad reduction.

    j is integral above q exactly when its trace t = 2u/w and its norm
    n = (u^2 - m v^2)/w^2 are q-integral, and its residues are then the
    roots of X^2 - t X + n.  The symbol of the discriminant d = t^2 - 4n
    tells them apart: two roots in F_q for a nonzero square d, one for d = 0,
    and for a non-square d one on t F_q, with sqrt(d) = sqrt(d / z) t for
    the non-residue z of the standard F_q^2.  Square roots by scanning F_q, so
    only for small q."""
    trace = Fraction(2 * j.u, j.w)
    norm = Fraction(j.u * j.u - j.m * j.v * j.v, j.w * j.w)
    if trace.denominator % q == 0 or norm.denominator % q == 0:
        return None
    t, n = (x.numerator * pow(x.denominator, -1, q) % q for x in (trace, norm))
    d, half = (t * t - 4 * n) % q, pow(2, -1, q)
    symbol = kronecker(d, q)
    if symbol == 0:
        return [(t * half % q, 0)]
    if symbol == 1:
        s = _sqrt_by_scan(d, q)
        return sorted({((t + s) * half % q, 0), ((t - s) * half % q, 0)})
    x1 = _sqrt_by_scan(d * pow(nonresidue(q), -1, q) % q, q) * half % q
    return [(t * half % q, min(x1, q - x1))]


def _sqrt_by_scan(a: int, q: int) -> int:
    return next(r for r in range(q) if (r * r - a) % q == 0)


# --- real roots of integer polynomials by Sturm sequences over Z ------------


def _int_derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _content(f):
    g = 0
    for c in f:
        g = math.gcd(g, abs(c))
    return g or 1


def _pseudo_rem_signed(a, b):
    """Remainder of a by b scaled by a positive constant (sign-faithful).

    Each elimination step replaces r by lc(b)*r - top*X^s*b, so the result is
    lc(b)^k * rem(a, b); the sign is corrected when lc(b)^k < 0.
    """
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    steps = 0
    while r and len(r) - 1 >= db:
        top = r[-1]
        shift = len(r) - 1 - db
        r = [lead * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= top * bc
        while r and r[-1] == 0:
            r.pop()
        steps += 1
    if lead < 0 and steps % 2:
        r = [-c for c in r]
    return r


def sturm_chain(f):
    """Sturm chain of an integer polynomial, entries scaled by positive ints."""
    f = list(f)
    chain = [f, _int_derivative(f)]
    while len(chain[-1]) > 1:
        r = _pseudo_rem_signed(chain[-2], chain[-1])
        if not r:
            break
        r = [-c for c in r]
        cont = _content(r)
        chain.append([c // cont for c in r])
    return chain


def _sign_at(f, x: Fraction) -> int:
    n = len(f) - 1
    u, v = x.numerator, x.denominator
    acc = 0
    upow = 1
    vpow = v**n
    for c in f:
        acc += c * upow * vpow
        upow *= u
        if vpow != 1:
            vpow //= v
    return (acc > 0) - (acc < 0)


def _sign_at_infinity(f, positive: bool) -> int:
    lead = f[-1]
    if positive or (len(f) - 1) % 2 == 0:
        return (lead > 0) - (lead < 0)
    return (lead < 0) - (lead > 0)


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_real_roots(P: ClassPolynomial) -> int:
    chain = sturm_chain(list(P.coefficients))
    v_neg = _variations([_sign_at_infinity(f, False) for f in chain])
    v_pos = _variations([_sign_at_infinity(f, True) for f in chain])
    return v_neg - v_pos


def count_roots_in(P: ClassPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]; endpoints must not be roots."""
    chain = sturm_chain(list(P.coefficients))
    v_lo = _variations([_sign_at(f, Fraction(lo)) for f in chain])
    v_hi = _variations([_sign_at(f, Fraction(hi)) for f in chain])
    return v_lo - v_hi


def real_roots(P: ClassPolynomial, width: Fraction = Fraction(1, 1 << 32)):
    """Isolating intervals of width <= 2^-32 for all real roots of P."""
    chain = sturm_chain(list(P.coefficients))

    def var_at(x):
        return _variations([_sign_at(f, x) for f in chain])

    bound = 1 + max(abs(c) for c in P.coefficients)
    total = count_real_roots(P)
    out = []
    stack = [(Fraction(-bound), Fraction(bound), var_at(Fraction(-bound)), var_at(Fraction(bound)))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        n = vlo - vhi
        if n == 0:
            continue
        if n == 1 and hi - lo <= width:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        vmid = var_at(mid)
        stack.append((lo, mid, vlo, vmid))
        stack.append((mid, hi, vmid, vhi))
    out.sort()
    if len(out) != total:
        raise ArithmeticError(f"isolated {len(out)} real roots, Sturm count {total}")
    return out


# --- trial division one prime at a time ------------------------------------


@functools.cache
def primes_below(bound):
    """The primes below ``bound``, by a sieve of Eratosthenes."""
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(bound) if flags[i]]


def _reference_trial_divide(n, found, enough=None):
    """``intmath._trial_divide`` by the full sweep: every prime below
    ``TRIAL_BOUND`` in turn, until its square exceeds the rest, with the
    rule ``enough``, if given, asked after each prime recorded and the rest
    returned as soon as it holds; a prime rest smaller than n is then
    recorded too, and 1 returned."""
    start = n
    for p in primes_below(TRIAL_BOUND):
        if p * p > n:
            break
        if n % p == 0:
            while n % p == 0:
                found[p] = found.get(p, 0) + 1
                n //= p
            if enough is not None and enough(found.keys()):
                return n
    if n < start and is_prime_by_rounds(n):
        found[n] = found.get(n, 0) + 1
        return 1
    return n


def factorize_by_trial_loop(n, budget=None):
    """``factorize`` with trial division by every prime below ``TRIAL_BOUND``
    in turn; the rest, whose prime factors all exceed the bound, goes to the
    library."""
    found = {}
    m = abs(n)
    for p in primes_below(TRIAL_BOUND):
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    rest = factorize(m, budget)
    for p, e in rest.factors:
        found[p] = found.get(p, 0) + e
    return Factorization(1 if n > 0 else -1, tuple(sorted(found.items())), rest.cofactor)


# --- primality: seeded Miller-Rabin rounds and base-2 pseudoprimes ----------


def _strong_round(n, a):
    """Whether odd n > 2 is a strong probable prime to base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_by_rounds(n):
    """Primality by trial division below 53 and 66 Miller-Rabin rounds to
    bases drawn from a PRNG seeded with n, each wrong on a composite with
    probability at most 1/4: error below 2^-128."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % p == 0:
            return n == p
    if n < 53 * 53:
        return True
    rng = random.Random(n)
    return all(_strong_round(n, rng.randrange(2, n - 1)) for _ in range(66))


def chernick_base_2_pseudoprimes(start, count):
    """The first ``count`` Chernick numbers (6k + 1)(12k + 1)(18k + 1) with
    k >= start that pass the strong test to base 2, the first half of
    Baillie-PSW.  With all three factors prime the product is a Carmichael
    number, which passes a Fermat test to every base prime to it."""
    found = []
    for k in itertools.count(start):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(is_prime_by_rounds(f) for f in factors):
            n = math.prod(factors)
            if _strong_round(n, 2):
                found.append((k, n))
                if len(found) == count:
                    return found


# --- Brent rho: the unit of the factoring budget -----------------------------


def brent_rho(n, budget):
    """Brent's cycle variant of Pollard rho (BIT 20, 1980): a nontrivial
    factor of n, or None once ``budget[0]`` iterations are spent.  One
    iteration is the unit of ``FactorBudget.rho_iterations``."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while budget[0] > 0:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and budget[0] > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


# --- ECM with two products a prime: the arithmetic _ecm_plan charges ---------


def _reference_ladder(k, x, z, a24, n):
    """Montgomery ladder: x-only [k](x : z), k >= 1."""
    low, high = (x, z), _xdbl(x, z, a24, n)  # [m] P and [m + 1] P
    for bit in bin(k)[3:]:
        if bit == "1":
            low, high = _xadd(*low, *high, x, z, n), _xdbl(*high, a24, n)
        else:
            low, high = _xdbl(*low, a24, n), _xadd(*low, *high, x, z, n)
    return low


def _reference_stage2(x, z, a24, n, giants) -> int:
    """The product of X_g - x_j Z_g, (X_g : Z_g) = [g D] Q and x_j = x([j] Q),
    over the primes g D +- j: q divides it if Q has such an order mod q.  A
    Z_j that shares a factor with n is returned in its place."""
    d = _ECM_STRIDE
    twice = _xdbl(x, z, a24, n)
    babies = [(x, z), _xadd(*twice, x, z, x, z, n)]  # [j] Q for odd j < D/2
    while len(babies) < d // 4:
        babies.append(_xadd(*babies[-1], *twice, *babies[-2], n))
    xs = []
    for xj, zj in babies:
        if math.gcd(zj, n) != 1:
            return zj
        xs.append(xj * pow(zj, -1, n) % n)
    step = _reference_ladder(d, x, z, a24, n)
    at = giants[0][0]
    here, after = (_reference_ladder(g * d, x, z, a24, n) for g in (at, at + 1))
    product = 1
    for g, js in giants:
        while at < g:
            here, after, at = after, _xadd(*after, *step, *here, n), at + 1
        for j in js:
            product = product * (here[0] - xs[j] * here[1]) % n
    return product


def ecm_reference(n, budget):
    """Suyama curves along the schedule while the budget lasts: a factor or
    None.  ``intmath._ecm`` must return the same and leave the same budget:
    it runs the same curves with its ladder written out and its stage 2
    points normalized."""
    rng = random.Random(n)
    for b1, curves in _ECM_SCHEDULE:
        k, giants, cost = _ecm_plan(b1)
        for _ in range(curves) if curves else itertools.count():
            if budget[0] < cost // _MULS_PER_RHO_ITERATION:
                return None
            budget[0] -= cost // _MULS_PER_RHO_ITERATION
            sigma = rng.randrange(6, n - 1)
            u, v = (sigma * sigma - 5) % n, 4 * sigma % n
            x, z = pow(u, 3, n), pow(v, 3, n)
            den = 16 * x * v % n  # (A + 2) / 4 = (v - u)^3 (3u + v) / (16 u^3 v)
            g = math.gcd(den, n)
            if g == 1:
                a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
                x, z = _reference_ladder(k, x, z, a24, n)  # stage 1
                g = math.gcd(z, n)
                if g == 1:
                    g = math.gcd(_reference_stage2(x, z, a24, n, giants), n)
            if 1 < g < n:
                return g
    return None
