"""Proven enclosures of the Hauptmoduls j_p at Heegner points.

Each Hauptmodul is q^-1 times a quotient of q-series with integer
coefficients (for p = 23, a quotient of two theta series), and every series
is summed the same way: sparsely, over the exponents that occur
(generalized pentagonal numbers for eta, values of a positive binary
quadratic form for theta, of two such forms for theta*), in fixed point.
The terms of each series kind at q^s, s = 1 or p, live in one table, grown
by doubling, and a sum reads the prefix up to its truncation, found in one
lookup.  q is a Gaussian integer scaled by 2^prec, and the series of one
point share one table of its powers.  A sum takes each power it lacks as
the previous term's power times the power of the gap, and a gap the table
lacks is built by halving; a power already there costs nothing, so the eta
series at q^p and the second theta series at p = 19 read much of what the
first built.  Each sum returns its value with an error radius in units of
2^-prec: the truncations of the fixed-point products, whose count for q^e
is at most e times a constant whatever products built it, so that the table
carries the whole count as a running sum of |c| s n, plus an explicit bound
on the dropped tail, which is geometric because no coefficient of q^n
exceeds a constant times n.

``jp_at_form`` is the one evaluation of j_p.  It evaluates j_p at the point
of a Heegner form as given, which its caller has reduced
(``quadforms.reduce_heegner_form``, one Gamma_0(p)+ reduction per point), and
returns a ``Ball`` that provably contains the value, GUARD_BITS finer than
asked.  Every value on the way is a ``Ball``, a Gaussian integer over 2^prec
with an integer error radius, computed from integers alone: pi by Machin's
formula, q by a Taylor sum on Gaussian integers, whose length is looked up
per working precision and whose floors are counted in closed form, and
squarings on raw integers, then the sums, 1/q and the few operations after
them (quotient, power, the w_p term), each adding its counted rounding to the
radius.  The class polynomials call it once per root or conjugate pair, and
``jp_arc_interval`` once per endpoint of the arc S, each at a reduced form.

The expression of each Hauptmodul in its series is an entry of the level
table (``levels.LEVELS``): eta quotients on the genus-0 levels, theta
quotients at p = 11 and 19, and at p = 23 the ratio of the weight-one class
theta series of discriminant -23.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, islice
from operator import sub

from .levels import ETA, THETA_STAR, level
from .quadforms import QuadForm

__all__ = ["GUARD_BITS", "Ball", "jp_at_form", "jp_arc_interval"]

# jp_at_form's guard, the one of a build.  Builds with l < 1000 spend at most
# 30.3 bits (p = 19), up to 25.6 on the largest series error, which grows as
# 2 log2 nmax.  A shortfall fails the rounding proof, never giving a wrong value.
GUARD_BITS = 40
ARC_BITS = 256  # precision of the endpoints of j_p(S)


# --- the fixed-point series engine --------------------------------------------


def _pentagonal_terms(nmax: int):
    """(n, (-1)^k) for the generalized pentagonal numbers n = k(3k -+ 1)/2."""
    terms = [(0, 1)]
    k, sign = 1, -1
    while k * (3 * k - 1) // 2 <= nmax:
        terms.append((k * (3 * k - 1) // 2, sign))
        if k * (3 * k + 1) // 2 <= nmax:
            terms.append((k * (3 * k + 1) // 2, sign))
        k, sign = k + 1, -sign
    return terms


def _theta_counts(a: int, b: int, c: int, nmax: int) -> list[int]:
    """Representation numbers r(n) of a x^2 + b x y + c y^2 for n <= nmax."""
    disc = 4 * a * c - b * b
    counts = [0] * (nmax + 1)
    counts[0] = 1
    # y = 0 row: values a x^2, x > 0, doubled by (x, y) -> (-x, -y)
    x = 1
    while a * x * x <= nmax:
        counts[a * x * x] += 2
        x += 1
    ymax = math.isqrt(4 * a * nmax // disc)
    for y in range(1, ymax + 1):
        w = math.isqrt(4 * a * nmax - disc * y * y)
        xlo = -((b * y + w) // (2 * a))
        xhi = (w - b * y) // (2 * a)
        for x in range(xlo, xhi + 1):
            n = a * x * x + b * x * y + c * y * y
            if n <= nmax:
                counts[n] += 2
    return counts


def _theta_star_counts(nmax: int) -> list[int]:
    """Coefficient of q^j in theta*(tau) q^(-1/2), j <= nmax.

    theta* sums (-1)^m u^k, k = m^2 + m n + 5 n^2, over m + n odd, with
    u = q^(1/2).  For m = 2s, k = 4 s^2 + 2 s n + 5 n^2 is odd exactly when
    n is; for n = 2t, k = x^2 + 19 t^2 with x = m + t is odd exactly when m
    is.  So theta* = theta_[4,2,5](u) - theta_[1,0,19](u), whose even terms
    cancel, and the coefficient of q^j = u^(2j + 1) / u is the difference of
    the two representation numbers of 2j + 1.
    """
    kmax = 2 * nmax + 1
    return list(map(sub, _theta_counts(4, 2, 5, kmax)[1::2], _theta_counts(1, 0, 19, kmax)[1::2]))


def _table(kind, scale: int, nmax: int):
    """The term table of a series kind at q^scale up to its nmax-th power.

    Returns (nmax, exponents, terms, weights).  ``terms`` holds the nonzero
    (scale n, c), n ascending from 0, ``exponents`` their scale n, and
    weights[i] is the sum of |c| scale n over terms[:i + 1].
    """
    if kind == ETA:
        terms = _pentagonal_terms(nmax)
    else:
        counts = _theta_star_counts(nmax) if kind == THETA_STAR else _theta_counts(*kind[1:], nmax)
        terms = [(n, c) for n, c in enumerate(counts) if c]
    terms = [(scale * n, c) for n, c in terms]
    exponents = [n for n, _ in terms]
    return nmax, exponents, terms, list(accumulate(abs(c) * n for n, c in terms))


_TABLES = {}  # (series kind, scale) -> its _table, grown by doubling


def _terms(kind, scale: int, nmax: int) -> tuple[list, int, int]:
    """(terms, count, weight): the nonzero terms (scale n, c) of a series kind
    at q^scale are terms[:count], n <= nmax, and their sum of |c| scale n is
    weight.

    Each (kind, scale) keeps one table, of the terms up to the largest nmax
    asked so far; a larger nmax rebuilds it at no less than twice its reach,
    and every sum reads a prefix of it, found by bisection.
    """
    key = kind, scale
    table = _TABLES.get(key)
    if table is None or table[0] < nmax:
        table = _TABLES[key] = _table(kind, scale, max(nmax, 2 * table[0]) if table else nmax)
    _, exponents, terms, weights = table
    count = bisect_right(exponents, scale * nmax)
    return terms, count, weights[count - 1]


@lru_cache(maxsize=None)
def _growth(kind) -> int:
    """A with |coefficient of q^n| <= A n for every n >= 1.

    For a form of discriminant -d, Q(x, y) = n forces |y| <= sqrt(4 a n / d),
    with at most two x per y, so r(n) <= 2 (2 sqrt(4 a n / d) + 1), which is
    at most (4 sqrt(4 a / d) + 2) n.  theta* at q^j counts points with
    Q = 2j + 1 <= 3j of the form [1, 1, 5].
    """
    if kind == ETA:
        return 1
    if kind == THETA_STAR:
        a, d, stretch = 1, 19, 3
    else:
        a, b, c = kind[1:]
        d, stretch = 4 * a * c - b * b, 1
    return math.ceil(4 * math.sqrt(4 * a * stretch / d)) + 2


def _truncation(kind, rate: float, prec: int) -> tuple[int, int]:
    """(nmax, tail) for a series at |q| <= 2^-rate.

    The dropped terms are bounded by A sum_{n > N} n x^n <= A (N + 1)
    x^(N + 1) / (1 - x)^2; N is chosen so that this is about one unit of
    2^-prec, and ``tail`` is the bound in those units, rounded up and never
    below one.
    """
    rate *= 1 - 1e-9  # the float rate is a lower bound only up to rounding
    slack = math.log2(_growth(kind)) - 2 * math.log2(1 - 2.0**-rate)
    nmax = math.ceil((prec + slack) / rate)
    nmax = math.ceil((prec + slack + math.log2(nmax + 2)) / rate)
    log_tail = slack + math.log2(nmax + 1) - (nmax + 1) * rate
    return nmax, max(1, math.ceil(2.0 ** (log_tail + prec) * (1 + 1e-9)))


def _times(x: tuple[int, int], y: tuple[int, int], prec: int) -> tuple[int, int]:
    """The fixed-point product of two Gaussian integers over 2^prec."""
    (xr, xi), (yr, yi) = x, y
    return (xr * yr - xi * yi) >> prec, (xr * yi + xi * yr) >> prec


class _Powers:
    """The powers of q at one point, exponent -> Gaussian integer over
    2^prec, shared by every series the point's Hauptmodul reads.

    A series reads its terms in ascending order and takes each power it
    lacks as the previous term's power times the power of the gap, or as
    the gap's power alone after q^0, and a gap the table lacks is built by
    halving (``power``).  A product of two values within e and f units of
    values of modulus below 1 is within e + f + 2 units: the two floor
    shifts cost under sqrt(2), and e f stays below a unit while both are
    under 2^(prec/2 - 1).  Every power q^e the table lacks is one product
    q^a q^b of two it holds, a + b = e, so by induction every q^e, e >= 1,
    is within e (err(q) + 2) - 2 units whatever products built it, and a
    series at q^s within (err(q) + 2) s sum |c| n, its prefix's weight.
    That count also bounds the error of every power the series multiplied,
    so the sum raises ``ArithmeticError`` once it reaches 2^(prec/2 - 1).
    """

    def __init__(self, q: Ball, im_tau: float):
        self.q, self.im_tau = q, im_tau
        self.powers = {0: (1 << q.prec, 0), 1: (q.re, q.im)}

    def power(self, e: int) -> tuple[int, int]:
        """q^e; one the table lacks is built as q^(e // 2) q^(e - e // 2)."""
        powers = self.powers
        if e not in powers:
            half = e // 2
            powers[e] = _times(self.power(half), self.power(e - half), self.q.prec)
        return powers[e]

    def series(self, kind, scale: int = 1) -> Ball:
        """A series kind at q^scale, where q = exp(2 pi i tau), Im(tau) = im_tau."""
        q = self.q
        prec = q.prec
        nmax, tail = _truncation(kind, 2 * math.pi * scale * self.im_tau / math.log(2), prec)
        terms, count, weight = _terms(kind, scale, nmax)
        powers = self.powers
        re = im = last = 0
        for e, c in islice(terms, count):
            power = powers.get(e)
            if power is None:
                power = powers[e] = (_times(powers[last], self.power(e - last), prec) if last
                                     else self.power(e))
            re += c * power[0]
            im += c * power[1]
            last = e
        err = (q.rad + 2) * weight
        if err >= 1 << (prec // 2 - 1):
            raise ArithmeticError("fixed-point error count outgrew its bound")
        return Ball(re, im, err + tail, prec)


class Ball:
    """The complex disc of radius ``rad`` about ``re + i im``, in units of 2^-prec.

    The one number format from pi and q through the series sums and the
    few operations that form j_p from them (``jp_at_form``) and, as real
    (mid, rad) pairs over the same 2^prec, through the product of a class
    polynomial's factors (``classpoly.build_PD``).  The operations take
    balls at one precision and Python ints; each result encloses every
    value the operation takes on its input discs, with the rounding it
    costs counted in ``rad``.  Sums and integer multiples are exact.  A
    product or a quotient floors its two coordinates, at most sqrt(2)
    units, counted as 2; radius bounds are rounded up.  ``abs(re) +
    abs(im)`` stands for the modulus of a midpoint, which it bounds.
    """

    __slots__ = ("re", "im", "rad", "prec")

    def __init__(self, re: int, im: int, rad: int, prec: int):
        self.re, self.im, self.rad, self.prec = re, im, rad, prec

    def round_to(self, prec: int) -> "Ball":
        """The ball at a precision no higher than its own."""
        shift = self.prec - prec
        return Ball(self.re >> shift, self.im >> shift, -(-self.rad >> shift) + 2, prec)

    def conjugate(self) -> "Ball":
        return Ball(self.re, -self.im, self.rad, self.prec)

    def __neg__(self) -> "Ball":
        return Ball(-self.re, -self.im, self.rad, self.prec)

    def __add__(self, other) -> "Ball":
        if isinstance(other, int):
            return Ball(self.re + (other << self.prec), self.im, self.rad, self.prec)
        return Ball(self.re + other.re, self.im + other.im, self.rad + other.rad, self.prec)

    __radd__ = __add__

    def __sub__(self, other) -> "Ball":
        return self + -other

    def __mul__(self, other) -> "Ball":
        if other.__class__ is not Ball:
            return Ball(self.re * other, self.im * other, self.rad * abs(other), self.prec)
        a, b, e, prec = self.re, self.im, self.rad, self.prec
        c, d, f = other.re, other.im, other.rad
        # |(x + s)(y + t) - x y| <= |x| f + |y| e + e f for |s| <= e, |t| <= f
        spread = (abs(a) + abs(b)) * f + (abs(c) + abs(d) + f) * e
        return Ball((a * c - b * d) >> prec, (a * d + b * c) >> prec,
                    -(-spread >> prec) + 2, prec)

    __rmul__ = __mul__

    def inverse(self) -> "Ball":
        """1 / self; ArithmeticError when the disc may contain 0.

        With |y - x| <= e and |x| >= m > e, |1/y - 1/x| <= e / (m (m - e)).
        """
        a, b, e, prec = self.re, self.im, self.rad, self.prec
        norm = a * a + b * b
        m = math.isqrt(norm)  # m <= |x|, in units
        if m <= e:
            raise ArithmeticError("division by a ball that may contain 0")
        scale = 1 << (2 * prec)
        spread = -(-(e * scale) // (m * (m - e)))
        return Ball((a * scale) // norm, (-b * scale) // norm, spread + 2, prec)

    def __truediv__(self, other) -> "Ball":
        if isinstance(other, int):
            return Ball(self.re // other, self.im // other, -(-self.rad // abs(other)) + 2,
                        self.prec)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Ball":
        return self.inverse() * other

    def __pow__(self, e: int) -> "Ball":
        if not isinstance(e, int) or e < 1:
            return NotImplemented
        out, base = None, self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base


_PI = []  # the one Machin ball, at the highest prec + 16 asked so far


def _pi(prec: int) -> Ball:
    """pi = 16 atan(1/5) - 4 atan(1/239) (Machin) as a real ball.

    Each arctangent is summed over 2^wp, wp at least 16 bits above prec: its
    terms floor(2^wp / (n x^n)), n odd, are each exact to under one unit,
    and the alternating tail after the first zero power is below one unit.
    One ball is kept, summed again only when a higher precision is asked.
    Its radius, under 4 wp units, is below 2^16 for wp up to 2^14, so
    rounding it to prec leaves at most 3 units.
    """
    wp = prec + 16
    if not _PI or _PI[0].prec < wp:
        mid = rad = 0
        for weight, x in ((16, 5), (-4, 239)):
            total, n, power = 0, 1, (1 << wp) // x  # power = floor(2^wp / x^n)
            while power:
                total += power // n if n % 4 == 1 else -(power // n)
                n, power = n + 2, power // (x * x)
            mid += weight * total
            rad += abs(weight) * (n // 2 + 1)  # a unit per term and one for the tail
        _PI[:] = [Ball(mid, 0, rad, wp)]
    return _PI[0].round_to(prec)


@lru_cache(maxsize=None)
def _taylor_length(wp: int) -> int:
    """The least n with 2^(8n) n! >= 2^(wp + 1): the terms ``_exp`` sums at wp bits."""
    n, factorial = 1, 1
    while factorial << (8 * n) < 1 << (wp + 1):
        n += 1
        factorial *= n
    return n


def _exp(z: Ball) -> Ball:
    """exp(z) as a ball at the precision of z.

    The ball is read at wp = prec + k bits, which divides it by 2^k exactly;
    k is the least that keeps |re| + |im| + rad below 2^(wp - 8), so every
    point of the ball has modulus below 2^-8.  At its midpoint s the Taylor
    sum runs on Gaussian integers over 2^wp: term m is term m - 1 times
    s / m, each coordinate floored once (by 2^wp, then by m, which is the
    floor by m 2^wp), so its error is under sqrt(2) plus 2^-8 / m times the
    error of term m - 1, under 2 units in all.  The n terms with 2^(8n) n!
    >= 2^(wp + 1), n looked up per wp, drop a tail below one unit, so the
    sum is within 2n - 1 units of exp(s).  A point s + t with |t| <= r =
    rad / 2^wp has |exp(s + t) - exp(s)| <= |exp(s)| (e^r - 1) <= |exp(s)|
    r / (1 - r), which is added next.  k squarings undo the division, each
    counting its error as ``Ball.__mul__`` does, and one ball is made at the
    end.
    """
    k = max(0, (abs(z.re) + abs(z.im) + z.rad).bit_length() + 8 - z.prec)
    wp = z.prec + k
    n = _taylor_length(wp)
    sr, si = z.re, z.im
    re = tr = 1 << wp
    im = ti = 0
    for m in range(1, n):
        tr, ti = ((tr * sr - ti * si) >> wp) // m, ((tr * si + ti * sr) >> wp) // m
        re += tr
        im += ti
    err = 2 * n - 1
    err += -(-(abs(re) + abs(im) + err) * z.rad // ((1 << wp) - z.rad))
    for _ in range(k):
        size = abs(re) + abs(im)
        re, im, err = ((re * re - im * im) >> wp, (2 * re * im) >> wp,
                       -(-(2 * size + err) * err >> wp) + 2)
    return Ball(re, im, err, wp).round_to(z.prec)


def jp_at_form(form: QuadForm, p: int, bits: int) -> Ball:
    """A ``Ball`` containing j_p at the CM point of a form with p | a.

    The point is that of the form as given, tau = (-b + i sqrt|D|) / (2a):
    the caller reduces the form first (``quadforms.reduce_heegner_form``),
    and a point below the evaluation cutoff raises ``ArithmeticError``.
    q = exp(-pi (sqrt|D| + b i) / a) comes from ``_pi``, ``math.isqrt`` and
    ``_exp``.  The series are summed at bits + GUARD_BITS, and the level's
    expression forms j_p from them and 1/q, each operation adding its
    rounding to the radius, which the guard keeps below 2^-bits max(1, |j_p|).
    """
    hauptmodul = level(p).hauptmodul
    D = form.discriminant()
    im_tau = math.sqrt(-D) / (2 * form.a)
    # the top of an orbit sits at Im(tau) >= sqrt(3) / (2p); the sums are
    # sized for that, with a margin
    if im_tau < min(0.05, 0.8 * math.sqrt(3) / (2 * p)):
        raise ArithmeticError(f"form {form} sits below the evaluation cutoff; "
                              "pass it through reduce_heegner_form first")
    prec = bits + GUARD_BITS
    # q to prec + lift bits, so that 1/q, of modulus about 2^lift, keeps
    # the relative precision of q
    wide = prec + math.ceil(2 * math.pi * im_tau / math.log(2))
    root = Ball(math.isqrt(-D << (2 * wide)), form.b << wide, 1, wide)  # sqrt|D| + b i
    q_wide = _exp(-(_pi(wide) * root) / form.a)
    q, qinv = q_wide.round_to(prec), q_wide.inverse().round_to(prec)
    return hauptmodul(_Powers(q, im_tau).series, qinv)


@lru_cache(maxsize=None)
def jp_arc_interval(p: int) -> tuple[float, float]:
    """Endpoints of the real interval j_p(S) at a level with the real arc.

    S is the arc |tau| = 1/sqrt(p), -d/c < Re(tau) < 0, for the fundamental
    unit c + d sqrt(p); j_p increases clockwise along it, so the infimum
    sits at Re = -d/c and the supremum at tau = i/sqrt(p).  Both ends are
    CM points, so each is one ``jp_at_form`` enclosure at ARC_BITS of a
    reduced form: the left end, the point of [pc/2, pd, c/2], reduces to
    [p, p, (p + 1)/4], and the top is the point of [p, 0, 1].  Returned as
    the floats nearest to the midpoints of the real parts (the interval
    test tolerance is 2^-16, far above float error).
    """
    if not level(p).real_arc:
        raise ValueError(f"the arc S is only defined at the real-arc levels, not p = {p}")
    ends = (jp_at_form(QuadForm(p, p, (p + 1) // 4), p, ARC_BITS),
            jp_at_form(QuadForm(p, 0, 1), p, ARC_BITS))
    # int / int is correctly rounded
    return tuple(end.re / (1 << end.prec) for end in ends)
