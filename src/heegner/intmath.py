"""Exact integer arithmetic: Kronecker symbols, primality, factorization.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (always normalized, positive denominator).  Everything
here is pure and deterministic: only ECM draws from a PRNG, seeded with its
input.  Primality is Baillie-PSW, proven below 2^64 (Baillie, Fiori and
Wagstaff, Math. Comp. 90, 2021) and passed by no known composite above.
Factoring is trial division by the primes below 10^6, sieved once over the
odd numbers and read into a 4-byte ``array`` only as far as a factorization
reaches (the sieve is freed once read whole), until the rest is 1 or prime,
then ECM on Montgomery curves within one effort budget.  The caller's stop
rule, if any, is asked after each prime trial division finds and before
every ECM call, and ends the factorization once it holds.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import threading
from array import array
from collections.abc import Callable, Collection
from dataclasses import dataclass, field

__all__ = [
    "Factorization",
    "FactorBudget",
    "kronecker",
    "is_prime",
    "factorize",
    "is_square",
]


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), total for n != 0."""
    if n == 0:
        raise ValueError("kronecker symbol undefined for n = 0")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # factor out twos from n
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        amod8 = a % 8
        two_sym = 1 if amod8 in (1, 7) else -1
        while n % 2 == 0:
            n //= 2
            result *= two_sym
    # now n odd and positive; standard Jacobi loop with reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _miller_rabin(n: int, a: int) -> bool:
    """One Miller-Rabin round; True means 'probably prime'."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 1 with Selfridge's method
    A (Baillie and Wagstaff, Math. Comp. 35, 1980): D is the first of 5, -7,
    9, -11, ... with (D | n) = -1, P = 1 and Q = (1 - D) / 4.  With
    n + 1 = d 2^s, d odd, n passes if U_d = 0 or V_(d 2^r) = 0 for some
    r < s.  A square has no such D and is rejected first; a zero symbol
    means a factor |D| of n."""
    if is_square(n):
        return False
    D = 5
    while (symbol := kronecker(D, n)) == 1:
        D = 2 - D if D < 0 else -D - 2
    if symbol == 0:
        return n == abs(D)
    Q, half = (1 - D) // 4, (n + 1) // 2  # half = 1 / 2 mod n
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    u, v, qk = 1, 1, Q % n  # U_m, V_m and Q^m at m = 1, the top bit of d
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n  # m -> 2 m
        if bit == "1":  # 2 m -> 2 m + 1
            u, v, qk = (u + v) * half % n, (D * u + v) * half % n, qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Baillie-PSW primality test: a strong test to base 2 and a strong
    Lucas test.  No composite below 2^64 passes it (Baillie, Fiori and
    Wagstaff, Math. Comp. 90, 2021), and no known composite above."""
    if n < 0:
        raise ValueError("is_prime expects n >= 0")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 53 * 53:  # no prime factor below 53, so n is prime
        return True
    return _miller_rabin(n, 2) and _strong_lucas(n)


@dataclass(frozen=True, slots=True)
class Factorization:
    """Signed prime factorization; ``cofactor`` holds the composites left
    unsplit, either beyond the effort budget or not needed by the caller.
    Trial division that the caller's stop rule ended leaves its rest whole,
    so the cofactor may hold primes below ``TRIAL_BOUND`` too.
    ``effort`` is the part of the budget its ECM curves were charged; it is
    bookkeeping, not part of the result, so equality ignores it."""

    sign: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1
    effort: int = field(default=0, compare=False)

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]


@dataclass(frozen=True)
class FactorBudget:
    """Effort limit for ``factorize``.

    ``rho_iterations`` is one budget that ECM spends across all split
    attempts, and ``search`` spends one budget across all of its
    factorizations: the denominator of h and each numerator are handed what
    the earlier ones left, so once it is spent a later l still gets trial
    division and the stop rule, but no ECM curve.  Its unit is the time of
    one iteration of Brent's rho cycle walk, five modular multiplications;
    an ECM curve is charged a fixed number of them, its stage's
    ``_ecm_plan`` cost, so a budget buys the same curves however fast they
    run.  A composite that survives it is returned unsplit in the
    ``cofactor``, and a search goes on with the primes already found, or to
    the next l if they hold none.  The default is 7-10 s of work when spent
    whole (2-core Xeon, CPython 3.11, two 25-digit primes); it splits two
    14-digit primes in about 0.1 s.  Raise it when stalling is acceptable.
    A negative budget raises ValueError; 0 buys no curve.
    """

    rho_iterations: int = 1 << 22

    def __post_init__(self):
        if self.rho_iterations < 0:
            raise ValueError(f"rho_iterations must be >= 0, not {self.rho_iterations}")


TRIAL_BOUND = 10**6  # trial division and ECM's stage 2 primes lie below it
_CHUNK = 256  # primes per gcd in trial division
_SEGMENT = 8192  # sieve flags turned into primes at a time
_FLAGS = TRIAL_BOUND // 2  # one per odd number below the bound


@functools.cache
def _sieve() -> bytearray:
    """The sieve below ``TRIAL_BOUND``, marked on first use and dropped
    from the cache once ``_trial_primes`` has read it whole: it flags the
    odd numbers only, 2 i + 1 at index i, 1 for a prime."""
    sieve = bytearray([1]) * _FLAGS
    sieve[0] = 0  # 1
    for i in range(1, (math.isqrt(TRIAL_BOUND - 1) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, len(sieve), p)))
    return sieve


_primes = array("I", [2])  # the primes read off the sieve so far, 4 bytes each
_flags_read = 0  # the sieve flags they were read from, a whole number of segments
_reading = threading.Lock()  # held while a segment is read and counted


def _trial_primes(count: int = TRIAL_BOUND, past: int = TRIAL_BOUND) -> array:
    """The primes below ``TRIAL_BOUND`` in ascending order, read off the
    sieve until the table holds ``count`` of them or one above ``past``;
    all of them by default.

    The table grows by ``_SEGMENT`` flags at a time, each read by
    ``itertools.compress``, so no Python-level loop runs over the integers
    below the bound, and a prime becomes an int only once a reader reaches
    its segment.  The table is kept, and the same array is returned to every
    reader; the sieve is freed once its last segment is read.  A reader
    reads under a lock and asks again there whether it needs more, so one
    that waited while another read finds the table grown, and neither marks
    the sieve again nor reads a segment twice.
    """
    global _flags_read
    if len(_primes) < count and _primes[-1] <= past and _flags_read < _FLAGS:
        with _reading:
            while len(_primes) < count and _primes[-1] <= past and _flags_read < _FLAGS:
                start = _flags_read
                _primes.extend(itertools.compress(range(2 * start + 1, TRIAL_BOUND, 2),
                                                  _sieve()[start:start + _SEGMENT]))
                _flags_read = start + _SEGMENT
            if _flags_read >= _FLAGS:
                _sieve.cache_clear()
    return _primes


@functools.cache
def _chunk_product(start: int) -> int:
    return math.prod(_trial_primes(start + _CHUNK)[start:start + _CHUNK])


def _trial_divide(n: int, found: dict[int, int],
                  enough: Callable[[Collection[int]], bool] | None = None) -> int:
    """Divide out of n the primes below ``TRIAL_BOUND`` that divide it,
    recording them in ``found``; returns the rest, which is 1, a prime, or
    has all its prime factors above the bound, unless ``enough`` ended the
    sweep.

    ``enough``, the caller's stop rule, if given, is asked with the primes
    found so far after each prime's whole power is divided out; once it
    holds, the rest is returned at once, small primes and all.

    One gcd of n with the product of a chunk of primes tells whether any of
    them divides n; only such a chunk is divided prime by prime, up to the
    last prime of the gcd.  A rest that this leaves smaller is tested by
    ``is_prime``, and a prime rest is recorded too and ends the sweep, with
    1 returned: no other prime divides it.  A chunk's product is built on
    its first use and kept, and the table of primes is read only as far
    as the sweep reaches, a chunk at a time.
    """
    for start in itertools.count(0, _CHUNK):
        primes = _trial_primes(start + _CHUNK)
        if start >= len(primes) or primes[start] * primes[start] > n:
            break
        g = math.gcd(n, _chunk_product(start))
        if g == 1:
            continue
        rest = n
        for p in primes[start:start + _CHUNK]:
            if p * p > n:
                break
            if g % p == 0:
                while n % p == 0:
                    found[p] = found.get(p, 0) + 1
                    n //= p
                if enough is not None and enough(found.keys()):
                    return n
                g //= p  # the chunk's primes that divide n and are still to come
                if g == 1:
                    break
        if n < rest and is_prime(n):
            found[n] = 1
            return 1
    return n


# --- ECM on Montgomery curves (Montgomery, Math. Comp. 48, 1987) -------------

# (B1, curves) per stage, B2 = 100 B1; the last stage runs curves until the
# budget is spent.  Chosen on the composites of the points benchmark, whose
# smallest factors have 7-11 digits; B1 = 1000 splits the 29-digit product of
# two 14-digit primes in the numerator at search(7, 2) on its third curve with
# the seeded sigmas, though the search stops before it: its stop rule holds
# once trial division has found 1531, and 42391 stays in the cofactor too.
_ECM_SCHEDULE = ((300, 16), (1000, 48), (2000, None))
_ECM_STRIDE = 210  # D, the giant step of stage 2
# Modular multiplications that take as long as one rho iteration, measured
# for 30-50 digit n (CPython 3.11, no gmpy2).
_MULS_PER_RHO_ITERATION = 5

def _xdbl(x, z, a24, n):
    """x-only doubling on B y^2 = x^3 + A x^2 + x, a24 = (A + 2) / 4."""
    s, d = (x + z) * (x + z) % n, (x - z) * (x - z) % n
    return s * d % n, (s - d) * (d + a24 * (s - d)) % n


def _xadd(x1, z1, x2, z2, xd, zd, n):
    """x-only P + Q from P, Q and P - Q."""
    u, v = (x1 - z1) * (x2 + z2), (x1 + z1) * (x2 - z2)
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _ladder(k, x, a24, n):
    """Montgomery ladder: x-only [k](x : 1), k >= 1.  Each bit makes one
    ``_xadd`` and one ``_xdbl``, written out here on local variables; the
    base point's Z = 1 saves the ``_xadd`` one of its products."""
    s, d = (x + 1) * (x + 1) % n, (x - 1) * (x - 1) % n
    x0, z0, x1, z1 = x, 1, s * d % n, (s - d) * (d + a24 * (s - d)) % n  # [m] P, [m + 1] P
    for bit in bin(k)[3:]:
        u, v = (x0 - z0) * (x1 + z1), (x0 + z0) * (x1 - z1)
        if bit == "1":
            x0, z0 = (u + v) ** 2 % n, x * (u - v) ** 2 % n
            s, d = (x1 + z1) * (x1 + z1) % n, (x1 - z1) * (x1 - z1) % n
            x1, z1 = s * d % n, (s - d) * (d + a24 * (s - d)) % n
        else:
            x1, z1 = (u + v) ** 2 % n, x * (u - v) ** 2 % n
            s, d = (x0 + z0) * (x0 + z0) % n, (x0 - z0) * (x0 - z0) % n
            x0, z0 = s * d % n, (s - d) * (d + a24 * (s - d)) % n
    return x0, z0


@functools.cache
def _ecm_plan(b1: int) -> tuple:
    """(k, giants, cost) for B1 and B2 = 100 B1: k = the product of the
    largest powers <= B1 of the primes <= B1; for each prime g D +- j in
    (B1, B2], j odd and below D/2, ``giants`` holds g with the bytes j // 2;
    ``cost`` is the fixed charge of one curve in modular multiplications,
    ``_MULS_PER_RHO_ITERATION`` times the budget's unit: 11 a ladder bit, 6 a
    baby or giant step, 2 a prime.  It counts the arithmetic of
    ``tests/oracles.ecm_reference``; ``_ladder`` makes 10 products a bit on
    its normalized base point and ``_ecm_stage2`` one a prime, but the
    charge stays, so a budget buys the same curves.  The table of primes is
    read only until it holds one above B2."""
    k, d, giants = 1, _ECM_STRIDE, {}
    for p in _trial_primes(past=100 * b1):
        if p > 100 * b1:
            break
        if p > b1:
            g = (p + d // 2) // d
            giants.setdefault(g, set()).add(abs(p - g * d) // 2)
            continue
        power = p
        while power * p <= b1:
            power *= p
        k *= power
    giants = tuple((g, bytes(sorted(js))) for g, js in sorted(giants.items()))
    cost = 11 * k.bit_length() + 6 * d // 4 + sum(6 + 2 * len(js) for _, js in giants)
    return k, giants, cost


def _normalize(points, n):
    """x = X / Z mod n for each (X : Z) of ``points``, with one inversion
    (Montgomery's simultaneous inversion); the product of the Z's mod n in
    place of the list when it is not a unit mod n."""
    prefix = [1]  # Z_0 ... Z_{i-1} at i
    for _, z in points:
        prefix.append(prefix[-1] * z % n)
    if math.gcd(prefix[-1], n) != 1:
        return prefix[-1]
    inverse = pow(prefix[-1], -1, n)  # 1 / (Z_0 ... Z_i) at step i, i downwards
    xs = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, z = points[i]
        xs[i] = x * inverse * prefix[i] % n
        inverse = inverse * z % n
    return xs


def _ecm_stage2(x, z, a24, n, giants) -> int:
    """The product of X_g - x_j Z_g, (X_g : Z_g) = [g D] Q and x_j = x([j] Q),
    over the primes g D +- j: q divides it if Q has such an order mod q.  A
    Z_j that shares a factor with n is returned in its place.  Q = (x : z)
    with z a unit mod n, and Q is normalized to (x / z : 1) first, the same
    projective point, for the one ladder, to [D] Q; the giants are stepped
    from it by D Q at a time.

    The x_j and the x_g = X_g / Z_g are normalized by ``_normalize``, so the
    product taken is that of x_g - x_j, one modular product a prime: it
    differs from the one above by the unit Z_g per factor, and so has the
    same gcd with n.  Where a Z_g shares a factor with n, the product above
    is taken as it stands."""
    d = _ECM_STRIDE
    x = x * pow(z, -1, n) % n
    twice = _xdbl(x, 1, a24, n)
    babies = [(x, 1), _xadd(*twice, x, 1, x, 1, n)]  # [j] Q for odd j < D/2
    while len(babies) < d // 4:
        babies.append(_xadd(*babies[-1], *twice, *babies[-2], n))
    xs = _normalize(babies, n)
    if isinstance(xs, int):
        return next(zj for _, zj in babies if math.gcd(zj, n) != 1)
    step = _ladder(d, x, a24, n)
    here, after, at = step, _xdbl(*step, a24, n), 1  # [at D] Q, [(at + 1) D] Q
    points = []
    for g, _ in giants:
        while at < g:
            here, after, at = after, _xadd(*after, *step, *here, n), at + 1
        points.append(here)
    product = 1
    xg = _normalize(points, n)
    if isinstance(xg, int):
        for (x_g, z_g), (_, js) in zip(points, giants):
            for j in js:
                product = product * (x_g - xs[j] * z_g) % n
        return product
    for x_g, (_, js) in zip(xg, giants):
        for j in js:
            product = product * (x_g - xs[j]) % n
    return product


def _ecm(n: int, budget: list[int]) -> int | None:
    """Suyama curves along the schedule while the budget lasts: a factor or None."""
    rng = random.Random(n)
    for b1, curves in _ECM_SCHEDULE:
        k, giants, cost = _ecm_plan(b1)
        charge = cost // _MULS_PER_RHO_ITERATION
        for _ in range(curves) if curves else itertools.count():
            if budget[0] < charge:
                return None
            budget[0] -= charge
            sigma = rng.randrange(6, n - 1)
            u, v = (sigma * sigma - 5) % n, 4 * sigma % n
            x, z = pow(u, 3, n), pow(v, 3, n)
            den = 16 * x * v % n  # (A + 2) / 4 = (v - u)^3 (3u + v) / (16 u^3 v)
            g = math.gcd(den, n)
            if g == 1:  # so z = v^3 is a unit too: one inversion gives 1 / den and 1 / z
                inverse = pow(den * z, -1, n)
                a24 = pow(v - u, 3, n) * (3 * u + v) * z * inverse % n
                x, z = _ladder(k, x * den * inverse % n, a24, n)  # stage 1 on (x / z : 1)
                g = math.gcd(z, n)
                if g == 1:
                    g = math.gcd(_ecm_stage2(x, z, a24, n, giants), n)
            if 1 < g < n:
                return g


def factorize(n: int, budget: FactorBudget | None = None,
              enough: Callable[[Collection[int]], bool] | None = None) -> Factorization:
    """Factorization of n != 0 within the effort budget, or until ``enough``.

    Trial division by the primes below ``TRIAL_BOUND`` = 10^6 (a gcd per
    chunk of primes, then division by the primes of the chunks that share a
    factor with n, until the rest is prime; the primes are read off the
    sieve only as far as this reaches), then ECM on Montgomery curves,
    which alone spends the budget and reports what its curves were charged
    as the result's ``effort``; every reported prime is certified by
    ``is_prime``.

    ``enough``, the caller's stop rule, is asked with the primes found so
    far after each prime trial division finds and before every ECM call;
    once it holds, trial division ends, a prime or square rest is still
    recorded, and each composite left goes unsplit into ``cofactor``, as
    one that survives the budget does, small primes and all.  A rule that
    is monotone in the primes found, as the search's is, and holds after the
    whole sweep first held at some prime of it, so asking it early changes
    no ECM call and no effort.  Without it the factorization runs to
    completion or to the end of the budget.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    if budget is None:
        budget = FactorBudget()
    sign = 1 if n > 0 else -1
    found: dict[int, int] = {}
    n = _trial_divide(abs(n), found, enough)
    pending = [n] if n > 1 else []
    cofactor = 1
    left = [budget.rho_iterations]
    while pending:
        m = pending.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            pending.extend([root, root])
            continue
        d = None if enough is not None and enough(found.keys()) else _ecm(m, left)
        if d is None:
            cofactor *= m
        else:
            pending.extend([d, m // d])
    factors = tuple(sorted(found.items()))
    return Factorization(sign=sign, factors=factors, cofactor=cofactor,
                         effort=budget.rho_iterations - left[0])


def is_square(n: int) -> bool:
    """Whether the integer n is a perfect square (False for n < 0)."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n
