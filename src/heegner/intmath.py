"""Exact integer arithmetic: Kronecker symbols, primality, factorization.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (always normalized, positive denominator).  Everything
here is pure and deterministic; the Miller-Rabin rounds beyond the
deterministic 64-bit range use a PRNG seeded from the input itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = [
    "Factorization",
    "FactorBudget",
    "kronecker",
    "is_prime",
    "factorize",
    "is_square",
    "squarefree_part",
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


# Deterministic Miller-Rabin witnesses for n < 2**64 (Sinclair set).
_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
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


def is_prime(n: int) -> bool:
    """Primality test: deterministic below 2**64, error < 2**-128 above."""
    if n < 0:
        raise ValueError("is_prime expects n >= 0")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 2**64:
        witnesses = _MR_WITNESSES_64
    else:
        # 66 rounds at error <= 1/4 each: strictly below 2**-128
        rng = random.Random(n)  # deterministic per input
        witnesses = [rng.randrange(2, n - 1) for _ in range(66)]
    return all(_miller_rabin(n, a) for a in witnesses)


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization; ``cofactor`` holds any unfactored composite."""

    sign: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]

    def value(self) -> int:
        v = self.sign * self.cofactor
        for p, e in self.factors:
            v *= p**e
        return v


@dataclass
class FactorBudget:
    """Effort limits for ``factorize``.

    The rho budget counts total iterations of Brent's cycle walk across all
    split attempts; hard composites surviving it are reported as an unfactored
    cofactor so callers can skip rather than stall.  The default splits
    anything with a prime factor below ~1e12 in a few seconds; raise it when
    stalling is acceptable.
    """

    trial_bound: int = 10**6
    rho_iterations: int = 1 << 22


_sieve_cache: dict[int, list[int]] = {}


def _primes_below(bound: int) -> list[int]:
    primes = _sieve_cache.get(bound)
    if primes is None:
        sieve = bytearray([1]) * bound
        sieve[0:2] = b"\x00\x00"
        for i in range(2, math.isqrt(bound - 1) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        primes = [i for i in range(bound) if sieve[i]]
        _sieve_cache[bound] = primes
    return primes


def _brent_rho(n: int, budget: list[int]) -> int | None:
    """Brent's cycle variant of Pollard rho; returns a nontrivial factor."""
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


def factorize(n: int, budget: FactorBudget | None = None) -> Factorization:
    """Complete factorization of n != 0 within the effort budget.

    Trial division up to ``budget.trial_bound`` followed by Brent rho; every
    reported prime is certified by ``is_prime``.  A surviving composite is
    returned in ``cofactor`` and must be treated as unusable by callers.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    if budget is None:
        budget = FactorBudget()
    sign = 1 if n > 0 else -1
    n = abs(n)
    found: dict[int, int] = {}
    for p in _primes_below(budget.trial_bound):
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    # n is now 1, a prime, or has all prime factors above the trial bound
    pending = [n] if n > 1 else []
    cofactor = 1
    rho_budget = [budget.rho_iterations]
    while pending:
        m = pending.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            pending.extend([root, root])
            continue
        d = _brent_rho(m, rho_budget)
        if d is None:
            cofactor *= m
        else:
            pending.extend([d, m // d])
    factors = tuple(sorted(found.items()))
    return Factorization(sign=sign, factors=factors, cofactor=cofactor)


def is_square(n: int) -> bool:
    """Whether the integer n is a perfect square (False for n < 0)."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def squarefree_part(n: int, budget: FactorBudget | None = None) -> tuple[int, int]:
    """Write n = s**2 * m with m squarefree; returns (m, s)."""
    if n == 0:
        raise ValueError("squarefree_part expects n != 0")
    fac = factorize(abs(n), budget)
    if not fac.complete:
        raise ValueError(f"could not fully factor {n}")
    m, s = 1 if n > 0 else -1, 1
    for p, e in fac.factors:
        s *= p ** (e // 2)
        if e % 2:
            m *= p
    return m, s
