import dataclasses
import functools
import math
import os
import random
import subprocess
import sys
import threading
import time
from array import array

import pytest

from heegner import intmath
from heegner.intmath import (
    FactorBudget,
    factorize,
    is_prime,
    is_square,
    kronecker,
)

from oracles import (
    _reference_ladder,
    _reference_stage2,
    _reference_trial_divide,
    brent_rho,
    chernick_base_2_pseudoprimes,
    ecm_reference,
    factorize_by_trial_loop,
    is_prime_by_rounds,
    primes_below,
)


def product(f):
    """The integer a Factorization stands for."""
    return f.sign * f.cofactor * math.prod(p**e for p, e in f.factors)


def read_nothing(monkeypatch):
    """Reset the table of trial-division primes to nothing read off the sieve."""
    monkeypatch.setattr(intmath, "_primes", array("I", [2]))
    monkeypatch.setattr(intmath, "_flags_read", 0)


def segment_edge_primes():
    """The primes next to the first four segment edges of the sieve, and the
    primes next to 10^6: each edge's last prime below it and first above."""
    primes = primes_below(10**5)
    near = [999983, 1000003]
    for k in (1, 2, 3, 4):
        edge = 2 * k * intmath._SEGMENT
        i = next(i for i, q in enumerate(primes) if q > edge)
        near += primes[i - 1:i + 1]
    return sorted(near)


def euler_criterion(a, q):
    """Legendre symbol by Euler's criterion; oracle for odd prime q."""
    r = pow(a % q, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


class TestKronecker:
    def test_unit_numerator(self):
        assert kronecker(1, 55) == 1

    def test_known_nonresidues_mod_407(self):
        # 7 and 151 are quadratic nonresidues mod 11*37
        assert kronecker(7, 407) == -1
        assert kronecker(151, 407) == -1

    def test_2309_mod_55(self):
        assert kronecker(2309, 55) == -1

    def test_agrees_with_euler_criterion(self):
        for q in primes_below(1000):
            if q == 2:
                continue
            for a in range(1, q):
                assert kronecker(a, q) == euler_criterion(a, q), (a, q)

    def test_multiplicative_in_numerator(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randrange(1, 10**6)
            if n % 2 == 0:
                n += 1
            a, b = rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)
            assert kronecker(a, n) * kronecker(b, n) == kronecker(a * b, n)

    def test_multiplicative_in_denominator(self):
        rng = random.Random(11)
        for _ in range(500):
            a = rng.randrange(-10**6, 10**6)
            m, n = rng.randrange(1, 10**4), rng.randrange(1, 10**4)
            assert kronecker(a, m) * kronecker(a, n) == kronecker(a, m * n)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            kronecker(3, 0)

    def test_negative_denominator(self):
        # (a | -n) = (a | n) times -1 exactly when a < 0
        rng = random.Random(13)
        for _ in range(500):
            a, n = rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6)
            assert kronecker(a, -n) == kronecker(a, n) * (-1 if a < 0 else 1), (a, n)
        assert kronecker(-1, -1) == -1
        assert kronecker(0, -1) == 1


class TestIsPrime:
    def test_known_primes(self):
        assert is_prime(2309)
        assert is_prime(452233314041)
        assert is_prime(151)

    def test_one_is_not_prime(self):
        assert not is_prime(1)

    def test_large_factor_has_no_small_divisor(self):
        # cross-check of 452233314041 by trial division to 1e6
        n = 452233314041
        for p in primes_below(10**6):
            assert n % p != 0

    def test_matches_sieve_below_10000(self):
        primes = set(primes_below(10**4))
        for n in range(10**4):
            assert is_prime(n) == (n in primes), n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            is_prime(-7)

    def test_no_round_below_53_squared(self, monkeypatch):
        # with no prime factor up to 47, an n below 53^2 is prime
        def no_round(n, a):
            raise AssertionError(f"Miller-Rabin round on {n}")

        monkeypatch.setattr(intmath, "_miller_rabin", no_round)
        primes = set(primes_below(53 * 53))
        assert [n for n in range(53 * 53) if is_prime(n)] == sorted(primes)

    def test_agrees_with_66_rounds_below_2_64(self):
        # Baillie-PSW against 66 seeded Miller-Rabin rounds, on seeded odd n
        # of 12 to 64 bits, where it has no pseudoprime
        rng = random.Random(12)
        cases = []
        for _ in range(20000):
            bits = rng.randint(12, 64)
            cases.append(rng.randrange(1 << (bits - 1), 1 << bits) | 1)
        verdicts = [is_prime(n) for n in cases]
        assert verdicts == [is_prime_by_rounds(n) for n in cases]
        assert sum(verdicts) == 1928

    def test_rejects_base_2_pseudoprimes_below_2_64(self):
        # strong pseudoprimes to base 2 pass the first half of Baillie-PSW
        # and fall to the strong Lucas test: the first 16 (OEIS A001262),
        # one strong to every prime base up to 23, and Carmichael numbers
        a001262 = [2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633,
                   65281, 74665, 80581, 85489, 88357, 90751]
        primes = set(primes_below(91000))
        assert [n for n in range(3, 91000, 2)
                if n not in primes and intmath._miller_rabin(n, 2)] == a001262
        strong_to_23 = 3825123056546413051
        assert all(intmath._miller_rabin(strong_to_23, a)
                   for a in (2, 3, 5, 7, 11, 13, 17, 19, 23))
        chernick = chernick_base_2_pseudoprimes(1, 5)
        assert [k for k, _ in chernick] == [276, 370, 506, 710, 2256]
        for n in a001262 + [strong_to_23] + [n for _, n in chernick]:
            assert n < 2**64 and intmath._miller_rabin(n, 2)
            assert not is_prime(n), n

    def test_agrees_with_66_rounds_above_2_64(self):
        # Baillie-PSW against 66 seeded Miller-Rabin rounds (error below
        # 2^-128), on seeded odd n of 65 to 200 bits
        rng = random.Random(61)
        cases = []
        for _ in range(20000):
            bits = rng.randint(65, 200)
            cases.append(rng.randrange(1 << (bits - 1), 1 << bits) | 1)
        verdicts = [is_prime(n) for n in cases]
        assert verdicts == [is_prime_by_rounds(n) for n in cases]
        assert sum(verdicts) == 459

    def test_strong_lucas_passes_its_pseudoprimes_and_primes(self):
        # the first ten strong Lucas pseudoprimes with Selfridge's
        # parameters (OEIS A217255) pass, as do the primes, and no other
        # odd number below 60 000 does
        pseudoprimes = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519}
        primes = set(primes_below(60000))
        assert {n for n in range(3, 60000, 2) if intmath._strong_lucas(n)} == (
            primes - {2}) | pseudoprimes
        assert all(intmath._strong_lucas(q) for q in (2**89 - 1, 2**107 - 1, 2**127 - 1))

    def test_strong_lucas_rejects_squares(self):
        # no D has (D | n) = -1 for a square n, so it is rejected before the
        # search for D
        for q in (1000003, 2**61 - 1, 2**89 - 1):
            assert not intmath._strong_lucas(q * q)

    def test_rejects_base_2_pseudoprimes_above_2_64(self):
        # Carmichael numbers that pass the strong test to base 2 fall to the
        # Lucas half of Baillie-PSW
        chernick = chernick_base_2_pseudoprimes(1 << 20, 3)
        assert [k for k, _ in chernick] == [1051410, 1051980, 1052366]
        for _, n in chernick:
            assert n > 2**64 and intmath._miller_rabin(n, 2)
            assert not is_prime(n), n


class TestFactorize:
    def test_negative_prime(self):
        f = factorize(-2309)
        assert f.sign == -1
        assert f.factors == ((2309, 1),)
        assert f.complete

    def test_known_numerator_factorization(self):
        n = -(7**2) * 151 * 452233314041
        f = factorize(n)
        assert f.sign == -1
        assert f.factors == ((7, 2), (151, 1), (452233314041, 1))
        assert product(f) == n

    def test_unit(self):
        f = factorize(1)
        assert f.sign == 1 and f.factors == () and f.complete

    def test_reconstruction_and_certification(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randrange(2, 10**12) * rng.choice([1, -1])
            f = factorize(n)
            assert product(f) == n
            for p, e in f.factors:
                assert e >= 1 and is_prime(p)

    def test_semiprime_split_by_ecm(self):
        p, q = 1000003, 1000033
        f = factorize(p * q)
        assert f.factors == ((p, 1), (q, 1))

    def test_budget_exhaustion_reports_cofactor(self):
        # two 20-digit primes: a budget below one curve must give up cleanly
        p = 10000000000000000051
        q = 10000000000000000087
        f = factorize(p * q, FactorBudget(rho_iterations=16))
        assert not f.complete
        assert f.cofactor == p * q
        assert product(f) == p * q

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_negative_budget_rejected(self):
        # a search hands each factorization what is left of its budget, so a
        # remainder below zero must fail where it is made; zero is a spent
        # budget and buys no curve
        for units in (-1, -(1 << 16)):
            with pytest.raises(ValueError, match="rho_iterations"):
                FactorBudget(rho_iterations=units)
        n = 10000000000000000051 * 10000000000000000087
        f = factorize(n, FactorBudget(rho_iterations=0))
        assert (f.cofactor, f.factors, f.effort) == (n, (), 0)

    def test_chunked_trial_division_matches_loop(self):
        # trial division by a gcd per chunk of 256 primes finds what dividing
        # by every prime in turn finds
        primes = primes_below(10**6)
        rng = random.Random(29)
        cases = list(range(-3, 10**4))
        edges = [0, 1, 255, 256, 257, 511, 512, 1000, 40000, len(primes) - 257,
                 len(primes) - 256, len(primes) - 1]
        cases += [primes[i] * primes[j] for i in edges for j in edges]
        cases += [math.prod(rng.sample(primes, 3)) * rng.randrange(1, 100) for _ in range(50)]
        cases += [q**e * m for q in (997, 999979, 999983, 1000003) for e in (1, 2, 3)
                  for m in (1, 2, 999961)]
        cases.remove(0)
        for n in cases:
            assert factorize(n) == factorize_by_trial_loop(n), n

    def test_trial_divide_matches_full_sweep(self, monkeypatch):
        # stopping at a prime rest finds what the full sweep finds: no prime
        # below 10^6 but itself divides a prime; the cases whose primes sit
        # at the edges of the sieve's segments each start from an unread table
        primes = primes_below(10**6)
        rng = random.Random(67)
        cases = [1, 2, 3, 999983, 2**32 + 15, 2**89 - 1, 1000003 * 1000033]
        cases += [q**e for q in (2, 3, 997, 999983, 1000003) for e in (1, 2, 5)]
        cases += [q * (2**89 - 1) for q in (2, 997, 999983)]  # a prime rest after one chunk
        cases += [2 * 3 * 999983 * (2**61 - 1), 7**2 * 151 * 452233314041]
        for _ in range(300):
            bits = rng.randint(20, 300)
            n = rng.randrange(1 << (bits - 1), 1 << bits)
            n *= math.prod(rng.sample(primes, rng.randint(0, 3)))
            cases.append(n)
        for n in cases:
            found, reference = {}, {}
            assert (intmath._trial_divide(n, found), found) == (
                _reference_trial_divide(n, reference), reference), n
        near = segment_edge_primes()
        for n in [a * b * c for i, a in enumerate(near) for b in near[i:] for c in (1, 2**61 - 1)]:
            read_nothing(monkeypatch)
            found, reference = {}, {}
            assert (intmath._trial_divide(n, found), found) == (
                _reference_trial_divide(n, reference), reference), n

    def test_trial_divide_stops_where_the_full_sweep_does(self, monkeypatch):
        # asked after each prime divided out, the rule ends the sweep at the
        # same prime and leaves the same rest as the full sweep does, also
        # with primes at the edges of the sieve's segments, from an unread table
        primes = primes_below(1000)
        rng = random.Random(71)
        rules = [lambda found, k=k: len(found) >= k for k in (1, 2, 3)]
        rules.append(lambda found: any(q % 4 == 3 for q in found))
        near = segment_edge_primes()
        for a, b in zip(near, near[1:]):
            for enough in rules:
                n = 3 * a * b * (2**61 - 1)
                read_nothing(monkeypatch)
                found, reference = {}, {}
                assert (intmath._trial_divide(n, found, enough), found) == (
                    _reference_trial_divide(n, reference, enough), reference), n
        for _ in range(200):
            while not (is_prime(a := rng.getrandbits(30) | 1 << 29)
                       and is_prime(b := rng.getrandbits(30) | 1 << 29)):
                pass
            n = math.prod(rng.choices(primes, k=rng.randint(0, 5))) * a * b
            for enough in rules:
                found, reference = {}, {}
                assert (intmath._trial_divide(n, found, enough), found) == (
                    _reference_trial_divide(n, reference, enough), reference), n

    def test_prime_rest_ends_trial_division(self, monkeypatch):
        # the numerator of search(11, 21/2, count=3) is -7^2 151 452233314041:
        # the first chunk holds 7 and 151, and the prime rest ends the sweep
        # there; the full sweep takes 213 chunk gcds, up to the square root
        gcds = []
        real = intmath._chunk_product

        def counted(start):
            gcds.append(start)
            return real(start)

        monkeypatch.setattr(intmath, "_chunk_product", counted)
        f = factorize(-3346074290589359)
        assert f.factors == ((7, 2), (151, 1), (452233314041, 1)) and f.complete
        assert gcds == [0]


@pytest.fixture
def no_ecm(monkeypatch):
    def refuse(n, budget):
        raise AssertionError(f"ECM called on {n}")

    monkeypatch.setattr(intmath, "_ecm", refuse)


class TestStopRule:
    SEMIPRIME = 19963943130517 * 648155384310727  # left after trial division

    def test_rule_met_by_trial_division_skips_ecm(self, no_ecm):
        # the rule holds once 1531 is divided out, so trial division stops
        # there: 42391^2 stays in the cofactor with the semiprime, and the
        # rule is asked once more before the ECM call it saves
        seen = []

        def enough(found):
            seen.append(sorted(found))
            return 1531 in found

        f = factorize(-1531 * 42391**2 * self.SEMIPRIME, enough=enough)
        assert f.sign == -1 and f.factors == ((1531, 1),)
        assert f.cofactor == 42391**2 * self.SEMIPRIME and not f.complete
        assert seen == [[1531], [1531]]

    def test_rule_not_met_splits_with_ecm(self):
        f = factorize(1531 * self.SEMIPRIME, enough=lambda found: len(found) >= 2)
        assert f.primes() == [1531, 19963943130517, 648155384310727] and f.complete

    def test_rule_asked_again_after_each_split(self):
        # three 9-digit primes: the first ECM split leaves a prime and a
        # composite, and the rule then holds before the second split
        primes = (100000007, 100000037, 100000039)
        calls = []

        def enough(found):
            calls.append(len(found))
            return len(found) >= 1

        f = factorize(math.prod(primes), enough=enough)
        assert calls == [0, 1]
        assert len(f.factors) == 1 and f.cofactor * f.factors[0][0] == math.prod(primes)

    def test_prime_and_square_rest_not_left_unfactored(self, no_ecm):
        # no ECM is needed for a prime or a square of a prime, whatever the rule
        p = 648155384310727
        for n, factors in ((1531 * p, ((1531, 1), (p, 1))), (p * p, ((p, 2),)),
                           (1531 * p**2, ((1531, 1), (p, 2)))):
            f = factorize(n, enough=lambda found: True)
            assert f.factors == factors and f.complete, n

    def test_rule_that_never_holds_changes_nothing(self):
        budget = FactorBudget(rho_iterations=1 << 16)
        cases = [-(7**2) * 151 * 452233314041, 1000003 * 1000033, self.SEMIPRIME,
                 299715123907843986500722254012018833,
                 1000000000000000000000007 * 1000000000000000000000049]
        for n in cases:
            assert factorize(n, budget, lambda found: False) == factorize(n, budget), n


class TestTrialPrimes:
    def test_matches_reference_sieve(self):
        primes = intmath._trial_primes()
        assert list(primes) == primes_below(intmath.TRIAL_BOUND)
        assert (len(primes), primes[0], primes[-1]) == (78498, 2, 999983)

    def test_four_bytes_a_prime(self):
        primes = intmath._trial_primes()
        assert primes.itemsize * len(primes) <= 4 * len(primes)


class TestOnDemandTable:
    def test_primes_read_only_as_far_as_reached(self):
        # a fresh interpreter, so that no earlier test has read the table: the
        # level-3 worked example reads the first segment of the sieve only, and
        # a factorization that reaches ECM has read the table whole before its
        # first plan is built, so a plan reads no prime of its own
        p, q = 10000019, 10000079  # 8 digits each: no factor below 10^6
        script = (
            "from heegner import intmath, search\n"
            "intmath.factorize(2)\n"
            "search(3, -40)\n"
            "print(intmath._flags_read)\n"
            "plan, seen = intmath._ecm_plan, []\n"
            "intmath._ecm_plan = lambda b1: seen.append(intmath._flags_read) or plan(b1)\n"
            f"factors = intmath.factorize({p * q}).factors\n"
            "print(seen[0], len(intmath._primes), *(p for p, _ in factors))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(intmath.__file__))})
        assert done.returncode == 0, done.stderr
        first, (flags, count, *factors) = (list(map(int, line.split()))
                                           for line in done.stdout.splitlines())
        assert is_prime(p) and is_prime(q)
        assert first == [intmath._SEGMENT]
        assert flags >= intmath._FLAGS and count == len(primes_below(intmath.TRIAL_BOUND))
        assert factors == [p, q]

    def test_sieve_freed_once_read_whole(self, monkeypatch):
        # the sieve's 500 000 flags go when its last segment is read; later
        # readers find the whole table and mark no sieve again, nor do
        # readers that waited on one another while it was read
        marks, unmarked = [], intmath._sieve.__wrapped__
        monkeypatch.setattr(intmath, "_sieve", functools.cache(
            lambda: marks.append(1) or unmarked()))
        read_nothing(monkeypatch)
        intmath._trial_primes(intmath._CHUNK)
        assert intmath._sieve.cache_info().currsize == 1
        table = intmath._trial_primes()
        assert intmath._sieve.cache_info().currsize == 0
        assert intmath._trial_primes(intmath._CHUNK) is intmath._trial_primes() is table
        assert list(table) == primes_below(intmath.TRIAL_BOUND)
        assert factorize(999983 * 1000003).factors == ((999983, 1), (1000003, 1))
        assert (len(marks), intmath._sieve.cache_info().currsize) == (1, 0)
        read_nothing(monkeypatch)
        readers = [threading.Thread(target=intmath._trial_primes) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert list(intmath._primes) == list(table)
        assert (len(marks), intmath._sieve.cache_info().currsize) == (2, 0)

    def test_concurrent_readers_keep_the_table_in_order(self, monkeypatch):
        # threads that each read the table a chunk further at a time, as trial
        # division does, switching as often as the interpreter allows: the
        # table is read whole, each prime once and in order
        reference = primes_below(intmath.TRIAL_BOUND)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                read_nothing(monkeypatch)
                readers = [threading.Thread(target=lambda: [
                    intmath._trial_primes(count) for count in range(256, 80_000, 256)])
                    for _ in range(4)]
                for reader in readers:
                    reader.start()
                for reader in readers:
                    reader.join(timeout=60)
                assert not any(reader.is_alive() for reader in readers)
                assert list(intmath._primes) == reference
        finally:
            sys.setswitchinterval(interval)


class TestEcm:
    SEMIPRIME_P7 = (19963943130517, 648155384310727)  # from search(7, 2)
    TWO_25_DIGIT_PRIMES = (1000000000000000000000007, 1000000000000000000000049)

    def test_splits_level_7_semiprime(self):
        p, q = self.SEMIPRIME_P7
        f = factorize(p * q)
        assert f.factors == ((p, 1), (q, 1)) and f.complete

    def test_completes_cofactor_rho_gave_up_on(self):
        # search(7, 3/2, count=2) met this 36-digit composite; 2^22 rho
        # iterations did not split it
        n = 299715123907843986500722254012018833
        f = factorize(n)
        assert f.factors == ((8227830884240749, 1), (36426991284167748917, 1))

    def test_unsplittable_within_budget_time(self):
        # ECM spends the budget in units of one rho iteration's time
        n = math.prod(self.TWO_25_DIGIT_PRIMES)
        budget = FactorBudget(rho_iterations=1 << 16)
        factor_s, rho_s = [], []
        for _ in range(3):
            start = time.perf_counter()
            f = factorize(n, budget)
            factor_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            brent_rho(n, [1 << 16])
            rho_s.append(time.perf_counter() - start)
            assert f.cofactor == n and f.factors == ()
        assert min(factor_s) < 2 * min(rho_s), (factor_s, rho_s)

    def test_budget_beyond_schedule_buys_last_stage_curves(self, monkeypatch):
        # the last stage runs curves until the budget no longer covers one
        monkeypatch.setattr(intmath, "_ECM_SCHEDULE", ((300, 1), (1000, None)))
        first, last = (intmath._ecm_plan(b1)[2] // intmath._MULS_PER_RHO_ITERATION
                       for b1 in (300, 1000))
        n = math.prod(self.TWO_25_DIGIT_PRIMES)
        for curves in (0, 1, 3):
            budget = [first + curves * last + last - 1]
            assert intmath._ecm(n, budget) is None
            assert budget == [last - 1], curves

    def test_matches_reference(self):
        # the same curves, so the same factor or None and the same budget left
        # as the arithmetic the charge counts
        rng = random.Random(43)

        def prime(digits):
            while not is_prime(p := rng.randrange(10 ** (digits - 1), 10**digits)):
                pass
            return p

        cases = [(math.prod(prime(rng.randint(7, 14)) for _ in range(rng.choice((2, 3)))),
                  1 << 14) for _ in range(40)]
        cases += [(math.prod(self.SEMIPRIME_P7), FactorBudget().rho_iterations),
                  (math.prod(self.TWO_25_DIGIT_PRIMES), 1 << 16)]
        results = []
        for n, units in cases:
            budget, reference = [units], [units]
            results.append(intmath._ecm(n, budget))
            assert results[-1] == ecm_reference(n, reference), n
            assert budget == reference, n
        assert None in results and results[-2] == self.SEMIPRIME_P7[0]

    def test_ladder_matches_reference(self):
        # the ladder from (x / z : 1) gives the reference's projective point
        # from (x : z): the same x-coordinate, and the same gcd of Z with n
        rng = random.Random(47)
        for _ in range(50):
            n = rng.randrange(10**20, 10**40) | 1
            k = rng.randrange(1, 1 << rng.randint(1, 200))
            x, a24 = rng.randrange(n), rng.randrange(n)
            while math.gcd(z := rng.randrange(1, n), n) != 1:
                pass
            x1, z1 = intmath._ladder(k, x * pow(z, -1, n) % n, a24, n)
            x2, z2 = _reference_ladder(k, x, z, a24, n)
            assert (x1 * z2 - x2 * z1) % n == 0 and math.gcd(z1, n) == math.gcd(z2, n)

    def test_stage2_matches_reference_where_points_vanish(self):
        # modulo small primes, baby and giant points reach the identity, whose
        # Z cannot be inverted: the gcd with n stays the reference's
        giants = intmath._ecm_plan(300)[1]
        rng = random.Random(53)
        for n in (101 * 103, 211 * 1000003, 1009 * 1013):
            for _ in range(40):
                x, a24 = rng.randrange(n), rng.randrange(n)
                assert (math.gcd(intmath._ecm_stage2(x, 1, a24, n, giants), n)
                        == math.gcd(_reference_stage2(x, 1, a24, n, giants), n)), (n, x, a24)

    def test_effort_is_what_the_reference_charges(self):
        # a factorization reports as its effort the units its curves were
        # charged: for a semiprime, one ECM run that splits it or gives up
        for n, units in ((math.prod(self.SEMIPRIME_P7), FactorBudget().rho_iterations),
                         (math.prod(self.SEMIPRIME_P7), 1 << 14),
                         (math.prod(self.TWO_25_DIGIT_PRIMES), 1 << 16)):
            reference = [units]
            split = ecm_reference(n, reference)
            f = factorize(n, FactorBudget(rho_iterations=units))
            assert f.effort == units - reference[0] > 0, (n, units)
            assert f.complete == (split is not None), (n, units)

    def test_effort_zero_without_ecm(self, no_ecm):
        # the stop rule holds after trial division, or nothing is left to split
        n = 1531 * math.prod(self.SEMIPRIME_P7)
        assert factorize(n, enough=lambda found: 1531 in found).effort == 0
        assert factorize(1531 * 42391**2).effort == 0

    def test_effort_is_not_part_of_the_result(self):
        # the same factors charged a different effort compare equal
        f = factorize(math.prod(self.SEMIPRIME_P7))
        assert f.effort > 0 and dataclasses.replace(f, effort=0) == f

    def test_charge_per_curve(self):
        # a curve's charge is the budget's unit: changing it changes which
        # curves a budget buys
        assert [intmath._ecm_plan(b1)[2] for b1 in (300, 1000, 2000)] == [10771, 33787, 66041]

    def test_normalize(self):
        rng = random.Random(59)
        for n in (10**12 + 39, 101 * 103, 2**89 - 1):
            points = [(rng.randrange(n), rng.randrange(1, n)) for _ in range(30)]
            points = [(x, z) for x, z in points if math.gcd(z, n) == 1]
            assert intmath._normalize(points, n) == [x * pow(z, -1, n) % n for x, z in points]
        assert intmath._normalize([], 91) == []

    def test_normalize_returns_product_of_non_unit_zs(self):
        points = [(3, 5), (4, 7 * 6), (10, 9)]
        assert intmath._normalize(points, 91) == 5 * 42 * 9 % 91
        assert math.gcd(intmath._normalize(points, 91), 91) == 7

    def test_deterministic(self):
        budget = FactorBudget(rho_iterations=1 << 16)
        for n in (math.prod(self.SEMIPRIME_P7) * 1000003, math.prod(self.TWO_25_DIGIT_PRIMES)):
            assert factorize(n, budget) == factorize(n, budget)

    def test_factors_certified(self):
        rng = random.Random(17)
        for _ in range(5):
            primes = [p for p in (rng.randrange(10**7, 10**11) for _ in range(40))
                      if is_prime(p)][:3]
            n = math.prod(primes)
            f = factorize(n)
            assert f.complete and product(f) == n
            assert all(is_prime(p) for p in f.primes())
            assert sorted(f.primes()) == sorted(set(primes))


def test_is_square():
    assert is_square(0) and is_square(144)
    assert not is_square(2) and not is_square(-4)
