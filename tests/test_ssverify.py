import builtins
import itertools
import random
import re
from fractions import Fraction

import mpmath
import pytest

from heegner import intmath, ssverify, supersingular
from heegner.intmath import is_prime, kronecker
from heegner.ssverify import (
    QuadSurd,
    _is_supersingular,
    _local,
    _residues,
    lift_j_from_h_level3,
    verify_certificate,
)
from heegner.supersingular import Fq2Field, is_supersingular, phi2_roots

from oracles import norm_square_check, point_count, reduce_mod_by_kronecker, supersingular_mass

ABOVE_VERIFY_BOUND = 2**64 + 13  # the least prime above the bound

J11_POINT = QuadSurd.from_string("(-489229980611-42355313*sqrt(-84567))/4096")

# a 49-digit integer that the default factoring budget does not split
UNFACTORED = 1000000000000000000000808000000000000000000005607


class TestQuadSurd:
    def test_parse_known_invariant(self):
        assert J11_POINT.u == -489229980611
        assert J11_POINT.v == -42355313
        assert J11_POINT.w == 4096
        assert J11_POINT.m == -84567

    @pytest.mark.parametrize(
        "text,expect",
        [
            ("0/1", (0, 0, 1, 1)),
            ("21/2", (21, 0, 2, 1)),
            ("(3+sqrt(5))/2", (3, 1, 2, 5)),
            ("(3-2*sqrt(-7))/4", (3, -2, 4, -7)),
            ("sqrt(-3)", (0, 1, 1, -3)),
            ("-17", (-17, 0, 1, 1)),
        ],
    )
    def test_parse_shapes(self, text, expect):
        s = QuadSurd.from_string(text)
        assert (s.u, s.v, s.w, s.m) == expect

    def test_radicand_kept_as_given(self):
        # nothing is factored: sqrt(-12) is not rewritten as 2 sqrt(-3)
        s = QuadSurd(1, 1, 2, -12)
        assert (s.u, s.v, s.w, s.m) == (1, 1, 2, -12)
        assert QuadSurd(0, 1, 1, -UNFACTORED).m == -UNFACTORED

    def test_square_radicand_folded_into_u(self):
        # (1 + 2 sqrt(4)) / 1 is the rational 5: no conjugate to reduce
        assert QuadSurd(1, 2, 1, 4) == QuadSurd(5, 0, 1, 1)
        assert QuadSurd(3, -1, 2, 9) == QuadSurd(0, 0, 1, 1)

    @pytest.mark.parametrize("given,canonical", [
        ((1, 1, 1, 4), (3, 0, 1, 1)),  # (1 + sqrt(4)) / 1 is the number 3
        ((5, 0, 1, 7), (5, 0, 1, 1)),  # v = 0 drops m
        ((2, 0, -4, 1), (-1, 0, 2, 1)),  # w is made positive
    ])
    def test_every_construction_is_canonical(self, given, canonical):
        # the constructor is the one path, whatever form the caller wrote
        assert QuadSurd(*given) == QuadSurd(*canonical)
        assert hash(QuadSurd(*given)) == hash(QuadSurd(*canonical))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError, match="denominator is zero"):
            QuadSurd(1, 0, 0, 1)

    def test_gcd_normalization(self):
        s = QuadSurd(6, 4, 10, 7)
        assert (s.u, s.v, s.w) == (3, 2, 5)

    def test_round_trip(self):
        for s in (J11_POINT, QuadSurd(0, 0, 1, 1), QuadSurd(-3, 5, 7, -11)):
            assert QuadSurd.from_string(str(s)) == s

    def test_invalid(self):
        with pytest.raises(ValueError):
            QuadSurd.from_string("garbage+")

    @pytest.mark.parametrize("text", ["(1", "1)", "(1+sqrt(5)/2", "1+sqrt(5))/2",
                                      "1+sqrt(5)/2", "1sqrt(5)", "2 1/2", "1 2",
                                      "sqrt(1 3)", "3 2*sqrt(5)"])
    def test_read_only_as_written(self, text):
        # "1+sqrt(5)/2" is 1 + sqrt(5)/2, not (1 + sqrt(5))/2, a lone
        # parenthesis or a missing sign has no reading, and white space never
        # joins two numbers into one: each names the form
        with pytest.raises(ValueError, match=re.escape("(u+v*sqrt(m))/w")):
            QuadSurd.from_string(text)
        assert QuadSurd.from_string("sqrt(5)/2") == QuadSurd(0, 1, 2, 5)

    def test_white_space_around_tokens(self):
        assert QuadSurd.from_string(" 21/2 ") == QuadSurd(21, 0, 2, 1)
        assert QuadSurd.from_string("(1 + sqrt(5)) / 2") == QuadSurd(1, 1, 2, 5)
        assert QuadSurd.from_string("( 3 - 2 * sqrt( -7 ) ) / 4") == QuadSurd(3, -2, 4, -7)


class TestReduceMod:
    def test_known_mod_7(self):
        assert _residues(J11_POINT, Fq2Field(7)) == [(6, 0)]  # -84567 = 0 mod 7

    def test_known_mod_151(self):
        assert _residues(J11_POINT, Fq2Field(151)) == [(67, 0), (101, 0)]

    def test_zero_surd(self):
        assert _residues(QuadSurd(0, 0, 1, 5), Fq2Field(13)) == [(0, 0)]

    def test_inert_gives_fq2(self):
        assert kronecker(J11_POINT.m, 2309) == -1
        [(x0, x1)] = _residues(J11_POINT, Fq2Field(2309))
        assert 0 < x1 <= 2309 - x1  # the conjugate with the smaller x1

    @pytest.mark.parametrize("q", [5, 7, 11, 13, 151, 2309])
    def test_one_number_one_reduction(self, q):
        # sqrt(-12) = 2 sqrt(-3) and sqrt(50) = 5 sqrt(2), where 5 | w
        pairs = [((1, 1, 2, -12), (1, 2, 2, -3)), ((5, 1, 5, 50), (1, 1, 1, 2))]
        F = Fq2Field(q)
        for one, other in pairs:
            residues = _residues(_local(QuadSurd(*one), q), F)
            assert residues == _residues(_local(QuadSurd(*other), q), F)
            assert all(type(r) is tuple and len(r) == 2 for r in residues)

    def test_residues_are_roots_of_the_minimal_polynomial(self):
        # w^2 X^2 - 2uw X + u^2 - m v^2 vanishes at every residue, in the
        # standard F_q^2, for radicands with and without square factors
        rng = random.Random(29)
        primes = [q for q in range(5, 400) if is_prime(q)]
        for _ in range(200):
            m = rng.choice([-1, 1]) * rng.randrange(2, 60) * rng.choice([1, 4, 9, 25, 49])
            j = QuadSurd(rng.randrange(-99, 100), rng.randrange(1, 30), rng.randrange(1, 50), m)
            q = rng.choice(primes)
            if j.w % q == 0:
                continue
            F = Fq2Field(q)
            for x in _residues(j, F):
                value = F.sub(F.scale(F.mul(x, x), j.w * j.w), F.scale(x, 2 * j.u * j.w))
                assert F.add(value, ((j.u * j.u - j.m * j.v * j.v) % q, 0)) == (0, 0), (j, q)

    def test_q_squared_in_radicand_cancels_from_w(self):
        # (7 + sqrt(49 * 3)) / 7 = 1 + sqrt(3): good reduction at 7
        F = Fq2Field(7)
        local = _local(QuadSurd(7, 1, 7, 147), 7)
        assert local == QuadSurd(1, 1, 1, 3)
        assert _residues(local, F) == _residues(QuadSurd(1, 1, 1, 3), F) == [(1, 1)]
        assert _local(QuadSurd(1, 1, 7, 147), 7).w % 7 == 0  # (1 + 7 sqrt(3)) / 7

    def test_bad_reduction(self):
        assert _local(QuadSurd(1, 2, 35, -3), 7).w % 7 == 0  # 7 | w

    def test_agrees_with_the_kronecker_reference(self):
        # the field's square root of m decides split, inert and ramified m as
        # the symbol (m | q) does, also where q | v or q^2 | m, and the local
        # denominator decides bad reduction as the trace and norm do
        rng = random.Random(41)
        primes = [q for q in range(3, 400) if is_prime(q)]
        kinds = set()
        for _ in range(1500):
            q = rng.choice(primes)
            m = rng.choice([-1, 1]) * rng.randrange(2, 300) * rng.choice([1, q, q * q])
            j = QuadSurd(rng.randrange(-500, 500), rng.randrange(1, 30) * rng.choice([1, q]),
                         rng.randrange(1, 40) * rng.choice([1, 1, q]), m)
            local, expected = _local(j, q), reduce_mod_by_kronecker(j, q)
            if expected is None:
                assert local.w % q == 0, (j, q)
                kinds.add("bad")
                continue
            assert local.w % q != 0 and _residues(local, Fq2Field(q)) == expected, (j, q)
            if j.v % q == 0:
                kinds.add("q | v")
            elif j.m % (q * q) == 0:
                kinds.add("q^2 | m")
            else:
                kinds.add({1: "split", -1: "inert", 0: "ramified"}[kronecker(j.m, q)])
        assert kinds == {"split", "inert", "ramified", "q | v", "q^2 | m", "bad"}


class TestIsSupersingular:
    def test_known_values(self):
        F7, F151 = Fq2Field(7), Fq2Field(151)
        assert _is_supersingular(F7, (6, 0))
        assert _is_supersingular(F151, (67, 0))
        assert _is_supersingular(F151, (101, 0))

    def test_at_2309_via_fq2(self):
        F = Fq2Field(2309)
        [r] = _residues(J11_POINT, F)
        assert _is_supersingular(F, r)

    def test_1728_mod_7_same_class_as_6(self):
        assert 1728 % 7 == 6
        assert _is_supersingular(Fq2Field(7), (1728 % 7, 0))
        # cross-check with naive counting: #E(F_7) = 8 for y^2 = x^3 + x
        assert point_count(7, 1, 0) == 8

    def test_exhaustive_against_point_counting(self):
        for q in (5, 7, 11, 13, 17, 19, 23):
            F = Fq2Field(q)
            for j0 in range(q):
                by_hasse = _is_supersingular(F, (j0, 0))
                if j0 == 0:
                    a, b = 0, 1
                elif (j0 - 1728) % q == 0:
                    a, b = 1, 0
                else:
                    k = j0 * pow((1728 - j0) % q, -1, q) % q
                    a, b = 3 * k % q, 2 * k % q
                by_count = point_count(q, a, b) == q + 1
                assert by_hasse == by_count, (q, j0)

    def test_conjugate_consistency_at_certificate_primes(self):
        # both residues of the worked j-invariant at its certificate
        # primes are simultaneously supersingular; the guarantee comes from
        # the non-split CM reduction argument and holds at certificate
        # primes, not at arbitrary split primes
        for q in (151, 7):
            F = Fq2Field(q)
            verdicts = {_is_supersingular(F, r) for r in _residues(J11_POINT, F)}
            assert verdicts == {True}

    def test_characteristic_3_against_point_counting(self):
        # every curve y^2 = x^3 + a2 x^2 + a4 x + a6 over F_3: supersingular
        # iff its trace 4 - #E(F_3) is 0 mod 3, which the closed form j = 0
        # must match
        F, seen = Fq2Field(3), set()
        for a2, a4, a6 in itertools.product(range(3), repeat=3):
            b2, b4, b6, b8 = 4 * a2, 2 * a4, 4 * a6, 4 * a2 * a6 - a4 * a4
            disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
            if disc % 3 == 0:
                continue
            j = (b2 * b2 - 24 * b4) ** 3 * pow(disc, -1, 3) % 3
            count = 1 + sum((y * y - x**3 - a2 * x * x - a4 * x - a6) % 3 == 0
                            for x in range(3) for y in range(3))
            assert _is_supersingular(F, (j, 0)) == ((4 - count) % 3 == 0), (a2, a4, a6)
            seen.add(j)
        assert seen == {0, 1, 2}

    def test_characteristic_3_in_fq2(self):
        F = Fq2Field(3)
        assert _is_supersingular(F, (0, 0)) and _is_supersingular(F, (3, -6))
        assert not _is_supersingular(F, (0, 1))
        assert not _is_supersingular(F, (1, 2))


def test_supersingular_census_matches_mass_formula():
    # the supersingular 2-isogeny graph is connected: walking it from one
    # supersingular vertex must visit exactly floor(q/12) + 0, 1, 1, 2 (for
    # q = 1, 5, 7, 11 mod 12) vertices, each of which the test accepts
    for q in range(5, 200):
        if not is_prime(q):
            continue
        F = Fq2Field(q)
        start = next((j0, 0) for j0 in range(q) if is_supersingular(F, (j0, 0)))
        seen, frontier = {start}, [start]
        while frontier:
            j = frontier.pop()
            assert is_supersingular(F, j), (q, j)
            for r in phi2_roots(F, j):
                if r not in seen:
                    seen.add(r)
                    frontier.append(r)
        assert len(seen) == supersingular_mass(q), q


class TestVerifyCertificate:
    def test_known_certificate(self):
        statuses = verify_certificate((7, 151, 2309), J11_POINT)
        assert statuses == {7: "supersingular", 151: "supersingular", 2309: "supersingular"}

    def test_unverified_large(self):
        statuses = verify_certificate((ABOVE_VERIFY_BOUND,), J11_POINT)
        assert statuses == {ABOVE_VERIFY_BOUND: "unverified-large"}

    def test_a_rational_written_as_a_surd(self):
        # (1 + sqrt(4)) / 1 = 3 has the statuses of 3, with no conjugate to
        # disagree at q = 7
        statuses = verify_certificate((7, 11), QuadSurd(1, 1, 1, 4))
        assert statuses == verify_certificate((7, 11), QuadSurd(3, 0, 1, 1)) == {
            7: "ordinary", 11: "ordinary"}

    def test_bad_reduction_status(self):
        statuses = verify_certificate((5,), QuadSurd(1, 1, 5, -3))
        assert statuses == {5: "bad-reduction"}

    @pytest.mark.parametrize("text,status", [
        ("0/1", "supersingular"),
        ("(9+sqrt(-84567))/2", "supersingular"),  # 3 | m: ramified, j = 0 mod 3
        ("1/1", "ordinary"),
        ("(3+sqrt(-1))", "ordinary"),  # -1 inert mod 3: j = t in F_9, not 0
        ("(3+3*sqrt(-1))", "supersingular"),  # inert, both parts 0 mod 3
        ("(1+sqrt(-3))/3", "bad-reduction"),
    ])
    def test_q3_closed_form(self, text, status):
        assert verify_certificate((3,), QuadSurd.from_string(text)) == {3: status}

    def test_pow_calls_of_one_verification(self, monkeypatch):
        # verifying q = 6175217 for the level-3 point h = -40 makes one pow
        # per square root of a nonzero a in F_q, the exponentiation of its
        # Tonelli-Shanks (the root of a / m for a non-residue included),
        # plus two inversions, the reduction's 1/w and the 1/a of Cardano's
        # formula for the first roots, none in a step of the walk, plus the
        # field constructor's: an Euler test for each of 2, ..., m and the
        # powers m^d and m^(-(d+1)/2), plus the one is_prime(6175217) calls
        # (the strong test to base 2 of Baillie-PSW; its Lucas half takes no
        # pow), plus one per power in F_q^2, which raises the norm of its
        # base in F_q: the cube root's, and one for each base the search for
        # the cube-root constants tries.
        q = 6175217
        m = Fq2Field(q).m
        calls, roots = [], []

        def counted(*args):
            calls.append(args)
            return builtins.pow(*args)

        for module in (intmath, ssverify, supersingular):
            monkeypatch.setattr(module, "pow", counted, raising=False)
        root, power, powers = Fq2Field._root_or_twisted_root, Fq2Field._power, []
        monkeypatch.setattr(Fq2Field, "_root_or_twisted_root",
                            lambda F, a: roots.append(a) or root(F, a))
        monkeypatch.setattr(Fq2Field, "_power", lambda F, x, n: powers.append(n) or power(F, x, n))
        j = lift_j_from_h_level3(-40)
        assert verify_certificate((q,), j) == {q: "supersingular"}
        inversions = sum(1 for args in calls if args[1] == -1)
        exponentiations = sum(1 for a in roots if a)
        assert inversions == 2 and len(powers) >= 2
        assert len(calls) == exponentiations + inversions + len(powers) + (m - 1) + 2 + 1

    @pytest.mark.parametrize("q,j,symbol", [
        (6175217, lift_j_from_h_level3(-40), -1),  # inert m: one residue in F_q^2
        (151, J11_POINT, 1),  # split m: two residues in F_q
    ])
    def test_one_field_and_one_primality_test_per_prime(self, monkeypatch, q, j, symbol):
        assert kronecker(j.m, q) == symbol
        fields, tests = [], []
        init, prime = Fq2Field.__init__, ssverify.is_prime
        monkeypatch.setattr(Fq2Field, "__init__", lambda F, n: fields.append(n) or init(F, n))
        monkeypatch.setattr(ssverify, "is_prime", lambda n: tests.append(n) or prime(n))
        assert verify_certificate((q,), j) == {q: "supersingular"}
        assert fields == tests == [q]

    def test_rejects_2_and_composites(self):
        # q is tested where it enters, whatever the bound: 2^64 + 1 =
        # 274177 * 67280421310721 is not unverified-large
        for q in (2, 15, 2**64 + 1):
            for bound in ({}, {"effort_bound": 5}):
                with pytest.raises(ValueError, match="odd prime"):
                    verify_certificate((q,), J11_POINT, **bound)

    def test_bad_reduction_above_the_bound(self):
        # a q in the denominator is reported as such, whatever the bound
        j = QuadSurd(1, 1, 7, -3)
        assert verify_certificate((7,), j, effort_bound=5) == {7: "bad-reduction"}
        assert verify_certificate((7,), QuadSurd(7, 1, 7, 147), effort_bound=5) == {
            7: "unverified-large"}


class TestNormSquareCheck:
    def test_h_zero(self):
        norm, ok = norm_square_check(Fraction(0))
        assert ok and norm == Fraction(894967056)

    def test_h_21_over_2(self):
        norm, ok = norm_square_check(Fraction(21, 2))
        assert ok

    def test_real_case_rejected(self):
        with pytest.raises(ValueError):
            norm_square_check(Fraction(60))

    def test_hundred_random_admissible(self):
        rng = random.Random(3)
        for _ in range(100):
            num = rng.randrange(-539, 540)
            den = rng.randrange(1, 10)
            h = Fraction(num, den)
            if h * h >= 2916:
                continue
            _, ok = norm_square_check(h)
            assert ok, h


class TestLift:
    def test_lift_norm_matches_norm_check(self):
        rng = random.Random(7)
        for _ in range(25):
            h = Fraction(rng.randrange(-300, 300), rng.randrange(1, 8))
            if h * h >= 2916:
                continue
            j = lift_j_from_h_level3(h)
            norm, _ = norm_square_check(h)
            # N(j - 1728) computed from the surd representation
            u, v, w, m = j.u - 1728 * j.w, j.v, j.w, j.m
            lifted_norm = Fraction(u * u - m * v * v, w * w)
            assert lifted_norm == norm, h

    def test_lift_matches_numerical_j(self):
        # j = (t^2 - 486 t - 19683)^2 / t^3 + 1728 at a root t of
        # t^2 - h t + 729, to 60 digits, is the lifted surd or its conjugate
        rng = random.Random(11)
        with mpmath.workdps(60):
            for _ in range(25):
                h = Fraction(rng.randrange(-300, 300), rng.randrange(1, 8))
                if h * h >= 2916:
                    continue
                j = lift_j_from_h_level3(h)
                x = mpmath.mpf(h.numerator) / h.denominator
                t = (x + mpmath.sqrt(mpmath.mpc(x * x - 2916))) / 2
                expected = (t * t - 486 * t - 19683) ** 2 / t**3 + 1728
                root = mpmath.sqrt(mpmath.mpc(j.m))
                error = min(abs(expected - (j.u + s * j.v * root) / j.w) for s in (1, -1))
                assert error <= abs(expected) * mpmath.mpf(10) ** -50, h

    def test_lift_factors_nothing(self, monkeypatch):
        # m0 = 1 - 2916 N^2 has no squarefree part within the budget, and the
        # lift and its verification need none
        def refuse(*args, **kwargs):
            raise AssertionError("factorize called")

        monkeypatch.setattr(intmath, "factorize", refuse)
        j = lift_j_from_h_level3(Fraction(1, UNFACTORED))
        assert j.m == 1 - 2916 * UNFACTORED**2
        statuses = verify_certificate((17, 13850489), j)
        assert statuses == {17: "supersingular", 13850489: "supersingular"}

    def test_lift_is_nonreal(self):
        j = lift_j_from_h_level3(Fraction(21, 2))
        assert j.m < 0 and j.v != 0
