import dataclasses
import random

import pytest

from heegner.classpoly import build_PD, build_Pl
from heegner.levels import LEVELS, level
from heegner.modpoly import (
    _divide_linear,
    _root_multiplicity,
    epsilon_split,
    is_perfect_square,
    is_square_times_linear,
    mod_p_square_check,
)

from oracles import (
    _diff,
    _fq_divmod,
    _gcd,
    brandt_table,
    column_sums,
    factor_fq_brute,
    fq_mul,
    squarefree_decomposition,
    t2_degree_check,
)


class TestSquarefreeDecomposition:
    def test_simple_square(self):
        # X^2 + 2X + 1 = (X+1)^2 mod 5
        dec = squarefree_decomposition((1, 2, 1), 5)
        assert dec == [((1, 1), 2)]

    def test_P220_mod_5(self):
        # X^2 - 77X + 121 = (X+4)^2 mod 5
        dec = squarefree_decomposition((121, -77, 1), 5)
        assert dec == [((4, 1), 2)]

    def test_qth_power(self):
        # (X+1)^5 mod 5 = X^5 + 1 has zero derivative
        assert squarefree_decomposition((1, 0, 0, 0, 0, 1), 5) == [((1, 1), 5)]

    def test_mixed_multiplicities(self):
        q = 7
        f = (3, 1)  # X + 3
        g = (1, 1)  # X + 1
        prod = fq_mul([f] + [g] * 6, q)  # (X+3)(X+1)^6
        dec = dict(squarefree_decomposition(prod, q))
        assert dec == {(3, 1): 1, (1, 1): 6}

    def test_reconstruction_random(self):
        rng = random.Random(17)
        for _ in range(500):
            q = rng.choice([3, 5, 7, 11, 13, 23, 41, 59, 83, 97])
            f = _random_monic(rng, q, rng.randrange(1, 4))
            g = _random_monic(rng, q, rng.randrange(1, 4))
            prod = fq_mul([f, g, g], q)
            dec = squarefree_decomposition(prod, q)
            acc = (1,)
            for part, e in dec:
                assert part[-1] == 1
                for _ in range(e):
                    acc = fq_mul([acc, part], q)
            assert acc == prod
            # parts squarefree and pairwise coprime
            for i, (part, _) in enumerate(dec):
                assert _gcd(part, _diff(part, q), q) == (1,)
                for part2, _ in dec[i + 1 :]:
                    assert _gcd(part, part2, q) == (1,)

    def test_against_brute_factorization(self):
        rng = random.Random(23)
        for _ in range(120):
            q = rng.choice([3, 5, 7, 11, 13])
            f = _random_monic(rng, q, rng.randrange(2, 9))
            brute = factor_fq_brute(f, q)
            dec = squarefree_decomposition(f, q)
            # group brute factors by multiplicity and compare products
            by_mult = {}
            for g, e in brute.items():
                by_mult[e] = fq_mul([by_mult.get(e, (1,)), g], q)
            got = {e: p for p, e in dec}
            assert got == by_mult, (q, f)

    def test_small_q_degree8_exhaustive_oracle(self):
        rng = random.Random(29)
        for q in (3, 5, 7, 11, 13, 37, 47):
            dmax = 8 if q <= 13 else 4
            inputs = [_random_monic(rng, q, rng.randrange(2, dmax + 1)) for _ in range(20)]
            for _ in range(20):
                g = _random_monic(rng, q, rng.randrange(1, (dmax - 2) // 2 + 1))
                inputs.append(fq_mul([_random_monic(rng, q, rng.randrange(1, 3)), g, g], q))
            for c in range(min(q, 4)):
                qth = (c,) + (0,) * (q - 1) + (1,)  # (X + c)^q
                inputs += [qth, fq_mul([qth, qth], q)]
            squares = 0
            for f in inputs:
                brute = factor_fq_brute(f, q)
                square_free_part = fq_mul([g for g, e in brute.items() if e % 2], q)
                oracle_is_square = square_free_part == (1,)
                root = is_perfect_square(f, q)
                assert (root is not None) == oracle_is_square, (q, f)
                if root is not None:
                    squares += 1
                    assert root[-1] == 1 and fq_mul([root, root], q) == f
            assert squares >= min(q, 4)


def test_sweep_square_test_against_decomposition(sweep_polys):
    # mod l the 160 class polynomials, mod p each of them and the product
    # P_l the search tests at the levels with two shapes
    outcomes = []
    for (p, ell), shapes in sweep_polys.items():
        polys = [shapes["-pl"], shapes["-4pl"]]
        cases = [(poly, ell) for poly in polys] + [(poly, p) for poly in polys]
        if len(level(p).shapes) == 2:
            cases.append((build_Pl(tuple(polys)), p))
        for poly, q in cases:
            f = poly.coefficients
            even = all(e % 2 == 0 for _, e in squarefree_decomposition(f, q))
            root = is_perfect_square(f, q)
            assert (root is not None) == even, (p, ell, poly.D, q)
            if root is not None:
                assert fq_mul([root, root], q) == tuple(c % q for c in f)
            outcomes.append(even)
    assert len(outcomes) > 2 * 160 and len(set(outcomes)) == 2


def _random_monic(rng, q, degree):
    return tuple(rng.randrange(q) for _ in range(degree)) + (1,)


class TestPerfectSquare:
    def test_P220_mod_5(self):
        root = is_perfect_square((121, -77, 1), 5)
        assert root == (4, 1)

    def test_odd_exponent(self):
        assert is_perfect_square((0, 0, 0, 1), 7) is None  # X^3

    def test_P1628_mod_37(self):
        coeffs = [
            4253517961,
            -9354295951,
            8630555868,
            -4464256335,
            1453552981,
            -167281605,
            -2728753,
            -101042,
            1,
        ]
        root = is_perfect_square(coeffs, 37)
        assert root is not None and len(root) - 1 == 4

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            is_perfect_square((1, 0, 2), 5)


class TestSquareTimesLinear:
    def test_exact_linear(self):
        q = 101
        root = is_square_times_linear((22, 1), q, -22)
        assert root == (1,)

    def test_shifted_square(self):
        q = 31
        g = (5, 2, 1)
        f = fq_mul([(22, 1), g, g], q)
        root = is_square_times_linear(f, q, -22)
        assert root == g

    def test_nondivisible_raises(self):
        with pytest.raises(ArithmeticError):
            is_square_times_linear((1, 1, 0, 1), 7, -6)


class TestInputChecks:
    # the square tests take integer coefficients and the modulus, and check
    # both themselves
    @pytest.mark.parametrize("q", [2, 4, 9, 15, 1, 0])
    def test_modulus_must_be_an_odd_prime(self, q):
        with pytest.raises(ValueError, match="odd prime"):
            is_perfect_square((1, 2, 1), q)
        with pytest.raises(ValueError, match="odd prime"):
            is_square_times_linear((1, 1), q, -1)

    @pytest.mark.parametrize("f", [(1, 0, 2), (1, 2, 1, 5), (5,), ()])
    def test_non_monic_raises(self, f):
        # modulo 5: leading coefficient 2, a leading 5 = 0, and the zero
        # polynomial in two spellings
        with pytest.raises(ValueError, match="monic"):
            is_perfect_square(f, 5)
        with pytest.raises(ValueError, match="monic"):
            is_square_times_linear(f, 5, 1)

    def test_unreduced_coefficients_give_the_root_of_their_reduction(self):
        rng = random.Random(43)
        squares = linear_squares = 0
        for q in (3, 5, 7, 11, 13, 31):
            for _ in range(40):
                g = _random_monic(rng, q, rng.randrange(0, 4))
                f = fq_mul([g, g], q) if rng.randrange(2) else _random_monic(rng, q, 2 * len(g))
                r = rng.randrange(q)
                h = fq_mul([(-r % q, 1), f], q)
                root, linear_root = is_perfect_square(f, q), is_square_times_linear(h, q, r)
                lifted_f, lifted_h = (tuple(c + q * rng.randrange(-99, 99) for c in poly)
                                      for poly in (f, h))
                lifted_r = r + q * rng.randrange(-99, 99)
                assert is_perfect_square(lifted_f, q) == root, (q, lifted_f)
                assert is_square_times_linear(lifted_h, q, lifted_r) == linear_root, (q, lifted_h)
                squares += root is not None
                linear_squares += linear_root is not None
        assert squares > 100 and linear_squares > 100

    def test_modulus_checked_once_per_call(self, monkeypatch):
        import heegner.modpoly as mod

        real, seen = mod.is_prime, []
        monkeypatch.setattr(mod, "is_prime", lambda n: seen.append(n) or real(n))
        assert is_perfect_square((121, -77, 1), 5) == (4, 1)
        assert is_square_times_linear((22, 1), 101, -22) == (1,)
        assert mod_p_square_check(build_PD(-220, 11), build_PD(-55, 11)) is not None
        assert seen == [5, 101, 11]


class TestLinearDivision:
    # random monic f with planted repeated roots, divided by X - r for every
    # residue r, roots and non-roots, written in [0, q) and below it
    def cases(self):
        rng = random.Random(41)
        for q in (3, 5, 7, 11, 13, 31):
            for _ in range(25):
                planted = [(-rng.randrange(q) % q, 1) for _ in range(rng.randrange(0, 4))]
                f = fq_mul([_random_monic(rng, q, rng.randrange(0, 5)), *planted, *planted], q)
                for r in range(-q, q):
                    yield f, q, r

    def test_against_oracle_division(self):
        for f, q, r in self.cases():
            quot, rem = _divide_linear(f, r, q)
            assert (quot, (rem,) if rem else ()) == _fq_divmod(f, (-r % q, 1), q)

    def test_root_multiplicity_against_repeated_oracle_division(self):
        repeated = 0
        for f, q, r in self.cases():
            count, coeffs = 0, f
            while not (step := _fq_divmod(coeffs, (-r % q, 1), q))[1]:
                count, coeffs = count + 1, step[0]
            assert _root_multiplicity(f, r, q) == count, (f, r)
            repeated += count > 1
        assert repeated


class TestEpsilonSplit:
    @pytest.mark.parametrize("D,eps", [(-55, 2), (-15, 2), (-35, 0), (-91, 0), (-39, 2)])
    def test_values(self, D, eps):
        assert epsilon_split(D) == eps

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            epsilon_split(-220)


class TestT2DegreeCheck:
    def test_known_cases(self):
        assert t2_degree_check(11, 5)
        assert t2_degree_check(3, 5)

    def test_twenty_more_pairs(self):
        from heegner.intmath import is_prime

        pairs = []
        for p in (3, 7, 11, 19, 5, 13):
            ell = 2
            while len(pairs) < 30:
                ell += 1
                if is_prime(ell) and ell != p and (p * ell) % 4 == 3:
                    pairs.append((p, ell))
                if ell > 60:
                    break
        assert len(pairs) >= 22
        for p, ell in pairs:
            assert t2_degree_check(p, ell), (p, ell)


class TestBrandtTable:
    # the basis is the level's supersingular residues, ascending
    def test_p11(self):
        assert level(11).supersingular == (0, 10)
        assert brandt_table(11) == ((1, 2), (3, 0))

    def test_p19(self):
        assert level(19).supersingular == (0, 8)
        assert brandt_table(19) == ((1, 2), (1, 2))

    def test_p23(self):
        # an odd column sum is where the argument stops at p = 23
        assert level(23).supersingular == (11, 15, 18)
        assert brandt_table(23) == ((1, 1, 1), (3, 0, 0), (2, 0, 1))
        assert column_sums(brandt_table(23)) == (6, 1, 2)

    def test_column_sums_parity(self):
        assert all(s % 2 == 0 for s in column_sums(brandt_table(11)))
        assert all(s % 2 == 0 for s in column_sums(brandt_table(19)))
        assert any(s % 2 == 1 for s in column_sums(brandt_table(23)))

    def test_rejects_other_p(self):
        with pytest.raises(ValueError):
            brandt_table(7)


class TestModPSquareCheck:
    def test_t2_level_requires_its_companion(self):
        # at p = 11 the T_2 check has one path: eps comes from the companion
        # P_(-pl), so a missing or mismatched companion raises
        poly = build_PD(-220, 11)
        assert mod_p_square_check(poly, build_PD(-55, 11)) is not None
        for companion in (None, build_PD(-407, 11), poly):
            with pytest.raises(ValueError, match="companion"):
                mod_p_square_check(poly, companion)

    def test_t2_pattern_mismatch_is_no_square(self):
        # P_-220 = X^2 mod 11 is the pattern of the companion P_-55 = X (X + 1)
        # mod 11; a companion X^2 of the same D predicts another one
        poly, companion = build_PD(-220, 11), build_PD(-55, 11)
        assert mod_p_square_check(poly, companion) is not None
        other = dataclasses.replace(companion, coefficients=(0, 0, 1))
        assert mod_p_square_check(poly, other) is None

    def test_companion_roots_outside_the_brandt_basis_raise(self):
        # X^2 + 1 has no root mod 11, so neither 0 nor -1 counts its roots
        poly, companion = build_PD(-220, 11), build_PD(-55, 11)
        other = dataclasses.replace(companion, coefficients=(1, 0, 1))
        with pytest.raises(ArithmeticError, match="outside the Brandt basis"):
            mod_p_square_check(poly, other)

    def test_residue_order_indexes_the_brandt_matrix(self, monkeypatch, sweep_polys):
        # B(2) at p = 11 on the residues (0, 10) in that order passes every
        # sweep pair; the same matrix written on (10, 0) predicts another
        # exponent pattern and passes none
        pairs = [shapes for (p, _), shapes in sweep_polys.items() if p == 11]
        assert len(pairs) == 12
        for pair in pairs:
            assert mod_p_square_check(pair["-4pl"], pair["-pl"]) is not None, pair["-pl"].D
        swapped = ((0, 3), (2, 1))
        monkeypatch.setitem(LEVELS, 11, dataclasses.replace(LEVELS[11], brandt=swapped))
        for pair in pairs:
            assert mod_p_square_check(pair["-4pl"], pair["-pl"]) is None, pair["-pl"].D

    def test_t2_pattern_holds_at_19(self, monkeypatch, sweep_polys):
        # the Brandt data of p = 19 predicts its exponent pattern too, so the
        # t2_check flag could follow from the table's brandt entry
        monkeypatch.setitem(LEVELS, 19, dataclasses.replace(LEVELS[19], t2_check=True))
        shapes = [shapes for (p, _), shapes in sweep_polys.items() if p == 19]
        assert len(shapes) == 12
        for pair in shapes:
            with pytest.raises(ValueError, match="companion"):
                mod_p_square_check(pair["-4pl"])
            assert mod_p_square_check(pair["-4pl"], pair["-pl"]) is not None, pair["-pl"].D
