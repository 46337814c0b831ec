import dataclasses
import random

import pytest

from heegner.classpoly import build_PD, build_Pl
from heegner.levels import LEVELS, level
from heegner.modpoly import (
    FPoly,
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


def fp(coeffs, q):
    return FPoly.from_coeffs(coeffs, q)


class TestSquarefreeDecomposition:
    def test_simple_square(self):
        # X^2 + 2X + 1 = (X+1)^2 mod 5
        dec = squarefree_decomposition(fp([1, 2, 1], 5))
        assert dec == [(fp([1, 1], 5), 2)]

    def test_P220_mod_5(self):
        # X^2 - 77X + 121 = (X+4)^2 mod 5
        dec = squarefree_decomposition(fp([121, -77, 1], 5))
        assert dec == [(fp([4, 1], 5), 2)]

    def test_qth_power(self):
        # (X+1)^5 mod 5 = X^5 + 1 has zero derivative
        f = fp([1, 0, 0, 0, 0, 1], 5)
        assert squarefree_decomposition(f) == [(fp([1, 1], 5), 5)]

    def test_mixed_multiplicities(self):
        q = 7
        f = fp([3, 1], q)  # X + 3
        g = fp([1, 1], q)  # X + 1
        prod = fq_mul(f, *[g] * 6)  # (X+3)(X+1)^6
        dec = dict((tuple(p.coeffs), e) for p, e in squarefree_decomposition(prod))
        assert dec == {(3, 1): 1, (1, 1): 6}

    def test_reconstruction_random(self):
        rng = random.Random(17)
        for _ in range(500):
            q = rng.choice([3, 5, 7, 11, 13, 23, 41, 59, 83, 97])
            f = _random_monic(rng, q, rng.randrange(1, 4))
            g = _random_monic(rng, q, rng.randrange(1, 4))
            prod = fq_mul(f, g, g)
            dec = squarefree_decomposition(prod)
            acc = FPoly(q, (1,))
            for part, e in dec:
                assert part.is_monic()
                for _ in range(e):
                    acc = fq_mul(acc, part)
            assert acc.coeffs == prod.coeffs
            # parts squarefree and pairwise coprime
            for i, (part, _) in enumerate(dec):
                assert _gcd(part.coeffs, _diff(part.coeffs, q), q) == (1,)
                for part2, _ in dec[i + 1 :]:
                    assert _gcd(part.coeffs, part2.coeffs, q) == (1,)

    def test_against_brute_factorization(self):
        rng = random.Random(23)
        for _ in range(120):
            q = rng.choice([3, 5, 7, 11, 13])
            f = _random_monic(rng, q, rng.randrange(2, 9))
            brute = factor_fq_brute(f.coeffs, q)
            dec = squarefree_decomposition(f)
            # group brute factors by multiplicity and compare products
            by_mult = {}
            for g, e in brute.items():
                acc = by_mult.get(e, FPoly(q, (1,)))
                by_mult[e] = fq_mul(acc, FPoly(q, g))
            got = {e: p.coeffs for p, e in dec}
            want = {e: p.coeffs for e, p in by_mult.items()}
            assert got == want, (q, f.coeffs)

    def test_small_q_degree8_exhaustive_oracle(self):
        rng = random.Random(29)
        for q in (3, 5, 7, 11, 13, 37, 47):
            dmax = 8 if q <= 13 else 4
            inputs = [_random_monic(rng, q, rng.randrange(2, dmax + 1)) for _ in range(20)]
            for _ in range(20):
                g = _random_monic(rng, q, rng.randrange(1, (dmax - 2) // 2 + 1))
                inputs.append(fq_mul(_random_monic(rng, q, rng.randrange(1, 3)), g, g))
            for c in range(min(q, 4)):
                qth = fp([c] + [0] * (q - 1) + [1], q)  # (X + c)^q
                inputs += [qth, fq_mul(qth, qth)]
            squares = 0
            for f in inputs:
                brute = factor_fq_brute(f.coeffs, q)
                square_free_part = FPoly(q, (1,))
                for g, e in brute.items():
                    if e % 2:
                        square_free_part = fq_mul(square_free_part, FPoly(q, g))
                oracle_is_square = square_free_part.coeffs == (1,)
                root = is_perfect_square(f)
                assert (root is not None) == oracle_is_square, (q, f.coeffs)
                if root is not None:
                    squares += 1
                    assert root.is_monic() and fq_mul(root, root).coeffs == f.coeffs
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
            f = FPoly.from_coeffs(poly.coefficients, q)
            even = all(e % 2 == 0 for _, e in squarefree_decomposition(f))
            root = is_perfect_square(f)
            assert (root is not None) == even, (p, ell, poly.D, q)
            if root is not None:
                assert fq_mul(root, root).coeffs == f.coeffs
            outcomes.append(even)
    assert len(outcomes) > 2 * 160 and len(set(outcomes)) == 2


def _random_monic(rng, q, degree):
    coeffs = [rng.randrange(q) for _ in range(degree)] + [1]
    return FPoly.from_coeffs(coeffs, q)


class TestPerfectSquare:
    def test_P220_mod_5(self):
        root = is_perfect_square(fp([121, -77, 1], 5))
        assert root == fp([4, 1], 5)

    def test_odd_exponent(self):
        assert is_perfect_square(fp([0, 0, 0, 1], 7)) is None  # X^3

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
        root = is_perfect_square(fp(coeffs, 37))
        assert root is not None and root.degree == 4

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            is_perfect_square(fp([1, 0, 2], 5))


class TestSquareTimesLinear:
    def test_exact_linear(self):
        q = 101
        root = is_square_times_linear(fp([22, 1], q), -22)
        assert root == FPoly(q, (1,))

    def test_shifted_square(self):
        q = 31
        g = fp([5, 2, 1], q)
        f = fq_mul(fp([22, 1], q), g, g)
        root = is_square_times_linear(f, -22)
        assert root == g

    def test_nondivisible_raises(self):
        with pytest.raises(ArithmeticError):
            is_square_times_linear(fp([1, 1, 0, 1], 7), -6)


class TestLinearDivision:
    # random monic f with planted repeated roots, divided by X - r for every
    # residue r, roots and non-roots, written in [0, q) and below it
    def cases(self):
        rng = random.Random(41)
        for q in (3, 5, 7, 11, 13, 31):
            for _ in range(25):
                planted = [fp([-rng.randrange(q), 1], q) for _ in range(rng.randrange(0, 4))]
                f = fq_mul(_random_monic(rng, q, rng.randrange(0, 5)), *planted, *planted)
                for r in range(-q, q):
                    yield f, r

    def test_against_oracle_division(self):
        for f, r in self.cases():
            quot, rem = _divide_linear(f.coeffs, r, f.q)
            assert (quot, (rem,) if rem else ()) == _fq_divmod(f.coeffs, (-r % f.q, 1), f.q)

    def test_root_multiplicity_against_repeated_oracle_division(self):
        repeated = 0
        for f, r in self.cases():
            count, coeffs = 0, f.coeffs
            while not (step := _fq_divmod(coeffs, (-r % f.q, 1), f.q))[1]:
                count, coeffs = count + 1, step[0]
            assert _root_multiplicity(f, r) == count, (f.coeffs, r)
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
    def test_p11(self):
        t = brandt_table(11)
        assert t.basis == (0, -1)
        assert t.matrix == ((1, 2), (3, 0))

    def test_p19(self):
        t = brandt_table(19)
        assert t.basis == (0, 8)
        assert t.matrix == ((1, 2), (1, 2))

    def test_p23(self):
        t = brandt_table(23)
        assert t.matrix == ((1, 2, 0), (1, 1, 1), (0, 3, 0))
        assert "not proven" in t.note

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
