import hashlib
import math
import random
from fractions import Fraction

import pytest

from heegner.classpoly import (
    ClassPolynomial,
    build_PD,
    build_Pl,
    evaluate,
)
from heegner import classpoly, hauptmodul, quadforms
from heegner.hauptmodul import Ball
from heegner.levels import level
from heegner.quadforms import (
    Discriminant,
    class_number,
    enumerate_classes,
)
from heegner.sssearch import search_polynomial

from conftest import admissible_pairs
from oracles import (
    build_PD_via_square_root,
    compose,
    count_real_roots,
    int_poly_sqrt,
    p_ideal_class,
    poly_from_json,
    principal_form,
    real_roots,
    splits_by_class,
)

# SHA-256 of the 160 sweep polynomials as JSON lines, in admissible_pairs()
# order with -pl before -4pl
SWEEP_SHA256 = "6529952278c0a45b738e669271f9bea8e1641c478072507a15fc0cead974ed7e"

# SHA-256 of the 133 polynomials of admissible l in [300, 1000) at p = 3, 5,
# 11 and 19 over each level's shapes, as JSON lines in admissible_pairs()
# order (beyond_sweep_discriminants)
BEYOND_SWEEP_SHA256 = "d447595f5fc637726f76832a4206746788008712bce4cb58e5b0e0c5398fdc24"

P1628_COEFFS = (
    4253517961,
    -9354295951,
    8630555868,
    -4464256335,
    1453552981,
    -167281605,
    -2728753,
    -101042,
    1,
)


class TestBuildPD:
    def test_refuses_non_monic_or_unproven(self):
        with pytest.raises(ValueError, match="monic"):
            ClassPolynomial(11, -220, (121, -77, 2))
        ClassPolynomial(11, -220, (121, -77, 1))
        # the rounding proof is exact at 2^-20: a ball within 2^-20 - 2^-64
        # of 5 rounds, one whose edge reaches 5 + 2^-20 does not
        assert classpoly._round_proven([(5 << 64, (1 << 44) - 1)], 64) == (5,)
        assert classpoly._round_proven([(5 << 64, 1 << 44)], 64) is None
        assert classpoly._round_proven([((5 << 64) - 1, (1 << 44) - 2)], 64) == (5,)
        assert classpoly._round_proven([((5 << 64) - 1, (1 << 44) - 1)], 64) is None

    def test_minus_220(self):
        poly = build_PD(-220, 11)
        assert poly.coefficients == (121, -77, 1)

    def test_minus_1628(self):
        poly = build_PD(-1628, 11)
        assert poly.coefficients == P1628_COEFFS

    def test_degree_is_half_class_number(self):
        for p, ell, shape in (
            (11, 5, "-4pl"),
            (11, 5, "-pl"),
            (3, 13, "-4pl"),
            (5, 7, "-pl"),
            (19, 5, "-4pl"),
            (13, 7, "-4pl"),
        ):
            disc = Discriminant(p, ell, shape)
            poly = build_PD(disc)
            assert poly.degree == class_number(disc.D) // 2, disc

    def test_p_must_match_a_given_discriminant(self):
        disc = Discriminant(11, 5, "-4pl")
        with pytest.raises(ValueError, match="differs"):
            build_PD(disc, 7)
        assert build_PD(disc, 11).coefficients == (121, -77, 1)

    def test_monic_and_residual(self):
        # the residual, the farthest point of a coefficient ball from its
        # integer, is below 2^-20, compared in units of 2^-prec
        (poly,), _, ((coeffs, prec),) = traced_builds([Discriminant.from_D(-220, 11)])
        assert poly.coefficients[-1] == 1
        assert all(farthest(ball, n, prec) < 1 << (prec - 20)
                   for ball, n in zip(coeffs, poly.coefficients, strict=True))

    def test_cross_construction_agreement(self):
        for D, p in ((-220, 11), (-1628, 11), (-55, 11), (-60, 3), (-15, 5),
                     (-260, 13), (-380, 19), (-35, 7)):
            a = build_PD(D, p)
            b = build_PD_via_square_root(D, p)
            assert a == b and hash(a) == hash(b), (D, p)


class TestEvaluate:
    def test_known_values(self):
        h = Fraction(21, 2)
        assert evaluate(build_PD(-220, 11), h) == Fraction(-2309, 4)
        expected = Fraction(-(7**2) * 151 * 452233314041, 256)
        assert evaluate(build_PD(-1628, 11), h) == expected

    def test_integer_argument_gives_integer(self):
        poly = build_PD(-1628, 11)
        for h in (0, 1, -3, 21):
            value = evaluate(poly, Fraction(h))
            assert value.denominator == 1

    def test_denominator_is_perfect_square(self):
        import math

        poly = build_PD(-220, 11)
        for h in (Fraction(21, 2), Fraction(5, 3), Fraction(-7, 6)):
            den = evaluate(poly, h).denominator
            assert math.isqrt(den) ** 2 == den

    def test_matches_fraction_horner(self):
        # integer Horner on the homogenized numerator gives the value of
        # Horner's rule in Fractions: negative n, zero and d > 1 included
        rng = random.Random(3)
        hs = [Fraction(0), Fraction(1), Fraction(-40), Fraction(21, 2), Fraction(-7, 6),
              Fraction(-1, 9), 5]
        hs += [Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
               for _ in range(8)]
        for degree in range(10):
            coeffs = tuple(rng.randrange(-10**12, 10**12) for _ in range(degree)) + (1,)
            poly = ClassPolynomial(11, -220, coeffs)
            for h in hs:
                expected = Fraction(0)
                for c in reversed(coeffs):
                    expected = expected * Fraction(h) + c
                assert evaluate(poly, h) == expected, (coeffs, h)


class TestBuildPl:
    def test_degree_sum_and_parity(self):
        for p, ell in ((5, 3), (5, 7), (13, 7), (13, 11)):
            odd = build_PD(Discriminant(p, ell, "-pl"))
            even = build_PD(Discriminant(p, ell, "-4pl"))
            prod = build_Pl((odd, even))
            assert odd.degree % 2 == 1 and even.degree % 2 == 1
            assert prod.degree == odd.degree + even.degree
            assert prod.degree % 2 == 0

    def test_product_is_exact(self):
        prod, _ = search_polynomial(5, 3)
        odd = build_PD(Discriminant(5, 3, "-pl"))
        even = build_PD(Discriminant(5, 3, "-4pl"))
        check = [0] * (prod.degree + 1)
        for i, a in enumerate(odd.coefficients):
            for j, b in enumerate(even.coefficients):
                check[i + j] += a * b
        assert tuple(check) == prod.coefficients
        assert prod.D == (-15, -60)

    def test_negative_at_fixed_h_for_large_ell(self):
        # the two real roots diverge in opposite directions, so P_l(h) < 0
        # already at small admissible l for moderate h
        for ell in (3, 7, 23, 43):
            prod, _ = search_polynomial(5, ell)
            assert evaluate(prod, Fraction(1)) < 0

    def test_rejects_wrong_p(self):
        # the parts must be P_-pl and P_-4pl of one p and l
        odd = build_PD(Discriminant(5, 3, "-pl"))  # P_-15
        for parts in ((build_PD(-220, 11), build_PD(-60, 5)),  # not P_-pl, P_-4pl
                      (odd, build_PD(-60, 3)),  # -60 = -4 * 3 * 5: two levels
                      (build_PD(-60, 5), odd)):  # the shapes swapped
            with pytest.raises(ValueError):
                build_Pl(parts)

    def test_single_shape_level_searches_with_its_P_D(self):
        poly, parts = search_polynomial(11, 5)
        assert poly.D == -220 and parts == (poly,)
        assert poly.coefficients == build_PD(-220, 11).coefficients


class TestRealRoots:
    def test_known_roots_of_minus_220(self):
        poly = build_PD(-220, 11)
        intervals = real_roots(poly)
        assert len(intervals) == 2
        for (lo, hi), target in zip(intervals, (1.6048783712, 75.3951216288)):
            assert hi - lo <= Fraction(1, 1 << 32)
            assert float(lo) <= target <= float(hi) + 1e-9

    def test_p5_exactly_one_root_per_factor(self):
        assert count_real_roots(build_PD(Discriminant(5, 3, "-4pl"))) == 1
        assert count_real_roots(build_PD(Discriminant(5, 3, "-pl"))) == 1

    def test_count_parity_matches_degree(self):
        for D, p in ((-220, 11), (-1628, 11), (-60, 3)):
            poly = build_PD(D, p)
            assert (poly.degree - count_real_roots(poly)) % 2 == 0

    def test_isolation_width(self):
        poly = build_PD(-1628, 11)
        for lo, hi in real_roots(poly):
            assert hi - lo <= Fraction(1, 1 << 32)


def self_conjugate_pairs(D, p):
    """Atkin-Lehner pairs {f, f p} that inversion maps to themselves, those
    with f^2 principal or the p-ideal class: the pairs with a real root."""
    squares = (principal_form(D), p_ideal_class(Discriminant.from_D(D, p)))
    return sum(compose(f, f) in squares for f in enumerate_classes(D)) // 2


def test_real_roots_are_self_conjugate_pairs(sweep_polys):
    for (p, ell), shapes in sweep_polys.items():
        for poly in shapes.values():
            assert count_real_roots(poly) == self_conjugate_pairs(poly.D, p), (p, ell, poly.D)


class TestIntPolySqrt:
    def test_exact_square(self):
        # (X^2 + 3X - 5)^2
        f = [25, -30, -1, 6, 1]
        assert int_poly_sqrt(f) == (-5, 3, 1)

    def test_non_square(self):
        assert int_poly_sqrt([1, 2, 1, 1, 1]) is None
        assert int_poly_sqrt([0, 1]) is None  # odd degree


class TestSerialization:
    def test_round_trip(self):
        poly = build_PD(-1628, 11)
        back = poly_from_json(poly.to_json())
        assert back.coefficients == poly.coefficients
        assert back.p == poly.p and back.D == poly.D
        assert back == poly and hash(back) == hash(poly)

    def test_product_round_trip(self):
        prod, _ = search_polynomial(5, 3)
        back = poly_from_json(prod.to_json())
        assert back.D == (-15, -60)
        assert back.coefficients == prod.coefficients
        assert back == prod and hash(back) == hash(prod)


def test_cross_construction_sweep(sweep_polys):
    # pairing route vs full-product square root for every sweep D with h <= 40
    checked = 0
    for (p, ell), shapes in sweep_polys.items():
        for poly in shapes.values():
            if 2 * poly.degree > 40:
                continue
            alt = build_PD_via_square_root(poly.D, p)
            assert alt.coefficients == poly.coefficients, (p, ell, poly.D)
            checked += 1
    assert checked >= 100


def test_sweep_polynomials_split_by_the_class_of_q(sweep_polys):
    # algebra, not q-series: every sweep P_D of degree >= 2 splits completely
    # modulo 4 primes of the principal class and modulo none of 4 primes of
    # the other classes, and its constant term off by one fails that in every
    # case; with 3 primes of each kind, P_-763 with c_0 - 1 passes, and no
    # number of principal primes alone refuses P_-55 = X^2 + X - 11 with
    # c_0 - 1, which is (X + 4)(X - 3)
    checked = 0
    for (p, ell), shapes in sweep_polys.items():
        for shape, poly in shapes.items():
            if poly.degree < 2:
                continue
            disc, coeffs = Discriminant(p, ell, shape), poly.coefficients
            assert splits_by_class(coeffs, disc, 4), poly.D
            for delta in (1, -1):
                assert not splits_by_class((coeffs[0] + delta,) + coeffs[1:], disc, 4), (
                    poly.D, delta)
            checked += 1
    assert checked == 153


def test_sweep_polynomials_pinned(sweep_polys):
    lines = [shapes[shape].to_json() for shapes in sweep_polys.values()
             for shape in ("-pl", "-4pl")]
    assert len(lines) == 160
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SWEEP_SHA256


def test_small_case_irreducibility():
    # minimality is not relied on; spot-check irreducibility for the small
    # worked cases (rational-root test plus non-square quadratic discriminant)
    import math

    p220 = build_PD(-220, 11)
    c0, c1, _ = p220.coefficients
    disc = c1 * c1 - 4 * c0
    assert math.isqrt(disc) ** 2 != disc
    p15 = build_PD(Discriminant(5, 3, "-pl"))
    assert p15.degree == 1


def test_sized_precision_needs_one_attempt(monkeypatch):
    # D = -29564 at p = 19, degree 60: the sized precision proves the
    # rounding with one evaluation per real root or conjugate couple
    import heegner.classpoly as mod

    precisions = []
    real = mod.jp_at_form

    def counted(form, p, bits):
        precisions.append(bits)
        return real(form, p, bits)

    monkeypatch.setattr(mod, "jp_at_form", counted)
    poly = build_PD(-29564, 19)
    assert poly.degree == 60
    real = self_conjugate_pairs(-29564, 19)
    assert len(precisions) == real + (60 - real) // 2 and len(set(precisions)) == 1


@pytest.mark.parametrize("D,p", [(-220, 11), (-1628, 11), (-215, 5), (-940, 5), (-2132, 13),
                                 (-1524, 3), (-812, 7), (-29564, 19)])
def test_one_reduction_per_evaluation(monkeypatch, D, p):
    # build_PD reduces each evaluated form once, for the sizing and the
    # evaluation both; jp_at_form evaluates the form it is given, which no
    # module reduces again
    import heegner.classpoly as mod

    reductions, evaluated = [], []
    reduce_once = quadforms.reduce_heegner_form

    def counted(form, p):
        reductions.append(form)
        return reduce_once(form, p)

    for module in (mod, hauptmodul, quadforms):
        if hasattr(module, "reduce_heegner_form"):
            monkeypatch.setattr(module, "reduce_heegner_form", counted)
    real = mod.jp_at_form

    def recorded(form, p, bits):
        evaluated.append(form)
        return real(form, p, bits)

    monkeypatch.setattr(mod, "jp_at_form", recorded)
    build_PD(D, p)
    assert evaluated and len(reductions) == len(evaluated)
    assert all(reduce_once(form, p) == form for form in evaluated)


@pytest.mark.parametrize("D,p", [(-220, 11), (-1628, 11), (-215, 5), (-940, 5), (-2132, 13),
                                 (-1524, 3), (-812, 7), (-29564, 19)])
def test_one_gauss_reduction_per_pair(monkeypatch, D, p):
    # enumerate_classes returns the classes reduced: a build Gauss-reduces
    # only the Fricke image of each pair's first class, never a class again
    calls = []
    reduce_once = quadforms._reduced

    def counted(a, b, c):
        calls.append((a, b, c))
        return reduce_once(a, b, c)

    monkeypatch.setattr(quadforms, "_reduced", counted)
    build_PD(D, p)
    assert len(calls) == class_number(D) // 2


def test_wide_root_enclosure_never_rounds(monkeypatch):
    # an enclosure wider than 1/2 contains more than one candidate integer
    # coefficient; no precision can prove a rounding, so the build must fail.
    # The widening is one-sided, so that one end of a coefficient interval
    # still sits on its integer.
    import heegner.classpoly as mod

    real = mod.jp_at_form

    calls = []

    def widened(form, p, bits):
        # the disc reaches 0.6 further down the real line: centre - 0.3, radius + 0.3
        calls.append(bits)
        ball = real(form, p, bits)
        shift = -(-(3 << ball.prec) // 10)
        return Ball(ball.re - shift, ball.im, ball.rad + shift, ball.prec)

    monkeypatch.setattr(mod, "jp_at_form", widened)
    # one evaluation per root, then the error: no retry at a higher precision
    with pytest.raises(mod.PrecisionExhaustedError):
        build_PD(-220, 11)
    assert len(calls) == 2
    calls.clear()
    with pytest.raises(mod.PrecisionExhaustedError):
        build_PD(Discriminant(5, 3, "-pl"))
    assert len(calls) == 1


def test_real_root_enclosure_off_the_real_line(monkeypatch):
    # a self-conjugate pair's root is real: an enclosure whose imaginary
    # part excludes 0 breaks an invariant, not the precision
    import heegner.classpoly as mod

    real = mod.jp_at_form

    def shifted(form, p, bits):
        ball = real(form, p, bits)
        return Ball(ball.re, ball.im + (1 << ball.prec), ball.rad, ball.prec)

    monkeypatch.setattr(mod, "jp_at_form", shifted)
    with pytest.raises(ArithmeticError, match="real root") as error:
        build_PD(-220, 11)
    assert not isinstance(error.value, mod.PrecisionExhaustedError)


def beyond_sweep_discriminants():
    """The discriminants of every admissible l in [300, 1000) at p = 3, 5, 11
    and 19, over each level's shapes: one level of each shape and both theta
    levels, up to degree 84."""
    return [Discriminant(p, ell, shape) for p, ell in admissible_pairs(1000)
            if ell >= 300 and p in (3, 5, 11, 19) for shape in level(p).shapes]


def traced_builds(discriminants):
    """The class polynomials of ``discriminants``, with the (bits, ball) of
    every evaluation their builds made and the (coefficient balls, prec)
    that each build's rounding proof received."""
    evaluations, roundings = [], []
    real, real_round = classpoly.jp_at_form, classpoly._round_proven

    def recorded(form, p, bits):
        ball = real(form, p, bits)
        evaluations.append((bits, ball))
        return ball

    def recorded_round(coeffs, prec):
        roundings.append((coeffs, prec))
        return real_round(coeffs, prec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classpoly, "jp_at_form", recorded)
        patch.setattr(classpoly, "_round_proven", recorded_round)
        polys = [build_PD(disc) for disc in discriminants]
    return polys, evaluations, roundings


def farthest(ball, n, prec):
    """The farthest point of the ball (mid, rad) over 2^prec from the
    integer n, in units of 2^-prec."""
    mid, rad = ball
    return abs(mid - (n << prec)) + rad


def within(polys, roundings, spare):
    """Whether every coefficient ball of every build lies within
    2^-(20 + spare) of its integer: the proof's margin with ``spare`` bits
    left, compared in integers."""
    assert len(polys) == len(roundings)
    return all(farthest(ball, n, prec) < 1 << (prec - 20 - spare)
               for poly, (coeffs, prec) in zip(polys, roundings)
               for ball, n in zip(coeffs, poly.coefficients, strict=True))


@pytest.fixture(scope="module")
def beyond_sweep():
    return traced_builds(beyond_sweep_discriminants())


@pytest.fixture(scope="module")
def sweep_traced():
    return traced_builds([Discriminant(p, ell, shape) for p, ell in admissible_pairs()
                          for shape in ("-pl", "-4pl")])


def test_rounding_beyond_the_sweep(beyond_sweep):
    # the precision is sized without a guard of its own, and no build past
    # the sweep raises; each proves its rounding with 10 bits to spare
    polys, _, roundings = beyond_sweep
    assert len(polys) == 133 and max(poly.degree for poly in polys) == 84
    assert within(polys, roundings, spare=10)
    lines = [poly.to_json() for poly in polys]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BEYOND_SWEEP_SHA256


def test_sweep_residuals_below_2_to_the_minus_30(sweep_traced):
    polys, _, roundings = sweep_traced
    assert len(polys) == 160 and within(polys, roundings, spare=10)


def test_guard_leaves_eight_bits(sweep_traced, beyond_sweep):
    # jp_at_form's guard covers what its evaluations spend with at least 8
    # bits left: rad 2^-prec <= 2^-(bits + 8) max(1, |mid|) at every
    # evaluation of the sweep and of the builds beyond it.  isqrt bounds
    # |mid| from below, so the check errs on the safe side
    evaluations = sweep_traced[1] + beyond_sweep[1]
    assert len(evaluations) > 2000
    short = [(bits, ball.prec) for bits, ball in evaluations
             if ball.rad << (bits + 8) > max(1 << ball.prec,
                                             math.isqrt(ball.re ** 2 + ball.im ** 2))]
    assert not short, short[:5]
