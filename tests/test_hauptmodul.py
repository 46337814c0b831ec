import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from heegner import hauptmodul
from heegner.classpoly import build_PD
from heegner.hauptmodul import (ETA, THETA_STAR, Ball, _exp, _growth, _pi, _Powers, _terms,
                                _truncation, jp_arc_interval, jp_at_form)
from heegner.levels import LEVELS, level
from heegner.quadforms import (
    Discriminant,
    QuadForm,
    al_pair_classes,
    enumerate_classes,
    fundamental_unit,
    heegner_rep,
    reduce_heegner_form,
)

from conftest import admissible_pairs
from oracles import (
    MIN_IM,
    _series_terms,
    _theta_kind,
    arc_point,
    classical_j,
    eta,
    exp_reference,
    j_p,
    j_p0,
    reduce_tau,
    series_per_term,
    tau_from_form,
    theta,
    theta_star,
    torsion_to_tau,
)

BITS = 256
SERIES_KINDS = [ETA, THETA_STAR] + [_theta_kind(*f) for f in ((1, 1, 3), (1, 1, 5), (1, 1, 6),
                                                               (2, 1, 3))]


def err(x, y):
    return float(abs(mpmath.mpc(x) - mpmath.mpc(y)))


def tol(bits, slack=16):
    return 2.0 ** (-bits + slack)


class TestEta:
    def test_eta_at_i_closed_form(self):
        with mpmath.workprec(BITS + 64):
            reference = mpmath.gamma(mpmath.mpf(1) / 4) / (2 * mpmath.pi ** mpmath.mpf(0.75))
            assert err(eta(1j, BITS), reference) < tol(BITS)

    def test_translation_multiplier(self):
        with mpmath.workprec(BITS + 64):
            taus = [mpmath.mpc("0.3", "1.0"), mpmath.mpc("-0.41", "0.27")]
            for tau in taus:
                lhs = eta(tau + 1, BITS)
                rhs = mpmath.expjpi(mpmath.mpf(1) / 12) * eta(tau, BITS)
                assert err(lhs, rhs) < tol(BITS)

    def test_two_precision_consistency(self):
        with mpmath.workprec(4 * BITS):
            coarse = eta(2j, BITS) / eta(1j, BITS)
            fine = eta(2j, 2 * BITS) / eta(1j, 2 * BITS)
            assert err(coarse, fine) < tol(BITS, 8)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            eta(mpmath.mpc(0, -1), BITS)

    def test_rejects_near_real_axis(self):
        with pytest.raises(ValueError):
            eta(mpmath.mpc(0, MIN_IM / 2), BITS)


def brute_theta(a, b, c, tau, bits, radius=200, cutoff=4000):
    """Direct double sum, grouped by exponent; independent oracle."""
    with mpmath.workprec(bits + 64):
        q = mpmath.expjpi(2 * mpmath.mpc(tau))
        counts = {}
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                n = a * x * x + b * x * y + c * y * y
                if n <= cutoff:
                    counts[n] = counts.get(n, 0) + 1
        return sum(r * q**n for n, r in sorted(counts.items()))


class TestTheta:
    def test_limit_at_high_points(self):
        v = theta(1, 1, 3, mpmath.mpc(0, 40), 64)
        assert err(v, 1) < 1e-60

    def test_against_brute_double_sum(self):
        v = theta(1, 1, 3, 1j, 128)
        ref = brute_theta(1, 1, 3, 1j, 128)
        assert err(v, ref) < tol(128)

    def test_symmetry_doubling(self):
        # computed sum equals 1 + 2 * (half-lattice sum)
        with mpmath.workprec(192):
            tau = mpmath.mpc("0.21", "0.9")
            q = mpmath.expjpi(2 * tau)
            half = mpmath.mpc(0)
            for y in range(0, 60):
                for x in range(-60, 60):
                    if y == 0 and x <= 0:
                        continue
                    half += q ** (x * x + x * y + 3 * y * y)
            assert err(theta(1, 1, 3, tau, 128), 1 + 2 * half) < tol(128)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            theta(1, 5, 1, 1j, 64)


def brute_theta_star(tau, bits, radius=120):
    with mpmath.workprec(bits + 64):
        u = mpmath.expjpi(mpmath.mpc(tau))
        total = mpmath.mpc(0)
        for m in range(-radius, radius + 1):
            for n in range(-radius, radius + 1):
                if (m + n) % 2 == 0:
                    continue
                k = m * m + m * n + 5 * n * n
                if k <= 3000:
                    total += (-1) ** m * u**k
        return total


class TestThetaStar:
    def test_against_brute_sum(self):
        v = theta_star(2j, 128)
        assert err(v, brute_theta_star(2j, 128)) < tol(128)

    def test_even_parity_terms_vanish(self):
        # structural: the series in u = q^(1/2) has only odd exponents, so
        # u -> -u flips the overall sign: theta*(tau + 1) = -theta*(tau)
        with mpmath.workprec(192):
            tau = mpmath.mpc("0.17", "0.81")
            assert err(theta_star(tau + 1, 128), -theta_star(tau, 128)) < tol(128)

    def test_j19_real_on_imaginary_axis(self):
        for t in ("0.5", "1.0", "2.0"):
            v = j_p(mpmath.mpc(0, mpmath.mpf(t)), 19, BITS, reduce=False)
            assert abs(float(mpmath.im(v))) < tol(BITS)


class TestJp0:
    @pytest.mark.parametrize("p,const", [(3, 729), (5, 125), (7, 49), (13, 13)])
    def test_fricke_constant(self, p, const):
        with mpmath.workprec(BITS + 64):
            tau = mpmath.mpc("0.2312", "0.8781")
            prod = j_p0(tau, p, BITS, reduce=False) * j_p0(-1 / (p * tau), p, BITS, reduce=False)
            assert err(prod, const) < tol(BITS, 24)

    def test_j50_at_i(self):
        # 125 * (2 + sqrt(5)); the other normalization printed elsewhere is
        # inconsistent with the j_5 column and is not used
        with mpmath.workprec(BITS + 64):
            expected = 125 * (2 + mpmath.sqrt(5))
            assert err(j_p0(1j, 5, BITS), expected) < tol(BITS)

    def test_j130_at_torsion_point(self):
        # kernel <(2+3i)/13> = <(i+5)/13>
        z = torsion_to_tau(1j, 5, 13, BITS)
        v = j_p0(z, 13, BITS)
        assert min(err(v, mpmath.mpc(-3, 2)), err(v, mpmath.mpc(-3, -2))) < tol(BITS)

    def test_rejects_theta_levels(self):
        with pytest.raises(ValueError):
            j_p0(1j, 11, BITS)


class TestJp:
    def test_j5_torsion_table(self):
        with mpmath.workprec(BITS + 64):
            s5 = mpmath.sqrt(5)
            table = {
                None: 248 + 126 * s5,
                0: 248 + 126 * s5,
                1: 248 - 126 * s5,
                2: -22,
                3: -22,
                4: 248 - 126 * s5,
            }
            for k, expected in table.items():
                z = torsion_to_tau(1j, k, 5)
                assert err(j_p(z, 5, BITS), expected) < tol(BITS), k

    def test_j13_anchor(self):
        z = torsion_to_tau(1j, 5, 13, BITS)
        assert err(j_p(z, 13, BITS), -6) < tol(BITS)
        z2 = torsion_to_tau(1j, 8, 13, BITS)  # <(3+2i)/13>
        assert err(j_p(z2, 13, BITS), -6) < tol(BITS)

    def test_j11_heegner_values_solve_known_quadratic(self):
        # the two Heegner values of D = -220 are the roots of X^2 - 77X + 121
        va = j_p(tau_from_form(QuadForm(11, 0, 5), BITS), 11, BITS)
        vb = j_p(tau_from_form(QuadForm(77, 44, 7), BITS), 11, BITS)
        assert err(va + vb, 77) < tol(BITS, 40)
        assert err(va * vb, 121) < tol(BITS, 40)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 19, 23])
    def test_atkin_lehner_invariance(self, p):
        # sample near the circle |tau| = 1/sqrt(p) so both tau and -1/(p tau)
        # stay above the series evaluation cutoff
        with mpmath.workprec(BITS + 64):
            rng = random.Random(p)
            for _ in range(3):
                radius = rng.uniform(0.9, 1.1) / math.sqrt(p)
                angle = rng.uniform(1.2, 1.9)
                tau = radius * mpmath.mpc(math.cos(angle), math.sin(angle))
                a = j_p(tau, p, BITS, reduce=False)
                b = j_p(-1 / (p * tau), p, BITS, reduce=False)
                assert err(a, b) < tol(BITS) * max(1.0, float(abs(a)))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 19, 23])
    def test_real_on_arcs(self, p):
        with mpmath.workprec(BITS + 64):
            points = [mpmath.mpc(0, "0.71"), mpmath.mpc("-0.5", "0.83")]
            if p % 4 == 3 and p != 23:
                c, d = fundamental_unit(p)
                points.append(arc_point(p, mpmath.mpf(-d) / (2 * c), BITS))
            for tau in points:
                v = j_p(tau, p, BITS)
                assert abs(float(mpmath.im(v))) < tol(BITS, 32) * max(1.0, float(abs(v)))

    @pytest.mark.parametrize("p", [11, 19])
    def test_monotone_increasing_clockwise_on_arc(self, p):
        c, d = fundamental_unit(p)
        values = []
        for i in range(50):
            # clockwise: from the left endpoint (Re = -d/c) towards Re = 0
            re = -mpmath.mpf(d) / c * (1 - (i + 1) / 51)
            values.append(float(mpmath.re(j_p(arc_point(p, re, 128), p, 128))))
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_precision_doubling(self):
        for p in (5, 11, 19):
            tau = mpmath.mpc("0.123", "0.631")
            coarse = j_p(tau, p, 128)
            fine = j_p(tau, p, 256)
            assert err(coarse, fine) < tol(128, 16) * max(1.0, float(abs(fine)))


class TestReduceTau:
    def test_preserves_jp(self):
        with mpmath.workprec(BITS + 64):
            rng = random.Random(9)
            for p in (5, 11, 19):
                tau = mpmath.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 0.8))
                reduced, _parity = reduce_tau(tau, p, BITS)
                assert mpmath.im(reduced) >= mpmath.im(tau) - 1e-50
                a = j_p(tau, p, BITS, reduce=False)
                b = j_p(reduced, p, BITS, reduce=False)
                assert err(a, b) < tol(BITS, 24) * max(1.0, float(abs(a)))

    def test_climbs_from_deep_points(self):
        # left endpoint of the arc S for p = 19 starts at Im = 1/(c sqrt(p))
        c, d = fundamental_unit(19)
        tau = arc_point(19, mpmath.mpf(-d) / c, BITS)
        assert float(mpmath.im(tau)) < 0.002
        reduced, _ = reduce_tau(tau, 19, BITS)
        assert float(mpmath.im(reduced)) > 0.03


def form_value(form, x, y):
    return form.a * x * x + form.b * x * y + form.c * y * y


def heegner_forms(p, ell, shape, limit=6):
    disc = Discriminant(p, ell, shape)
    return [heegner_rep(f, p) for f in enumerate_classes(disc.D)[:limit]]


HEEGNER_CASES = [(3, 13, "-4pl"), (5, 7, "-pl"), (7, 5, "-4pl"), (11, 37, "-4pl"),
                 (13, 7, "-4pl"), (19, 389, "-4pl"), (23, 13, "-4pl")]


class TestReduceHeegnerForm:
    @pytest.mark.parametrize("p,ell,shape", HEEGNER_CASES)
    def test_matches_reduce_tau(self, p, ell, shape):
        for form in heegner_forms(p, ell, shape):
            reduced = reduce_heegner_form(form, p)
            D = form.discriminant()
            assert reduced.discriminant() == D and reduced.a % p == 0
            assert -reduced.a < reduced.b <= reduced.a
            tau, _ = reduce_tau(tau_from_form(form, 128), p, 128)
            assert abs(math.sqrt(-D) / (2 * reduced.a) - float(mpmath.im(tau))) < 1e-12
            assert err(j_p(tau_from_form(reduced, 128), p, 128, reduce=False),
                       j_p(tau_from_form(form, 128), p, 128)) < tol(128, 40)

    def test_reaches_highest_point(self):
        # no translation, Fricke or Gamma_0(5) move raises (135, 130, 36), but
        # the Atkin-Lehner move with lower row 5 (2, 1) lowers a to 95
        form = QuadForm(135, 130, 36)
        assert reduce_heegner_form(form, 5) == QuadForm(95, -90, 28)
        tau, parity = reduce_tau(tau_from_form(form, 128), 5, 128)
        assert parity == 1
        assert abs(float(mpmath.im(tau)) - math.sqrt(2540) / 190) < 1e-12

    @pytest.mark.parametrize("p,ell,shape", HEEGNER_CASES)
    def test_reaches_top_from_low_points(self, p, ell, shape):
        # heegner_rep need not give the highest point: one scan must climb to
        # the top from any Gamma_0(p) image [[A, B], [C, E]] of a form
        rng = random.Random(1000 * p + ell)
        for form in heegner_forms(p, ell, shape):
            D, top = form.discriminant(), reduce_heegner_form(form, p).a
            for _ in range(10):
                C = p * rng.randint(1, 2)
                E = rng.choice([e for e in range(-2 * p, 2 * p + 1) if math.gcd(C, e) == 1])
                A = pow(E, -1, C) - C * rng.randint(0, 1)
                B = (A * E - 1) // C
                moved = QuadForm(form_value(form, A, C),
                                 2 * form.a * A * B + form.b * (A * E + B * C) + 2 * form.c * C * E,
                                 form_value(form, B, E))
                reduced = reduce_heegner_form(moved, p)
                assert reduced.discriminant() == D and reduced.a % p == 0
                assert reduced.a == top, (form, moved, reduced)

    @pytest.mark.parametrize("p,ell,shape", HEEGNER_CASES)
    def test_pair_members_meet(self, p, ell, shape):
        # the two classes of an Atkin-Lehner pair lie in one Gamma_0(p)+ orbit
        # and reach its highest point or the mirror image [a, -b, c] of it
        for f, g in al_pair_classes(enumerate_classes(Discriminant(p, ell, shape).D), p):
            reduced = reduce_heegner_form(heegner_rep(f, p), p)
            other = reduce_heegner_form(heegner_rep(g, p), p)
            assert other in (reduced, QuadForm(reduced.a, -reduced.b, reduced.c))
            assert reduce_heegner_form(reduced, p) == reduced

    def test_pair_members_on_the_sweep(self):
        # over the 160 sweep discriminants 37 of the 1 650 pairs reach mirror
        # images rather than one form, so grouping the classes by their
        # reduced point would split those pairs
        meet, mirrored = 0, []
        for p, ell in admissible_pairs():
            for shape in ("-pl", "-4pl"):
                D = Discriminant(p, ell, shape).D
                for f, g in al_pair_classes(enumerate_classes(D), p):
                    x, y = (reduce_heegner_form(heegner_rep(h, p), p) for h in (f, g))
                    if x == y:
                        meet += 1
                    else:
                        assert y == QuadForm(x.a, -x.b, x.c), (D, x, y)
                        mirrored.append((D, p, {x, y}))
        assert (meet, len(mirrored)) == (1613, 37)
        assert (-812, 7, {QuadForm(84, 70, 17), QuadForm(84, -70, 17)}) in mirrored

    def test_rejects_non_heegner_form(self):
        with pytest.raises(ValueError):
            reduce_heegner_form(QuadForm(5, 0, 11), 11)
        with pytest.raises(ValueError):
            reduce_heegner_form(QuadForm(11, 1, -3), 11)


class TestJpAtForm:
    @pytest.mark.parametrize("p,ell,shape", HEEGNER_CASES)
    def test_interval_contains_value(self, p, ell, shape):
        for bits in (96, 300):
            for form in heegner_forms(p, ell, shape):
                ball = jp_at_form(reduce_heegner_form(form, p), p, bits)
                with mpmath.workprec(4 * bits):
                    value = j_p(tau_from_form(form, 3 * bits), p, 3 * bits)
                    radius = mpmath.ldexp(ball.rad, -ball.prec)
                    assert abs(value - ball_center(ball)) <= radius
                    assert radius < 2.0**-bits * max(1, abs(value))

    @pytest.mark.parametrize("p,ell,shape", HEEGNER_CASES)
    def test_evaluates_the_point_it_is_given(self, monkeypatch, p, ell, shape):
        # at the translate [a, b + 2a, a + b + c], the point tau - 1, q comes
        # from that point's own argument, and the two balls of the one value
        # j_p(tau) overlap
        arguments = []

        def recorded(z):
            arguments.append(z)
            return _exp(z)

        monkeypatch.setattr(hauptmodul, "_exp", recorded)
        for form in heegner_forms(p, ell, shape):
            a, b, c = reduce_heegner_form(form, p)
            x = jp_at_form(QuadForm(a, b, c), p, 96)
            y = jp_at_form(QuadForm(a, b + 2 * a, a + b + c), p, 96)
            at_x, at_y = arguments[-2:]
            assert at_x.re == at_y.re and at_x.im != at_y.im
            assert (x.re - y.re) ** 2 + (x.im - y.im) ** 2 <= (x.rad + y.rad) ** 2

    def test_point_below_the_cutoff_raises(self):
        # the left end of S at p = 19 sits at Im(tau) < 0.002; the caller
        # must reduce it first
        left, _ = arc_forms(19)
        with pytest.raises(ArithmeticError, match="reduce_heegner_form"):
            jp_at_form(left, 19, 96)
        assert jp_at_form(reduce_heegner_form(left, 19), 19, 96).prec == 96 + hauptmodul.GUARD_BITS

    def test_coefficient_growth_bounds(self):
        # the tail bound assumes |coefficient of q^n| <= A n for n >= 1
        for kind in SERIES_KINDS:
            bound = _growth(kind)
            terms, count, _ = _terms(kind, 1, 3000)
            assert all(abs(c) <= bound * n for n, c in terms[:count] if n)


def level_series(p):
    """The (kind, scale) of every series the Hauptmodul of level p reads."""
    asked = []

    def value(kind, scale=1):
        asked.append((kind, scale))
        return len(asked) + 1.0

    level(p).hauptmodul(value, 1.0)
    return asked


def seeded_point(rng, p):
    """(q, Im(tau)) at a random point of level p: a q ball at a random
    precision whose every point has modulus at most exp(-2 pi Im(tau)),
    as the series' tail bounds require."""
    im_tau = rng.uniform(math.sqrt(3) / (2 * p), 3)
    prec = rng.randrange(64, 200)
    rad = rng.randrange(0, 40)
    with mpmath.workprec(4 * prec):
        bound = mpmath.exp(-2 * mpmath.pi * im_tau) * (1 - mpmath.ldexp(1, -20))
        # flooring each coordinate moves the centre by under 2 units
        reach = bound - mpmath.ldexp(rad + 2, -prec)
        centre = reach * rng.uniform(0.3, 1) * mpmath.expjpi(2 * mpmath.mpf(rng.random()))
        re, im = (int(mpmath.floor(mpmath.ldexp(x, prec))) for x in (centre.real, centre.imag))
    q = Ball(re, im, rad, prec)
    with mpmath.workprec(4 * prec):
        assert abs(ball_center(q)) + mpmath.ldexp(rad, -prec) <= bound
    return q, im_tau


def series_reference(kind, x, bits):
    """The whole series of a kind at x, within 2^-bits, by mpmath: Euler's
    product for ETA, the oracle's coefficients otherwise."""
    if kind == ETA:
        return mpmath.qp(x)
    # past N the tail is below A N |x|^N / (1 - |x|)^2, far under 2^-bits
    nmax = math.ceil((bits + 64) / -float(mpmath.log(abs(x), 2)))
    total, power, last = mpmath.mpc(0), mpmath.mpc(1), 0
    for n, c in _series_terms(kind, 1 << nmax.bit_length()):
        if n > nmax:
            break
        power *= x ** (n - last)
        total, last = total + c * power, n
    return total


def check_per_term(q, im_tau, asked):
    """The balls a point's series returned, in the order asked, against the
    per-term oracle: the same midpoints, and a closed-form radius no
    smaller than the oracle's count plus the tail bound."""
    prefixes, tails = [], []
    for kind, scale, _ in asked:
        nmax, tail = _truncation(kind, 2 * math.pi * scale * im_tau / math.log(2), q.prec)
        prefixes.append(_terms(kind, scale, nmax))
        tails.append(tail)
    sums = series_per_term((q.re, q.im), q.rad, prefixes, q.prec)
    for (_, _, ball), tail, (re, im, err) in zip(asked, tails, sums):
        assert (ball.re, ball.im) == (re, im)
        assert err + tail <= ball.rad


@pytest.fixture
def recorded_points(monkeypatch):
    """Every point's power table that jp_at_form makes, each with the
    (kind, scale, ball) of every series it returned."""
    points = []

    class Recorded(_Powers):
        def __init__(self, q, im_tau):
            super().__init__(q, im_tau)
            self.asked = []
            points.append(self)

        def series(self, kind, scale=1):
            ball = super().series(kind, scale)
            self.asked.append((kind, scale, ball))
            return ball

    monkeypatch.setattr(hauptmodul, "_Powers", Recorded)
    return points


# complex products of the power tables over the 160 sweep builds
SWEEP_PRODUCTS = 28664


class TestSeriesEngine:
    """The prefix term tables, the power table of a point, built term by
    term from the previous term's power and the gap's, and the closed-form
    error count of its series."""

    @pytest.mark.parametrize("order", [(1, 7, 40, 41, 300, 600), (600, 300, 41, 40, 7, 1),
                                       (40, 40, 7, 40, 300, 300, 41)])
    def test_terms_match_fresh_computation(self, monkeypatch, order):
        monkeypatch.setattr(hauptmodul, "_TABLES", {})
        for kind in SERIES_KINDS:
            for scale in (1, 13):
                for nmax in order:
                    terms, count, weight = _terms(kind, scale, nmax)
                    terms = terms[:count]
                    fresh = [(scale * n, c) for n, c in _series_terms(kind, nmax + 1)]
                    assert terms == fresh, (kind, scale, nmax)
                    assert weight == sum(abs(c) * n for n, c in terms)

    def test_tables_grow_by_doubling(self, monkeypatch):
        monkeypatch.setattr(hauptmodul, "_TABLES", {})
        builds = []
        table = hauptmodul._table
        monkeypatch.setattr(hauptmodul, "_table", lambda kind, scale, nmax:
                            builds.append(nmax) or table(kind, scale, nmax))
        for nmax in range(1, 1001):
            _terms(ETA, 1, nmax)
        assert builds == [1 << k for k in range(11)]

    @pytest.mark.parametrize("p", sorted(LEVELS))
    def test_series_enclose_mpmath_values(self, p):
        # at the centre of q's disc and at its two radial extremes, each
        # series the level asks for, in its order, holds the series at that
        # point, computed with mpmath at four times the precision
        rng = random.Random(100 + p)
        for _ in range(3):
            q, im_tau = seeded_point(rng, p)
            powers = _Powers(q, im_tau)
            with mpmath.workprec(4 * q.prec):
                centre = ball_center(q)
                rad = mpmath.ldexp(q.rad, -q.prec) * (1 - mpmath.ldexp(1, -2 * q.prec))
                unit = centre / abs(centre)
                points = (centre, centre + rad * unit, centre - rad * unit)
                for kind, scale in level_series(p):
                    ball = powers.series(kind, scale)
                    for x in points:
                        assert_encloses(ball, series_reference(kind, x**scale, 2 * q.prec))

    @pytest.mark.parametrize("p", sorted(LEVELS))
    def test_closed_form_error_matches_per_term_count(self, p):
        rng = random.Random(p)
        for _ in range(12):
            q, im_tau = seeded_point(rng, p)
            powers = _Powers(q, im_tau)
            check_per_term(q, im_tau, [(kind, scale, powers.series(kind, scale))
                                       for kind, scale in level_series(p)])

    @pytest.mark.parametrize("p,ell,shape", HEEGNER_CASES)
    def test_sums_of_jp_at_form_match_per_term_count(self, recorded_points, p, ell, shape):
        for form in heegner_forms(p, ell, shape):
            jp_at_form(reduce_heegner_form(form, p), p, 96)
        assert recorded_points
        for point in recorded_points:
            assert [(kind, scale) for kind, scale, _ in point.asked] == level_series(p)
            check_per_term(point.q, point.im_tau, point.asked)

    def test_sweep_product_count(self, recorded_points):
        # every entry of a table past q^0 and q^1 is one complex product
        for p, ell in admissible_pairs():
            for shape in ("-pl", "-4pl"):
                build_PD(Discriminant(p, ell, shape))
        assert sum(len(point.powers) - 2 for point in recorded_points) == SWEEP_PRODUCTS


BALL_PREC = 64


def ball_center(z):
    return mpmath.mpc(mpmath.ldexp(z.re, -z.prec), mpmath.ldexp(z.im, -z.prec))


def random_ball(rng, prec=BALL_PREC, spread_shifts=(1, 3, 12, 40)):
    """A ball of modulus near 1 whose midpoint lies on an axis or anywhere,
    with a radius from a large share of the modulus down to a few units."""
    size = rng.randrange(prec - 6, prec + 6)
    re, im = rng.randrange(1 << size), rng.randrange(1 << size)
    axis = rng.choice(("real", "imag", "any"))
    re, im = {"real": (re, 0), "imag": (0, im), "any": (re, im)}[axis]
    re, im = re * rng.choice((1, -1)), im * rng.choice((1, -1))
    rad = (abs(re) + abs(im)) >> rng.choice(spread_shifts)
    return Ball(re, im, rad + rng.randrange(3), prec)


def points_of(z, rng):
    """Points of a ball: its centre, the two radial extremes and two at
    random angles, each kept a hair inside the boundary."""
    center = ball_center(z)
    rad = mpmath.ldexp(z.rad, -z.prec) * (1 - mpmath.ldexp(1, -2 * z.prec))
    unit = center / abs(center) if center else mpmath.mpc(1)
    return [center, center + rad * unit, center - rad * unit] + [
        center + rad * mpmath.expjpi(2 * mpmath.mpf(rng.random())) for _ in range(2)]


def assert_encloses(z, value):
    assert abs(value - ball_center(z)) <= mpmath.ldexp(z.rad, -z.prec), (z.re, z.im, z.rad)


class TestBall:
    """Each operation encloses its value at every point of its input balls,
    computed with mpmath at four times the ball precision."""

    def check(self, op, make_args, trials=150, seed=0):
        rng = random.Random(seed)
        with mpmath.workprec(4 * BALL_PREC):
            for _ in range(trials):
                args = make_args(rng)
                result = op(*args)
                assert result.prec == BALL_PREC
                pointsets = [points_of(a, rng) if isinstance(a, Ball) else [a] for a in args]
                for point in itertools.product(*pointsets):
                    assert_encloses(result, op(*point))

    def test_add_and_subtract(self):
        self.check(lambda x, y: x + y, lambda rng: (random_ball(rng), random_ball(rng)))
        self.check(lambda x, y: x - y, lambda rng: (random_ball(rng), random_ball(rng)))
        self.check(lambda x, k: k + x - k * k,
                   lambda rng: (random_ball(rng), rng.randrange(-99, 99)))

    def test_integer_scale(self):
        self.check(lambda x, k: k * x, lambda rng: (random_ball(rng), rng.randrange(-99, 99)))

    def test_multiply(self):
        self.check(lambda x, y: x * y, lambda rng: (random_ball(rng), random_ball(rng)))

    def test_divide(self):
        def args(rng):
            return random_ball(rng), random_ball(rng, spread_shifts=(2, 3, 12, 40))

        def integer(rng):
            return rng.randrange(1, 999) * rng.choice((1, -1))

        self.check(lambda x, y: x / y, args)
        self.check(lambda k, y: k / y, lambda rng: (integer(rng), args(rng)[1]))
        self.check(lambda x, k: x / k, lambda rng: (random_ball(rng), integer(rng)))

    @pytest.mark.parametrize("exponent", [1, 2, 3, 4, 6, 12])
    def test_integer_power(self, exponent):
        self.check(lambda x: x**exponent, lambda rng: (random_ball(rng),), seed=exponent)

    def test_exact_inputs_round_into_the_radius(self):
        # radius-0 inputs: the result radius must cover the floors of the midpoint
        rng = random.Random(5)
        with mpmath.workprec(4 * BALL_PREC):
            for _ in range(300):
                x, y = (Ball(rng.randrange(-1 << 70, 1 << 70), rng.randrange(-1 << 70, 1 << 70),
                             0, BALL_PREC) for _ in range(2))
                assert_encloses(x * y, ball_center(x) * ball_center(y))
                assert_encloses(x / y, ball_center(x) / ball_center(y))
                k = rng.randrange(2, 999)
                assert_encloses(x / k, ball_center(x) / k)

    def test_division_by_a_ball_around_zero(self):
        for re, im in ((5 << 60, 0), (3 << 60, -(4 << 60)), (0, 1), (0, 0)):
            z = Ball(re, im, math.isqrt(re * re + im * im), BALL_PREC)
            with pytest.raises(ArithmeticError):
                Ball(1 << 64, 0, 0, BALL_PREC) / z
            with pytest.raises(ArithmeticError):
                1 / z

    def test_round_to_lower_precision(self):
        rng = random.Random(13)
        with mpmath.workprec(4 * BALL_PREC):
            for _ in range(200):
                z = random_ball(rng, BALL_PREC + 30, spread_shifts=(3, 40, 90))
                if rng.random() < 0.5:
                    z.rad = 0
                low = z.round_to(BALL_PREC)
                assert low.prec == BALL_PREC
                for point in points_of(z, rng):
                    assert_encloses(low, point)

    def test_class_polynomial_product_encloses(self):
        # the real-ball product of build_PD, at exact points of its factors:
        # the ends of each coefficient's interval, or its midpoint
        from heegner.classpoly import _product

        rng = random.Random(17)
        prec = BALL_PREC
        for _ in range(60):
            factors = []
            for _ in range(rng.randrange(1, 5)):
                factor = []
                for _ in range(rng.choice((1, 2))):
                    mid = rng.randrange(-1 << (prec + 9), 1 << (prec + 9))
                    factor.append((mid, rng.choice((0, 0, rng.randrange(1 << 30)))))
                factors.append(factor)
            coeffs = _product(factors, prec)
            for _ in range(4):
                poly = [Fraction(1)]
                for factor in factors:
                    low = [Fraction(mid + rad * rng.choice((-1, 0, 1)), 1 << prec)
                           for mid, rad in factor]
                    monic = low + [Fraction(1)]
                    out = [Fraction(0)] * (len(poly) + len(monic) - 1)
                    for i, a in enumerate(poly):
                        for j, b in enumerate(monic):
                            out[i + j] += a * b
                    poly = out
                assert len(poly) == len(coeffs)
                for (mid, rad), exact in zip(coeffs, poly):
                    assert abs(exact * (1 << prec) - mid) <= rad

    @pytest.mark.parametrize("D,p", [(-220, 11), (-1628, 11), (-29564, 19), (-215, 5), (-940, 5),
                                     (-2132, 13), (-1524, 3)])
    def test_build_residual_bounds_coefficient_balls(self, monkeypatch, D, p):
        # every coefficient ball of the product contains its integer, and its
        # residual, the farthest point of the ball from that integer, is
        # below the proof's 2^-20, compared in units of 2^-prec
        import heegner.classpoly as mod

        seen = []
        real = mod._round_proven

        def spy(coeffs, prec):
            seen.append((coeffs, prec))
            return real(coeffs, prec)

        monkeypatch.setattr(mod, "_round_proven", spy)
        poly = mod.build_PD(D, p)
        (coeffs, prec), = seen
        assert len(coeffs) == len(poly.coefficients)
        for (mid, rad), n in zip(coeffs, poly.coefficients):
            assert abs(mid - (n << prec)) <= rad
            assert abs(mid - (n << prec)) + rad < 1 << (prec - 20)


class TestPiAndExp:
    """pi and exp from integers alone, checked with mpmath at four times the
    ball precision."""

    @pytest.mark.parametrize("prec", [64, 200, 700])
    def test_pi(self, prec):
        ball = _pi(prec)
        assert ball.prec == prec and ball.im == 0 and ball.rad <= 3
        with mpmath.workprec(4 * prec):
            assert_encloses(ball, mpmath.pi)

    def test_exp_of_q_arguments(self):
        # z = -pi (sqrt|D| + b i) / a, the argument of q at a point with
        # Im(tau) = sqrt|D| / (2a) in [0.05, 3], as jp_at_form forms it;
        # exp must enclose its value at every point of the ball of z
        rng = random.Random(19)
        for _ in range(200):
            prec, D = rng.randrange(32, 400), -rng.randrange(3, 40000)
            a = max(1, round(math.sqrt(-D) / (2 * rng.uniform(0.05, 3))))
            b = rng.randrange(-a, a + 1)
            z = -(_pi(prec) * Ball(math.isqrt(-D << (2 * prec)), b << prec, 1, prec)) / a
            q = _exp(z)
            assert q.prec == prec
            with mpmath.workprec(4 * prec):
                for point in points_of(z, rng):
                    assert_encloses(q, mpmath.exp(point))

    def test_exp_matches_reference_on_random_balls(self):
        # the floor by 2^wp, then by m, is the floor by m 2^wp, and the
        # looked-up term count is the one from factorials: the same ball
        rng = random.Random(29)
        for i in range(300):
            prec = rng.randrange(32, 700)
            bound = 1 << (prec + rng.randrange(-4, 12))
            z = Ball(rng.randrange(-bound, bound), rng.randrange(-bound, bound),
                     0 if i % 4 == 0 else rng.randrange(1 << (prec - 8)), prec)
            out, ref = _exp(z), exp_reference(z)
            assert (out.re, out.im, out.rad, out.prec) == (ref.re, ref.im, ref.rad, ref.prec)

    def test_exp_matches_reference_on_q_arguments(self, monkeypatch):
        # every argument jp_at_form gives _exp over the Heegner cases
        arguments = []

        def recorded(z):
            arguments.append(z)
            return _exp(z)

        monkeypatch.setattr(hauptmodul, "_exp", recorded)
        for p, ell, shape in HEEGNER_CASES:
            for form in heegner_forms(p, ell, shape):
                jp_at_form(reduce_heegner_form(form, p), p, 128)
        assert len(arguments) == sum(len(heegner_forms(*case)) for case in HEEGNER_CASES)
        for z in arguments:
            out, ref = _exp(z), exp_reference(z)
            assert (out.re, out.im, out.rad, out.prec) == (ref.re, ref.im, ref.rad, ref.prec)

    def test_exp_of_wide_balls(self):
        # balls whose radius, up to 2^-8, outweighs every rounding: the
        # enclosure then rests on carrying the radius through exp
        rng = random.Random(23)
        for _ in range(100):
            prec = rng.randrange(32, 300)
            z = Ball(rng.randrange(-(1 << (prec + 5)), 1 << (prec + 1)),
                     rng.randrange(-(1 << (prec + 3)), 1 << (prec + 3)),
                     rng.randrange(1 << (prec - 30), 1 << (prec - 8)), prec)
            q = _exp(z)
            with mpmath.workprec(4 * prec):
                for point in points_of(z, rng):
                    assert_encloses(q, mpmath.exp(point))


class TestClassicalJ:
    def test_special_values(self):
        assert err(classical_j(1j, BITS), 1728) < tol(BITS, 32)
        with mpmath.workprec(BITS + 64):
            rho = mpmath.mpc(-1, mpmath.sqrt(3)) / 2
            # triple zero at rho: admit cube-root loss of the working accuracy
            assert abs(classical_j(rho, BITS)) < tol(BITS // 3)

    def test_level3_identity(self):
        # j - 1728 = (j30^2 - 486 j30 - 19683)^2 / j30^3 at random points
        rng = random.Random(31)
        with mpmath.workprec(BITS + 64):
            for _ in range(5):
                tau = mpmath.mpc(rng.uniform(-0.45, 0.45), rng.uniform(0.6, 1.3))
                j = classical_j(tau, BITS)
                t = j_p0(tau, 3, BITS, reduce=False)
                rhs = (t**2 - 486 * t - 19683) ** 2 / t**3
                assert err(j - 1728, rhs) < tol(BITS, 24) * max(1.0, float(abs(j)))


class TestTorsionToTau:
    def test_identity_kernel(self):
        assert torsion_to_tau(1j, None, 5) == mpmath.mpc(0, 1)

    def test_inversion_kernel(self):
        z = torsion_to_tau(1j, 2, 5)
        assert err(z, -1 / mpmath.mpc(2, 1)) < 1e-15

    def test_range_check(self):
        with pytest.raises(ValueError):
            torsion_to_tau(1j, 5, 5)
        with pytest.raises(ValueError):
            torsion_to_tau(mpmath.mpc(0, -1), None, 5)


def test_arc_interval_contains_bounded_roots():
    # the worked search at h = 21/2 needs its h interior to j_11(S)
    lo, hi = jp_arc_interval(11)
    assert lo < 1.605 < hi and lo < 10.5 < hi
    assert not (lo < 80 < hi)


def test_arc_interval_regression_values():
    # the endpoints are values at elliptic points; the small-level ones are
    # exact integers
    cases = {3: (-54.0, 54.0), 7: (-14.0, 14.0)}
    for p, (lo, hi) in cases.items():
        got_lo, got_hi = jp_arc_interval(p)
        assert abs(got_lo - lo) < 1e-12 and abs(got_hi - hi) < 1e-12, p
    lo11, hi11 = jp_arc_interval(11)
    assert abs(lo11) < 1e-12 and abs(hi11 - 16.8275008141) < 1e-8
    lo19, hi19 = jp_arc_interval(19)
    assert abs(lo19) < 1e-12 and abs(hi19 - 4 * 2.6672450358) < 1e-8


# float.hex of the ends of j_p(S), pinned bit for bit: the search's real-j
# case compares h with them
ARC_ENDS_HEX = {
    3: ("-0x1.b000000000000p+5", "0x1.b000000000000p+5"),
    7: ("-0x1.c000000000000p+3", "0x1.c000000000000p+3"),
    11: ("0x0.0p+0", "0x1.0d3d717e62cc5p+4"),
    19: ("0x0.0p+0", "0x1.5568490b9d141p+3"),
}


def test_arc_ends_pinned():
    assert {p: tuple(map(float.hex, jp_arc_interval(p))) for p in ARC_ENDS_HEX} == ARC_ENDS_HEX
    # the ends at elliptic points and zeros of j_p are integers
    assert jp_arc_interval(3) == (-54.0, 54.0)
    assert jp_arc_interval(7) == (-14.0, 14.0)
    assert jp_arc_interval(11)[0] == 0.0 and jp_arc_interval(19)[0] == 0.0


@pytest.mark.parametrize("p", [5, 13, 23])
def test_arc_interval_needs_the_real_arc(p):
    with pytest.raises(ValueError, match="real-arc"):
        jp_arc_interval(p)


@pytest.mark.parametrize("p", sorted(LEVELS))
def test_arc_and_unit_exist_exactly_at_the_derived_real_arc(p):
    if level(p).real_arc:
        assert len(jp_arc_interval(p)) == 2 and len(fundamental_unit(p)) == 2
    else:
        for derive in (jp_arc_interval, fundamental_unit):
            with pytest.raises(ValueError, match="real-arc"):
                derive(p)


def arc_forms(p):
    """The forms of the two ends of S: [pc/2, pd, c/2] at Re(tau) = -d/c, of
    discriminant -p, and [p, 0, 1] at tau = i/sqrt(p), of discriminant -4p."""
    c, d = fundamental_unit(p)
    return QuadForm(p * c // 2, p * d, c // 2), QuadForm(p, 0, 1)


@pytest.mark.parametrize("p", [3, 7, 11, 19])
def test_arc_left_end_reduces_to_the_discriminant_minus_p_form(p):
    left, top = arc_forms(p)
    assert left.discriminant() == -p and top.discriminant() == -4 * p
    with mpmath.workprec(BITS):
        c, d = fundamental_unit(p)
        assert err(tau_from_form(left, BITS), arc_point(p, mpmath.mpf(-d) / c, BITS)) < tol(BITS)
    assert reduce_heegner_form(left, p) == QuadForm(p, p, (p + 1) // 4)


@pytest.mark.parametrize("p,exact", [(3, (-54, 54)), (7, (-14, 14)), (11, (0, None)),
                                     (19, (0, None))])
def test_arc_endpoint_enclosures(p, exact):
    # the ends of j_p(S) are real, and the exact values are known where
    # the end is an elliptic point or a zero of j_p
    for form, value in zip(arc_forms(p), exact):
        ball = jp_at_form(reduce_heegner_form(form, p), p, 256)
        assert abs(ball.im) <= ball.rad
        assert ball.rad < 2 ** (ball.prec - 200)
        if value is not None:
            assert (ball.re - (value << ball.prec)) ** 2 + ball.im**2 <= ball.rad**2
