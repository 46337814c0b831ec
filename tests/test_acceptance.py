"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or plain pytest; the
lines still appear in captured output).  Criteria cover exact reproduction of
the worked examples, the end-to-end search, independent verification, the
Hauptmodul anchors, the squareness and real-root sweeps over every admissible
l < 300, the structural oracles, and the empirical level-23 study.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement

import mpmath
import pytest

from heegner.classpoly import (
    build_PD,
    build_Pl,
    evaluate,
)
from heegner.hauptmodul import jp_arc_interval
from heegner.intmath import is_prime, kronecker
from heegner.modpoly import (
    epsilon_split,
    is_perfect_square,
    is_square_times_linear,
    mod_p_square_check,
)
from heegner.quadforms import (
    Discriminant,
    class_number,
    enumerate_classes,
    fundamental_unit,
)
from heegner.sssearch import ell_admissible, search
from heegner.ssverify import _is_supersingular, _residues, QuadSurd
from heegner.supersingular import Fq2Field

from oracles import (
    arc_point,
    compose,
    count_real_roots,
    count_roots_in,
    ideal_product_form,
    j_p,
    point_count,
    torsion_to_tau,
)

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

J11_POINT = QuadSurd.from_string("(-489229980611-42355313*sqrt(-84567))/4096")


@contextmanager
def criterion(number, description):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL - {description}")
        raise
    print(f"CRITERION {number}: PASS - {description} ({time.time() - started:.1f}s)")


from conftest import admissible_pairs


def test_criterion_1_exact_reproduction():
    with criterion(1, "P_-220 and P_-1628 reproduce the printed polynomials"):
        started = time.time()
        assert build_PD(-220, 11).coefficients == (121, -77, 1)
        assert build_PD(-1628, 11).coefficients == P1628_COEFFS
        assert time.time() - started < 30


def test_criterion_2_end_to_end_search():
    with criterion(2, "search at h = 21/2 yields 2309 at l=5 then {7,151} at l=37"):
        started = time.time()
        h = Fraction(21, 2)
        first = search(11, h, count=1)
        assert [c.ell for c in first] == [5]
        assert first[0].selected == (2309,)
        assert first[0].value == Fraction(-2309, 4)
        second = search(11, h, sigma=(2309,), count=2)
        assert [c.ell for c in second] == [37]
        assert set(second[0].selected) == {7, 151}
        assert second[0].value == Fraction(-(7**2) * 151 * 452233314041, 256)
        assert time.time() - started < 120


def test_criterion_3_verification():
    with criterion(3, "the printed j reduces to 6 mod 7 and {67,101} mod 151, all supersingular"):
        started = time.time()
        F7, F151, F2309 = Fq2Field(7), Fq2Field(151), Fq2Field(2309)
        assert _residues(J11_POINT, F7) == [(6, 0)]
        assert _residues(J11_POINT, F151) == [(67, 0), (101, 0)]
        assert _is_supersingular(F7, (6, 0))
        assert _is_supersingular(F151, (67, 0))
        assert _is_supersingular(F151, (101, 0))
        [r2309] = _residues(J11_POINT, F2309)
        assert _is_supersingular(F2309, r2309)
        assert time.time() - started < 10


def test_criterion_4_hauptmodul_anchors():
    with criterion(4, "j_5 table values and the j_13 anchor to 1e-20 at 256 bits"):
        bits = 256
        with mpmath.workprec(bits + 64):
            s5 = mpmath.sqrt(5)
            expected = {
                None: 248 + 126 * s5,
                0: 248 + 126 * s5,
                1: 248 - 126 * s5,
                2: mpmath.mpf(-22),
                3: mpmath.mpf(-22),
                4: 248 - 126 * s5,
            }
            for k, value in expected.items():
                z = torsion_to_tau(1j, k, 5, bits)
                assert abs(j_p(z, 5, bits) - value) < mpmath.mpf(10) ** -20, k
            z13 = torsion_to_tau(1j, 5, 13, bits)
            assert abs(j_p(z13, 13, bits) - (-6)) < mpmath.mpf(10) ** -20


def test_criterion_5_squareness_suite(sweep_polys):
    with criterion(5, "mod-l shape and mod-p squareness over every admissible l < 300"):
        started = time.time()
        pairs = admissible_pairs()
        # the complete admissible universe below 300 is these 80 pairs; both
        # discriminant shapes per pair give 160 instances of the mod-l
        # statement
        assert len(pairs) == 80
        polys = sweep_polys
        instances = 0
        for (p, ell), shapes in polys.items():
            for poly in shapes.values():
                instances += 1
                f = poly.coefficients
                if p % 4 == 3:
                    assert is_perfect_square(f, ell) is not None, (p, ell, poly.D)
                else:
                    root = -22 if p == 5 else -6
                    assert is_square_times_linear(f, ell, root) is not None, (p, ell, poly.D)
            if p % 4 == 3:
                companion = shapes["-pl"] if p == 11 else None
                ok = mod_p_square_check(shapes["-4pl"], companion) is not None
            else:
                ok = mod_p_square_check(build_Pl((shapes["-pl"], shapes["-4pl"]))) is not None
            assert ok, (p, ell)
        assert instances == 160 >= 100
        assert time.time() - started < 1200


def _largest_root_floor(poly):
    """Integer t with at least one root in (t, bound]: floor of the largest root."""
    bound = 1 + max(abs(c) for c in poly.coefficients)
    lo, hi = -bound, bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if count_roots_in(poly, Fraction(mid), Fraction(bound)) >= 1:
            lo = mid
        else:
            hi = mid
    return lo


def test_criterion_6_real_root_suite(sweep_polys):
    with criterion(6, "real-root counts, signs, bounded root location, arc monotonicity"):
        polys = sweep_polys
        intervals = {p: jp_arc_interval(p) for p in (3, 7, 11, 19)}
        for (p, ell), shapes in polys.items():
            odd, even = shapes["-pl"], shapes["-4pl"]
            big = Fraction(1) + max(abs(c) for c in even.coefficients + odd.coefficients)
            if p % 4 == 1:
                # one real root per factor, diverging to -inf resp. +inf
                assert count_real_roots(odd) == 1, (p, ell)
                assert count_real_roots(even) == 1, (p, ell)
                assert count_roots_in(odd, -big, Fraction(0)) == 1, (p, ell)
                assert count_roots_in(even, Fraction(0), big) == 1, (p, ell)
            else:
                assert count_real_roots(even) == 2, (p, ell)
                lo, hi = intervals[p]
                flo = Fraction(math.floor(lo * 2**20) - 1, 2**20)
                fhi = Fraction(math.ceil(hi * 2**20) + 1, 2**20)
                assert count_roots_in(even, flo, fhi) == 1, (p, ell)
        # unbounded root grows monotonically through 10 successive l (p = 11)
        ells11 = sorted(ell for (p, ell) in polys if p == 11)[:10]
        tops = [_largest_root_floor(polys[11, ell]["-4pl"]) for ell in ells11]
        assert all(a < b for a, b in zip(tops, tops[1:])), tops
        # and the p = 5 factors diverge in opposite directions
        ells5 = sorted(ell for (p, ell) in polys if p == 5)[:10]
        ups = [_largest_root_floor(polys[5, ell]["-4pl"]) for ell in ells5]
        downs = [_largest_root_floor(polys[5, ell]["-pl"]) for ell in ells5]
        assert all(a < b for a, b in zip(ups, ups[1:])), ups
        assert all(a > b for a, b in zip(downs, downs[1:])), downs
        # monotone increasing clockwise along S, 50 samples
        for p in (3, 7, 11, 19):
            c, d = fundamental_unit(p)
            samples = []
            for i in range(50):
                re = -mpmath.mpf(d) / c * (1 - (i + 1) / 51)
                samples.append(float(mpmath.re(j_p(arc_point(p, re, 128), p, 128))))
            assert all(a < b for a, b in zip(samples, samples[1:])), p


def _valid_discriminants(limit):
    out = set()
    for p in (3, 5, 7, 11, 13, 19, 23):
        ell = 2
        while p * ell < limit:
            if is_prime(ell) and ell != p:
                if (p * ell) % 4 == 3:
                    out.add((-p * ell, p))
                if 4 * p * ell < limit:
                    out.add((-4 * p * ell, p))
            ell += 1
    return sorted(out)


def test_criterion_7_structural_oracles():
    with criterion(7, "composition vs ideal arithmetic, class-number relation, Hasse vs counting"):
        # class-group law against ideal multiplication, |D| < 4000
        checked = 0
        for D, _p in _valid_discriminants(4000):
            classes = enumerate_classes(D)
            for f, g in combinations_with_replacement(classes, 2):
                assert compose(f, g) == ideal_product_form(f, g), (D, f, g)
                checked += 1
        assert checked > 10000
        # h(-4pl) = (3 - eps) h(-pl) for all admissible l < 500
        relations = 0
        for p in (3, 5, 7, 11, 13, 19):
            for ell in range(3, 500):
                if not is_prime(ell) or ell == p or (p * ell) % 4 != 3:
                    continue
                eps = epsilon_split(-p * ell)
                assert class_number(-4 * p * ell) == (3 - eps) * class_number(-p * ell)
                relations += 1
        assert relations > 250
        # supersingularity test vs exhaustive point counting for q < 100
        for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                  61, 67, 71, 73, 79, 83, 89, 97):
            F = Fq2Field(q)
            for j0 in range(q):
                if j0 == 0:
                    a, b = 0, 1
                elif (j0 - 1728) % q == 0:
                    a, b = 1, 0
                else:
                    k = j0 * pow((1728 - j0) % q, -1, q) % q
                    a, b = 3 * k % q, 2 * k % q
                assert _is_supersingular(F, (j0, 0)) == (point_count(q, a, b) == q + 1)


def test_criterion_8_level_23_empirical():
    with criterion(8, "P_D mod 23 is a perfect square exactly at l in {101, 173, 317}"):
        for ell in (101, 173, 317):
            poly = build_PD(Discriminant(23, ell, "-4pl"))
            assert is_perfect_square(poly.coefficients, 23) is not None, ell
        # negative control: the smallest admissible l is not a square case
        control = build_PD(Discriminant(23, 13, "-4pl"))
        assert is_perfect_square(control.coefficients, 23) is None
