"""The 2-isogeny-graph supersingularity test against independent oracles."""

import random

import pytest

from heegner.intmath import is_prime, kronecker
from heegner.supersingular import (
    PHI2,
    Fq2Field,
    hasse_nonzero_fq,
    hasse_nonzero_fq2,
    is_supersingular,
    phi2_roots,
)

from oracles import (
    curve_from_j,
    hasse_coefficient_by_power,
    hasse_nonzero_by_sweep,
    j_of_curve,
    nonresidue,
    point_count,
    supersingular_js,
    supersingular_mass,
    tonelli_shanks,
)


def phi2(x, y):
    return sum(c * x**i * y**k for k, row in enumerate(PHI2) for i, c in enumerate(row))


class TestPhi2:
    def test_symmetric(self):
        coeffs = {(i, k): c for k, row in enumerate(PHI2) for i, c in enumerate(row)}
        assert all(coeffs.get((k, i)) == c for (i, k), c in coeffs.items())

    def test_cm_neighbours(self):
        # j(rho) = 0 and j(sqrt(-3)) = 54000; j(i) = 1728 has the degree-2
        # endomorphism 1 + i and two edges to j(2i) = 287496; sqrt(-2) and
        # (1 + sqrt(-7))/2 give loops at 8000 and -3375
        for y in range(-3, 4):
            assert phi2(0, y) == (y - 54000) ** 3
            assert phi2(1728, y) == (y - 1728) * (y - 287496) ** 2
        assert phi2(8000, 8000) == 0 and phi2(-3375, -3375) == 0


class TestFq2Field:
    def test_sqrt(self):
        # x is a square in F_q^2 iff its norm is a square in F_q
        rng = random.Random(1)
        for q in (5, 7, 13, 17, 41, 2309, 10007, 2**61 - 1):
            F = Fq2Field(q)
            for _ in range(20):
                x = (rng.randrange(q), rng.randrange(q))
                root = F.sqrt(F.mul(x, x))
                assert F.mul(root, root) == F.mul(x, x)
                norm = (x[0] ** 2 - F.m * x[1] ** 2) % q
                if norm:
                    assert (F.sqrt(x) is None) == (pow(norm, (q - 1) // 2, q) != 1), (q, x)

    def test_sqrt_of_fq_squares(self):
        # a square of F_q has its root in F_q; 17 and 65537 = 2^16 + 1 run
        # the Tonelli-Shanks loop with q - 1 = 2^s d for s = 4 and 16
        rng = random.Random(5)
        for q in (5, 13, 17, 101, 151, 2309, 10007, 65537):
            F = Fq2Field(q)
            for _ in range(20):
                x = rng.randrange(1, q)
                r0, r1 = F.sqrt((x * x % q, 0))
                assert r1 == 0 and r0 * r0 % q == x * x % q, (q, x)

    def test_sqrt_of_fq_nonsquare_on_t_fq(self):
        # 2 is not a square mod 5: its root is y1 t with y1^2 = 2 / m, on t F_q
        F = Fq2Field(5)
        root = F.sqrt((2, 0))
        assert root[0] == 0 and root[1] != 0 and F.mul(root, root) == (2, 0)
        rng = random.Random(6)
        for q in (13, 17, 2309, 65537):
            F = Fq2Field(q)
            for _ in range(20):
                x = F.m * pow(rng.randrange(1, q), 2, q) % q  # a non-square
                root = F.sqrt((x, 0))
                assert root[0] == 0 and F.mul(root, root) == (x, 0), (q, x)

    @pytest.mark.parametrize("q", [7, 11, 5, 13, 41, 17, 97, 193, 641, 257, 7681, 13313,
                                   18433, 12289, 40961, 114689, 163841, 65537])
    def test_sqrt_fq_is_the_reference_root(self, q):
        # q - 1 = 2^s d for every s from 1 to 16, with q = 3 mod 4 at s = 1:
        # on every a in F_q the root is the reference's integer, and None
        # exactly on the (q - 1) / 2 non-residues
        F = Fq2Field(q)
        roots = [F._sqrt_fq(a) for a in range(q)]
        assert roots == [tonelli_shanks(a, q, F.m) for a in range(q)]
        assert roots.count(None) == (q - 1) // 2

    @pytest.mark.parametrize("q", [2, 1, 0])
    def test_no_non_residue_raises(self, q):
        # F_2 and the rings below it have no non-residue to adjoin a root of
        with pytest.raises(ValueError, match="non-residue"):
            Fq2Field(q)

    def test_inverse(self):
        F = Fq2Field(101)
        for x in ((1, 0), (0, 1), (37, 64)):
            assert F.mul(x, F.inv(x)) == (1, 0)


class TestHasseFq:
    def test_against_literal_power(self):
        rng = random.Random(2)
        for q in (5, 7, 11, 37, 101, 151):
            m2, F = nonresidue(q), Fq2Field(q)
            for _ in range(12):
                a, b = rng.randrange(q), rng.randrange(q)
                if (4 * a**3 + 27 * b**2) % q == 0:
                    continue
                expected = hasse_coefficient_by_power(q, a, b) != 0
                j0, j1 = j_of_curve(q, m2, a, 0, b, 0)
                assert j1 == 0 and hasse_nonzero_fq(q, j0, F) == expected, (q, a, b)

    def test_special_curves(self):
        # j = 1728 (b = 0): supersingular iff q = 3 mod 4
        # j = 0 (a = 0): supersingular iff q = 2 mod 3
        for q in (5, 7, 11, 13, 17, 19, 23, 2309):
            m2 = nonresidue(q)
            assert j_of_curve(q, m2, 1, 0, 0, 0) == (1728 % q, 0)
            assert j_of_curve(q, m2, 0, 0, 1, 0) == (0, 0)
            F = Fq2Field(q)
            assert (not hasse_nonzero_fq(q, 1728, F)) == (q % 4 == 3)
            assert (not hasse_nonzero_fq(q, 0, F)) == (q % 3 == 2)


class TestHasseFq2:
    def test_rational_inputs_match_fq(self):
        rng = random.Random(3)
        for q in (13, 37, 151):
            F = Fq2Field(q)
            for _ in range(10):
                j = rng.randrange(q)
                assert hasse_nonzero_fq2(q, j, 0, F) == hasse_nonzero_fq(q, j, F)

    def test_against_sweep(self):
        # y^2 = x^3 + (1 + t) x + b for every b in the standard F_q(t),
        # against the O(q) Hasse sweep there; both verdicts occur
        for q in (13, 37):
            F = Fq2Field(q)
            m2, verdicts = F.m, set()
            for b0 in range(q):
                for b1 in range(q):
                    try:
                        j = j_of_curve(q, m2, 1, 1, b0, b1)
                    except ValueError:  # singular
                        continue
                    expected = hasse_nonzero_by_sweep(q, m2, 1, 1, b0, b1)
                    assert hasse_nonzero_fq2(q, *j, F) == expected, (q, b0, b1)
                    verdicts.add(expected)
            assert verdicts == {False, True}, q


def _has_repeated_root(F, j):
    """Whether the discriminant of Phi_2(j, Y) = Y^3 + bY^2 + cY + d vanishes."""
    d, c, b = (_eval_row(F, row, j) for row in PHI2[:3])
    mul = F.mul
    terms = ((mul(mul(b, b), mul(c, c)), 1), (mul(mul(c, c), c), -4),
             (mul(mul(mul(b, b), b), d), -4), (mul(d, d), -27), (mul(mul(b, c), d), 18))
    disc = (0, 0)
    for term, k in terms:
        disc = F.add(disc, F.scale(term, k))
    return disc == (0, 0)


def _eval_row(F, row, j):
    value, power = (0, 0), (1, 0)
    for coef in row:
        value = F.add(value, F.scale(power, coef))
        power = F.mul(power, j)
    return value


def test_exhaustive_against_hasse_sweep():
    # every j in F_q^2 for 5 <= q <= 61, against the O(q) Hasse sweep; this
    # includes j = 0, 1728 and the j whose Phi_2(j, Y) has a repeated root
    repeated = 0
    for q in range(5, 62):
        if not is_prime(q):
            continue
        F = Fq2Field(q)
        expected = supersingular_js(q, F.m)
        assert len(expected) == supersingular_mass(q), q
        found = {(j0, j1) for j1 in range(q) for j0 in range(q)
                 if is_supersingular(F, (j0, j1))}
        assert found == expected, (q, sorted(found ^ expected))
        repeated += sum(1 for j in expected if j not in ((0, 0), (1728 % q, 0))
                        and _has_repeated_root(F, j))
    assert repeated > 0  # the repeated-root branch was exercised


@pytest.mark.parametrize("q", [7681, 12289])
def test_walk_off_fq_at_large_two_adic_part(q):
    # q - 1 = 2^s d with s = 9 and 12, so Tonelli-Shanks reads deep into the
    # field's table.  j off F_q: every vertex within three 2-isogenies of
    # j(-43) = -960^3, supersingular since q is inert in Q(sqrt(-43)), and
    # seeded random j; each verdict against the O(q) Hasse sweep
    F = Fq2Field(q)
    assert F.s >= 9 and kronecker(-43, q) == -1
    seen = {(-960**3 % q, 0)}
    frontier = list(seen)
    for _ in range(3):
        frontier = list(dict.fromkeys(y for x in frontier for y in phi2_roots(F, x)
                                      if y not in seen))
        seen.update(frontier)
    near = sorted(j for j in seen if j[1])
    rng = random.Random(q)
    inputs = near + [(rng.randrange(q), rng.randrange(1, q)) for _ in range(12)]
    verdicts = []
    for j in inputs:
        expected = not hasse_nonzero_by_sweep(q, F.m, *curve_from_j(q, F.m, *j))
        assert is_supersingular(F, j) == expected, (q, j)
        verdicts.append(expected)
    assert len(near) >= 8 and all(verdicts[:len(near)]), (q, near)
    assert not all(verdicts), q


def test_characteristic_3_only_zero():
    # in characteristic 3 the only supersingular j is 0 (and 1728 = 0 there)
    F = Fq2Field(3)
    found = {(j0, j1) for j1 in range(3) for j0 in range(3) if is_supersingular(F, (j0, j1))}
    assert found == {(0, 0)}
    assert is_supersingular(F, (3, -6)) and not is_supersingular(F, (4, 0))


def test_rational_against_point_count():
    # every j in F_q, q < 500: supersingular iff #E(F_q) = q + 1
    for q in range(5, 500):
        if not is_prime(q):
            continue
        F = Fq2Field(q)
        for j0 in range(q):
            a, _, b, _ = curve_from_j(q, F.m, j0, 0)
            assert is_supersingular(F, (j0, 0)) == (point_count(q, a, b) == q + 1), (q, j0)


def test_j_54000_near_2_62():
    # j = 54000 has CM by Z[sqrt(-3)]: supersingular iff q = 2 mod 3
    q = 2**62
    while not (is_prime(q) and q % 3 == 2):
        q -= 1
    assert is_supersingular(Fq2Field(q), (54000, 0))
    q = 2**62
    while not (is_prime(q) and q % 3 == 1):
        q -= 1
    assert not is_supersingular(Fq2Field(q), (54000, 0))
