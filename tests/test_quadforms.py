import functools
import hashlib
import json
import math
import random
from itertools import combinations_with_replacement

import pytest

from heegner.intmath import is_prime, kronecker
from heegner.levels import LEVELS
from heegner.quadforms import (
    Discriminant,
    QuadForm,
    al_pair_classes,
    class_number,
    enumerate_classes,
    fundamental_unit,
    heegner_rep,
)

from conftest import admissible_pairs
from oracles import (
    PellData,
    bounded_root_form,
    compose,
    diophantine_obstruction_check,
    ideal_product_form,
    is_reduced,
    norm_equation_solutions,
    p_ideal_class,
    pell_fundamental_by_scan,
    principal_form,
    reduce_form,
    unbounded_root_forms,
)


@functools.cache
def heegner_groups():
    """(p, D, class group) for every level p, prime l < 1000 and valid shape."""
    out = []
    for p in LEVELS:
        for ell in range(2, 1000):
            for shape in ("-pl", "-4pl"):
                try:
                    disc = Discriminant(p, ell, shape)
                except ValueError:
                    continue
                out.append((p, disc.D, enumerate_classes(disc.D)))
    return tuple(out)


class TestReduce:
    def test_already_reduced(self):
        assert reduce_form(QuadForm(1, 0, 55)) == QuadForm(1, 0, 55)
        assert reduce_form(QuadForm(5, 0, 11)) == QuadForm(5, 0, 11)

    def test_reduction_preserves_discriminant(self):
        f = QuadForm(121, 66, 10)
        r = reduce_form(f)
        assert r.discriminant() == f.discriminant() == -484
        assert is_reduced(r)
        assert 3 * r.a * r.a <= 484

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            reduce_form(QuadForm(2, 2, 28))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            reduce_form(QuadForm(1, 5, 1))

    def test_random_forms(self):
        rng = random.Random(3)
        for _ in range(300):
            a = rng.randrange(1, 50)
            b = rng.randrange(-50, 50)
            cmin = (b * b) // (4 * a) + 1
            c = rng.randrange(cmin, cmin + 50)
            f = QuadForm(a, b, c)
            if f.discriminant() >= 0 or not f.is_primitive():
                continue
            r = reduce_form(f)
            assert is_reduced(r) and r.discriminant() == f.discriminant()


class TestEnumerate:
    def test_known_class_numbers(self):
        assert class_number(-220) == 4
        assert class_number(-1628) == 16
        assert class_number(-55) == 4

    def test_all_reduced_distinct(self):
        for D in (-220, -1628, -55, -15, -84567):
            grp = enumerate_classes(D)
            assert len(set(grp)) == len(grp)
            for f in grp:
                assert is_reduced(f) and f.discriminant() == D
            assert principal_form(D) in grp

    def test_inverse_of_reduced_class(self):
        # the rule build_PD pairs conjugate roots by: the inverse of a reduced
        # [a, b, c] is [a, -b, c], or itself when b = 0, b = a or a = c
        for _, _, grp in heegner_groups():
            for a, b, c in grp:
                inverse = reduce_form(QuadForm(a, -b, c))
                if b == 0 or b == a or a == c:
                    assert inverse == (a, b, c)
                else:
                    assert inverse == (a, -b, c) and inverse in grp


# SHA-256 of the classes and Atkin-Lehner pairs of the 160 sweep
# discriminants as JSON lines, in admissible_pairs() order with -pl before
# -4pl; pinned when QuadForm was an ordered dataclass
CLASSES_SHA256 = "01f2d823268a0a49546935d67b974434f988a91ea4caaab3ef19d33fd8bb2725"


class TestQuadFormTuple:
    def test_hash_is_the_tuple_hash(self):
        for a, b, c in ((1, 0, 55), (5, -4, 12), (84, 70, 17), (3**40, -(2**70), 7**30)):
            assert hash(QuadForm(a, b, c)) == hash((a, b, c))

    def test_order_is_the_tuple_order(self):
        rng = random.Random(5)
        forms = [QuadForm(rng.randrange(1, 6), rng.randrange(-5, 6), rng.randrange(1, 6))
                 for _ in range(300)]
        rng.shuffle(forms)
        assert [tuple(f) for f in sorted(forms)] == sorted(tuple(f) for f in forms)

    def test_sweep_classes_and_pairs_pinned(self):
        def triple(f):
            return [f.a, f.b, f.c]

        lines = []
        for p, ell in admissible_pairs():
            for shape in ("-pl", "-4pl"):
                D = Discriminant(p, ell, shape).D
                group = enumerate_classes(D)
                pairs = al_pair_classes(group, p)
                lines.append(json.dumps([D, [triple(f) for f in group],
                                         [[triple(f), triple(g)] for f, g in pairs]]))
        assert len(lines) == 160
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CLASSES_SHA256


class TestCompose:
    def test_identity(self):
        e = principal_form(-220)
        for f in enumerate_classes(-220):
            assert compose(e, f) == f

    def test_inverse(self):
        for D in (-220, -55, -1628):
            for f in enumerate_classes(D):
                assert compose(QuadForm(f.a, -f.b, f.c), f) == principal_form(D)

    def test_p_ideal_is_two_torsion(self):
        f = QuadForm(5, 0, 11)
        assert compose(f, f) == QuadForm(1, 0, 55)

    def test_rejects_mismatched_discriminant(self):
        with pytest.raises(ValueError):
            compose(QuadForm(1, 0, 55), QuadForm(1, 0, 56))

    def test_against_ideal_oracle(self):
        # full law check on a few groups; the |D| < 4000 sweep runs in acceptance
        for D in (-220, -55, -1628, -260):
            classes = enumerate_classes(D)
            for f, g in combinations_with_replacement(classes, 2):
                assert compose(f, g) == ideal_product_form(f, g), (D, f, g)

    def test_associativity_sample(self):
        classes = enumerate_classes(-1628)
        import random

        rng = random.Random(5)
        for _ in range(50):
            f, g, h = (rng.choice(classes) for _ in range(3))
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


class TestPIdealClass:
    def test_minus_4pl(self):
        d = Discriminant(11, 5, "-4pl")
        assert p_ideal_class(d) == QuadForm(5, 0, 11)

    def test_minus_pl(self):
        d = Discriminant(3, 5, "-pl")
        assert p_ideal_class(d) == QuadForm(2, 1, 2)

    def test_square_is_principal(self):
        for d in (Discriminant(11, 5, "-4pl"), Discriminant(3, 5, "-pl"),
                  Discriminant(11, 5, "-pl"), Discriminant(13, 7, "-pl")):
            f = p_ideal_class(d)
            assert compose(f, f) == principal_form(d.D)


class TestHeegnerRep:
    def test_principal_of_minus_220(self):
        f = heegner_rep(QuadForm(1, 0, 55), 11)
        assert f.a % 11 == 0 and f.b % 11 == 0
        assert reduce_form(f) == QuadForm(1, 0, 55)

    def test_p_class_of_minus_220(self):
        f = heegner_rep(QuadForm(5, 0, 11), 11)
        assert f == QuadForm(11, 0, 5)

    def test_equivalence_preserved(self):
        # includes D = -220, -1628, -55 at p = 11, -15 at p = 3, -815 at p = 5
        for p, D, grp in heegner_groups():
            for cls in grp:
                f = heegner_rep(cls, p)
                assert f.a % p == 0 and f.b % p == 0
                assert f.discriminant() == D
                assert reduce_form(f) == cls

    def test_any_form_of_the_class(self):
        # the form is translated as given, reduced or not: a unimodular
        # change of variables leaves the class, and so the Heegner form's
        rng = random.Random(7)
        for p, D, grp in heegner_groups()[::25]:
            for cls in grp:
                a, b, c = cls
                for _ in range(3):
                    k = rng.randrange(-9, 10)  # x -> x + k y, then x <-> y
                    a, b, c = a * k * k + b * k + c, -(2 * a * k + b), a
                form = QuadForm(a, b, c)
                f = heegner_rep(form, p)
                assert f.a % p == 0 and f.b % p == 0 and f.discriminant() == D
                assert reduce_form(form) == reduce_form(f) == cls


class TestALPairs:
    def test_minus_220(self):
        pairs = al_pair_classes(enumerate_classes(-220), 11)
        assert len(pairs) == 2

    def test_minus_1628(self):
        pairs = al_pair_classes(enumerate_classes(-1628), 11)
        assert len(pairs) == 8

    def test_pairing_is_involution(self):
        # the Fricke pairing is multiplication by the ramified class: it
        # matches Gauss composition with the oracle's p-ideal class
        for p, D, grp in heegner_groups():  # D = -1628 at p = 11 among them
            pform = p_ideal_class(Discriminant.from_D(D, p))
            expected, seen = [], set()
            for f in grp:
                partner = compose(f, pform)
                assert compose(partner, pform) == f
                if f not in seen:
                    seen.update((f, partner))
                    expected.append((min(f, partner), max(f, partner)))
            assert al_pair_classes(grp, p) == expected, D

    @pytest.mark.parametrize("D,p", [(-924, 11), (-1540, 11), (-1140, 19), (-924, 7),
                                     (-420, 3)])
    def test_pairing_with_a_composite_cofactor(self, D, p):
        # the pairing needs p to divide D exactly once, not D = -4pl: the
        # partner of a class is its composition with the ramified class [p, 0, m]
        grp = enumerate_classes(D)
        pform = reduce_form(QuadForm(p, 0, -D // (4 * p)))
        expected, seen = [], set()
        for f in grp:
            partner = compose(f, pform)
            if f not in seen:
                seen.update((f, partner))
                expected.append((min(f, partner), max(f, partner)))
        assert al_pair_classes(grp, p) == expected

    @pytest.mark.parametrize("D,p,message", [
        (-12, 11, "exactly once"),     # p does not divide D
        (-484, 11, "exactly once"),    # p^2 divides D
        (-4 * 17 * 5, 17, "unsupported p"),
    ])
    def test_pairing_precondition(self, D, p, message):
        with pytest.raises(ValueError, match=message):
            al_pair_classes(enumerate_classes(D), p)

    def test_pairs_partition_classes(self):
        grp = enumerate_classes(-4 * 11 * 89)
        pairs = al_pair_classes(grp, 11)
        seen = [f for pair in pairs for f in pair]
        assert sorted(seen) == sorted(grp)


class TestUnboundedRootForms:
    def test_shape_4pl(self):
        d = Discriminant(11, 5, "-4pl")
        f1, f2 = unbounded_root_forms(d)
        assert f1 == QuadForm(1, 0, 55)
        assert f2 == QuadForm(5, 0, 11)

    def test_shape_pl(self):
        d = Discriminant(3, 5, "-pl")
        f1, f2 = unbounded_root_forms(d)
        assert f1 == QuadForm(1, 1, 4)
        assert f2 == QuadForm(2, 1, 2)

    def test_al_pair(self):
        for d in (Discriminant(11, 5, "-4pl"), Discriminant(3, 5, "-pl"),
                  Discriminant(7, 13, "-4pl")):
            f1, f2 = unbounded_root_forms(d)
            assert compose(reduce_form(f1), p_ideal_class(d)) == reduce_form(f2)


class TestFundamentalUnit:
    @pytest.mark.parametrize("p,expected", [(3, (2, 1)), (7, (8, 3)), (11, (10, 3)), (19, (170, 39))])
    def test_known_units(self, p, expected):
        assert fundamental_unit(p) == expected

    @pytest.mark.parametrize("p", [3, 7, 11, 19])
    def test_against_scan_oracle(self, p):
        assert fundamental_unit(p) == pell_fundamental_by_scan(p)

    @pytest.mark.parametrize("p", [3, 7, 11, 19])
    def test_parity(self, p):
        c, d = fundamental_unit(p)
        assert c % 2 == 0 and d % 2 == 1
        assert c * c - p * d * d == 1

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            fundamental_unit(5)


class TestBoundedRootForm:
    def test_p11_ell5(self):
        form, (A, B) = bounded_root_form(11, 5)
        assert (A, B) == (7, 2)
        assert form == QuadForm(77, 44, 7)
        assert form.discriminant() == -220

    def test_square_is_p_class(self):
        for p, ell in ((11, 5), (11, 37), (7, 29), (19, 5), (3, 13)):
            form, (A, B) = bounded_root_form(p, ell)
            assert A * A - p * B * B == ell and A % 2 == 1
            target = reduce_form(QuadForm(p, 0, ell))
            assert compose(reduce_form(form), reduce_form(form)) == target

    def test_real_part_in_arc(self):
        for p, ell in ((11, 5), (11, 37), (19, 17), (7, 53)):
            _, (A, B) = bounded_root_form(p, ell)
            c, d = fundamental_unit(p)
            assert 0 <= B * c < A * d  # 0 <= B/A < d/c

    def test_pell_data_container(self):
        pd = PellData.for_prime(11, 5)
        assert (pd.c, pd.d) == (10, 3)
        assert (7, 2) in pd.solutions


class TestDiophantine:
    def test_known_cases(self):
        assert diophantine_obstruction_check(5, 3)
        assert diophantine_obstruction_check(13, 7)

    def test_more_admissible_cases(self):
        for p, ell in ((5, 7), (5, 23), (13, 11), (13, 19)):
            assert diophantine_obstruction_check(p, ell, bound=100)


class TestDiscriminant:
    def test_shapes(self):
        assert Discriminant(11, 5, "-4pl").D == -220
        assert Discriminant(11, 5, "-pl").D == -55

    def test_pl_parity_rule(self):
        with pytest.raises(ValueError):
            Discriminant(5, 13, "-pl")  # 65 = 1 mod 4 is not a discriminant

    def test_from_D(self):
        assert Discriminant.from_D(-220, 11) == Discriminant(11, 5, "-4pl")
        assert Discriminant.from_D(-55, 11) == Discriminant(11, 5, "-pl")
        with pytest.raises(ValueError):
            Discriminant.from_D(-3, 11)

    def test_rejects_composite_ell(self):
        with pytest.raises(ValueError):
            Discriminant(11, 15, "-4pl")


def admissible_ells_3mod4(p, count):
    """First `count` primes l = 1 mod 4 splitting in O_-p (p = 3 mod 4)."""
    out = []
    ell = 3
    while len(out) < count:
        ell += 2
        if is_prime(ell) and ell % 4 == 1 and kronecker(-p, ell) == 1:
            out.append(ell)
    return out


def test_uniform_distribution_of_bounded_roots():
    # Over the first 200 admissible l for p = 11 the roots equidistribute on
    # the arc S in the unit-circle angle of ((A+B*sqrt p)/(A-B*sqrt p)), the
    # coordinate in which the equidistribution statement lives.  Note the
    # pushforward to Re(tau) = -B/A is far from uniform (density grows like
    # 1/(1 - p t^2) near -d/c), so halves of (-d/c, 0) are badly unbalanced;
    # we assert equidistribution in the angle and mere recurrence in Re(tau).
    p = 11
    c, d = fundamental_unit(p)
    sp = math.sqrt(p)
    log_eps2 = 2 * math.log(c + d * sp)
    angle_left = angle_right = 0
    re_left = re_right = 0
    for ell in admissible_ells_3mod4(p, 200):
        _, (A, B) = bounded_root_form(p, ell)
        t = B / A
        frac = math.log((1 + t * sp) / (1 - t * sp)) / log_eps2
        assert 0 <= frac < 1
        if frac > 0.5:
            angle_left += 1
        else:
            angle_right += 1
        if t > d / (2 * c):
            re_left += 1
        else:
            re_right += 1
    assert angle_left >= 50 and angle_right >= 50
    assert re_left >= 20 and re_right >= 20


def test_eichler_degree_relation_sample():
    # h(-4pl) = (3 - eps) h(-pl) with eps from the splitting of 2; full sweep
    # to l < 500 runs in the acceptance suite
    from heegner.modpoly import epsilon_split

    for p, ell in ((11, 5), (3, 5), (7, 13), (19, 5), (5, 3), (13, 7), (11, 37)):
        Dp = -p * ell
        eps = epsilon_split(Dp)
        assert class_number(-4 * p * ell) == (3 - eps) * class_number(Dp), (p, ell)


def test_class_number_even_and_pairing_complete():
    # every valid-shape discriminant has even h and splits into h/2 AL pairs
    cases = [(11, 5, "-4pl"), (11, 5, "-pl"), (3, 13, "-4pl"), (5, 7, "-pl"),
             (7, 29, "-4pl"), (13, 19, "-pl"), (19, 17, "-4pl"), (5, 43, "-4pl")]
    for p, ell, shape in cases:
        d = Discriminant(p, ell, shape)
        grp = enumerate_classes(d.D)
        assert len(grp) % 2 == 0, d
        pairs = al_pair_classes(grp, p)
        assert len(pairs) == len(grp) // 2
        flattened = sorted(f for pair in pairs for f in pair)
        assert flattened == sorted(grp)
