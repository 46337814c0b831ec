"""The library's checks on outside input: each call raises its own error."""

from fractions import Fraction

import pytest

from heegner.classpoly import build_PD
from heegner.modpoly import epsilon_split, is_square_times_linear
from heegner.quadforms import (
    ALFixedClassError,
    Discriminant,
    QuadForm,
    al_pair_classes,
    enumerate_classes,
    heegner_rep,
)
from heegner.sssearch import extract_primes
from heegner.ssverify import lift_j_from_h_level3
from heegner.supersingular import Fq2Field, phi2_roots

GUARDS = [
    ("even degree", lambda: is_square_times_linear((1, 0, 1), 7, 0),
     ValueError, "expected a monic polynomial of odd degree"),
    ("positive D", lambda: epsilon_split(3), ValueError, "3 is not a discriminant"),
    ("shape", lambda: Discriminant(11, 5, "-8pl"), ValueError, "unknown shape"),
    ("D off p", lambda: Discriminant.from_D(-99, 11), ValueError, "neither shape"),
    ("D = 2 mod 4", lambda: enumerate_classes(-6), ValueError, "invalid negative discriminant"),
    ("D > 0", lambda: enumerate_classes(5), ValueError, "invalid negative discriminant"),
    ("p off D", lambda: heegner_rep(QuadForm(1, 1, 3), 7), ValueError,
     "does not divide the discriminant"),
    ("fixed class", lambda: al_pair_classes(enumerate_classes(-12), 3), ALFixedClassError,
     "Atkin-Lehner fixed"),
    ("real h", lambda: lift_j_from_h_level3(54), ValueError, "real case not handled"),
    ("bare D", lambda: build_PD(-220), ValueError, "p is required"),
    ("non-square denominator", lambda: extract_primes(Fraction(-1, 2), 11, 5, ()),
     ArithmeticError, "is not a perfect square"),
    ("characteristic 3", lambda: phi2_roots(Fq2Field(3), (0, 0)), ValueError, "needs q > 3"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in GUARDS],
                         ids=[case[0] for case in GUARDS])
def test_outside_input_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
