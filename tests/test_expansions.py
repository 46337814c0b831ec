"""Exact q-expansion cross-checks of the Hauptmoduls.

The oracle computes Laurent q-series with Fraction arithmetic straight from
the defining eta/theta series (no floating point).  The Hauptmoduls must
have a simple pole of residue 1 and integral coefficients, and the numeric
evaluators must agree with the truncated series.
"""

import mpmath
import pytest

from oracles import hauptmodul_q_expansion, j_p

LEVELS = (3, 5, 7, 11, 13, 19, 23)


@pytest.mark.parametrize("p", LEVELS)
def test_simple_pole_residue_one(p):
    val, coeffs = hauptmodul_q_expansion(p)
    assert val == -1
    assert coeffs[0] == 1


@pytest.mark.parametrize("p", LEVELS)
def test_integral_coefficients(p):
    _, coeffs = hauptmodul_q_expansion(p, terms=14)
    for c in coeffs:
        assert c.denominator == 1, (p, c)


@pytest.mark.parametrize("p", LEVELS)
def test_series_matches_numeric_evaluation(p):
    bits = 192
    terms = 24
    val, coeffs = hauptmodul_q_expansion(p, terms=terms)
    with mpmath.workprec(bits + 64):
        for tau in (mpmath.mpc(0, "1.3"), mpmath.mpc("0.25", "1.1")):
            q = mpmath.expjpi(2 * tau)
            series = sum(int(c) * q ** (val + i) for i, c in enumerate(coeffs))
            direct = j_p(tau, p, bits, reduce=False)
            # series truncation plus the float working accuracy
            budget = abs(q) ** (val + len(coeffs)) * 1e6 + mpmath.mpf(2) ** (
                -bits + 32
            ) * max(1, abs(direct))
            assert abs(series - direct) < budget, p


def test_known_low_order_terms():
    # frozen from the exact computation; the q^0 term is fixed by each
    # level's defining formula, the rest pin the normalizations
    expansions = {
        3: [1, -12, 783, 8672, 65367],
        5: [1, -6, 134, 760, 3345],
        7: [1, -4, 51, 204, 681],
        11: [1, 6, 17, 46, 116],
        13: [1, -2, 12, 28, 66],
        19: [1, 4, 6, 10, 21],
        23: [1, 0, 4, 7, 13],
    }
    for p, head in expansions.items():
        _, coeffs = hauptmodul_q_expansion(p, terms=6)
        assert [int(c) for c in coeffs[:5]] == head, p
