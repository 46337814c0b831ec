"""The level table against what the library and its oracles derive."""

import mpmath
import pytest

from heegner.classpoly import build_PD
from heegner.levels import LEVELS, EtaQuotient, level
from heegner.modpoly import supersingular_jp_residues
from heegner.quadforms import Discriminant

from oracles import (
    brandt_table,
    classical_j,
    fq_eval,
    fq_mul,
    isogeny_graph_mod_p,
    j_p,
    jp_pair_polynomials,
)

# l whose P_{-4pl} mod p reaches every supersingular j_p-invariant
RESIDUE_ELLS = {3: (5,), 5: (3,), 7: (3,), 13: (3,), 23: (3, 13, 29)}


def test_lookup():
    assert sorted(LEVELS) == [3, 5, 7, 11, 13, 19, 23]
    assert all(level(p).p == p for p in LEVELS)
    for p in (2, 17, 29):
        with pytest.raises(ValueError):
            level(p)


def test_entries_follow_the_congruence_of_p():
    # p = 3 mod 4: D = -4pl alone and the arc S of real roots (theorem levels);
    # p = 1 mod 4: the product of -pl and -4pl with a linear mod-l factor
    for p, lev in LEVELS.items():
        if p % 4 == 3:
            assert lev.shapes == ("-4pl",) and lev.linear_root is None, p
            assert lev.real_arc == lev.searchable, p
        else:
            assert lev.shapes == ("-pl", "-4pl") and lev.linear_root is not None, p
            assert not lev.real_arc, p
    assert [p for p, lev in LEVELS.items() if not lev.searchable] == [23]
    assert [p for p, lev in LEVELS.items() if lev.j_lift] == [3]
    assert [p for p, lev in LEVELS.items() if lev.t2_check] == [11]


def test_eta_quotient_constants():
    genus_0 = {p: lev.hauptmodul for p, lev in LEVELS.items()
               if isinstance(lev.hauptmodul, EtaQuotient)}
    assert sorted(genus_0) == [3, 5, 7, 13]
    for p, t in genus_0.items():
        assert t.p == p
        assert t.exponent * (p - 1) == 24
        assert t.w == p ** (12 // (p - 1))


@pytest.mark.parametrize("p", sorted(RESIDUE_ELLS))
def test_supersingular_residues_are_class_polynomial_roots(p):
    # every root of a class polynomial mod p is a supersingular invariant
    roots = set()
    for ell in RESIDUE_ELLS[p]:
        poly = build_PD(Discriminant(p, ell, "-4pl"))
        f = poly.coefficients
        roots.update(r for r in range(p) if fq_eval(f, p, r) == 0)
        if p != 23:
            # genus 0: a single isomorphism class, so f is a power of X - s
            (s,) = roots
            power = fq_mul([(-s % p, 1)] * (len(f) - 1), p)
            assert power == tuple(c % p for c in f), (p, ell)
    assert level(p).supersingular == tuple(sorted(roots))
    assert supersingular_jp_residues(p) == level(p).supersingular


@pytest.mark.parametrize("p", [11, 19, 23])
def test_brandt_matrix_acts_on_the_supersingular_residues(p):
    # B(2) is written on the residues, so it has one row and one column each
    side, matrix = len(level(p).supersingular), brandt_table(p)
    assert len(matrix) == side and all(len(row) == side for row in matrix)
    assert supersingular_jp_residues(p) == level(p).supersingular


@pytest.mark.parametrize("p", sorted(LEVELS))
def test_pair_polynomials_over_j_p(p):
    # the oracle checks j(tau) + j(p tau) = S(j_p) and j(tau) j(p tau) =
    # N(j_p) through q^(p+8); both hold as functions too, at a point where
    # |q| = e^(-1.4 pi) leaves every series term past the check visible
    S, N = jp_pair_polynomials(p)
    tau = mpmath.mpc(0.1, 0.7)
    with mpmath.workprec(300):
        x, j, jp = j_p(tau, p, 300, reduce=False), classical_j(tau, 300), classical_j(p * tau, 300)
        for poly, value in ((S, j + jp), (N, j * jp)):
            assert abs(mpmath.polyval(poly[::-1], x) / value - 1) < mpmath.mpf(2) ** -200, p


@pytest.mark.parametrize("p", [p for p in sorted(LEVELS) if p >= 5])
def test_level_table_from_the_isogeny_graph_mod_p(p):
    # the residues and B(2) re-derived mod p from S, N and Phi_2 alone; each
    # curve has three 2-isogenies, so B(2) is (3,) where one residue is
    # supersingular, and the table stores no matrix there
    residues, matrix = isogeny_graph_mod_p(p)
    assert residues == level(p).supersingular
    assert all(sum(row) == 3 for row in matrix)
    assert level(p).brandt in (None, matrix)
