import dataclasses
import hashlib
import json
import math
import time
from fractions import Fraction

import pytest

from heegner.classpoly import evaluate
from heegner.intmath import FactorBudget, is_prime, kronecker
from heegner.sssearch import (
    RealJCaseError,
    SupersingularAtPError,
    ell_admissible,
    extract_primes,
    search,
    search_polynomial,
    sigma_condition,
)

H11 = Fraction(21, 2)
P7_LARGE = (19963943130517, 648155384310727)  # numerator primes at p = 7, h = 2, l = 113


def numerator_symbols(certs):
    return {kronecker(c.value.numerator, c.p * c.ell) for c in certs}


class TestAdmissibility:
    def test_known_choices(self):
        assert ell_admissible(11, 5)
        assert ell_admissible(11, 37)
        assert ell_admissible(5, 3)

    def test_rejected(self):
        assert not ell_admissible(11, 13)  # 13 = 2 mod 11 is a nonresidue
        assert not ell_admissible(11, 11)
        assert not ell_admissible(5, 4)

    def test_residue_lists_match_splitting_rule(self):
        # the printed residue lists for p = 5 and 13 are exactly the
        # congruence + splitting rule, in both directions
        lists = {5: (20, (3, 7)), 13: (52, (7, 11, 15, 19, 31, 47))}
        for p, (modulus, residues) in lists.items():
            for ell in range(3, 10**4):
                if is_prime(ell) and ell != p:
                    assert ell_admissible(p, ell) == (ell % modulus in residues), (p, ell)

    def test_rejects_unsupported_p(self):
        with pytest.raises(ValueError):
            ell_admissible(17, 3)

    def test_p5_list_is_mod_20(self):
        admissible = [ell for ell in range(3, 300)
                      if is_prime(ell) and ell_admissible(5, ell)]
        assert all(ell % 20 in (3, 7) for ell in admissible)
        assert admissible[:4] == [3, 7, 23, 43]

    def test_p13_list_is_mod_52(self):
        admissible = [ell for ell in range(3, 300)
                      if is_prime(ell) and ell_admissible(13, ell)]
        assert all(ell % 52 in (7, 11, 15, 19, 31, 47) for ell in admissible)


class TestSigmaCondition:
    def test_empty(self):
        assert sigma_condition(5, 11, ())

    def test_2309_blocks_5_allows_37(self):
        assert not sigma_condition(5, 11, (2309,))
        assert sigma_condition(37, 11, (2309,))
        assert kronecker(2309, 407) == 1

    def test_p_itself_exempt(self):
        assert sigma_condition(5, 11, (11,))


class TestWalk:
    def test_first_leg_at_h_21_over_2(self):
        cert, = search(11, H11, count=1)
        assert (cert.ell, cert.D) == (5, -220)
        assert cert.value == Fraction(-2309, 4)

    def test_second_leg_avoiding_2309(self):
        cert, = search(11, H11, sigma=(2309,), count=1)
        assert (cert.ell, cert.D) == (37, -1628)
        assert cert.value == Fraction(-(7**2) * 151 * 452233314041, 256)

    @pytest.mark.parametrize("value", [2309.5, Fraction(4619, 2)])
    def test_non_integral_avoided_value_rejected(self, value):
        # int() would truncate it to the prime 2309 and search on
        with pytest.raises(ValueError, match="must be primes"):
            search(11, H11, sigma=(value,), count=1)

    def test_integral_avoided_value_kept(self):
        for value in (2309, 2309.0, Fraction(2309)):
            cert, = search(11, H11, sigma=(value,), count=1)
            assert cert.sigma == (2, 2309) and cert.selected == (7, 151)

    def test_negativity_skip(self):
        # h = 1 and h = 13/10 lie left of the bounded root 1.6049 of P_-220,
        # so l = 5 and 37 fail the sign condition and the walk moves on to
        # 53.  A search at 13/10 avoids 5, and (5 | 11 l) = -1 at all three,
        # so there the values are read directly
        for h in (Fraction(1), Fraction(13, 10)):
            signs = [evaluate(search_polynomial(11, ell)[0], h) < 0 for ell in (5, 37, 53)]
            assert signs == [False, False, True], h
        cert, = search(11, Fraction(1), count=1, ell_bound=200)
        assert cert.ell == 53 and cert.value < 0

    def test_bound_exhaustion(self):
        assert search(11, H11, count=1, ell_bound=3) == []

    def test_real_j_case_rejected(self):
        # 80 is right of every root of P_-220 and outside j_11(S)
        with pytest.raises(RealJCaseError):
            search(11, Fraction(80), ell_bound=100)

    def test_real_j_case_rejected_for_any_count(self):
        # the hypotheses are checked before the walk, also when it takes no l
        with pytest.raises(RealJCaseError):
            search(11, Fraction(80), count=0)

    def test_arc_is_read_once_per_search(self, monkeypatch):
        import heegner.sssearch as mod

        calls = []
        real = mod.jp_arc_interval
        monkeypatch.setattr(mod, "jp_arc_interval", lambda p: calls.append(p) or real(p))
        certs = search(11, H11, count=3)
        assert len(certs) == 2 and calls == [11]

    def test_the_arc_is_checked_before_sigma_and_denominator(self):
        # a point outside j_p(S) is refused as such, whatever else is wrong
        # with the call: a composite avoided value, or a denominator the
        # budget cannot factor
        budget = FactorBudget(rho_iterations=1)
        for h, sigma in ((Fraction(80), (4,)), (Fraction(80 * UNFACTORED + 1, UNFACTORED), ())):
            with pytest.raises(RealJCaseError):
                search(11, h, sigma=sigma, budget=budget)
        with pytest.raises(SupersingularAtPError):
            search(11, Fraction(11 * 80 + 10), sigma=(4,))


class TestExtractPrimes:
    def test_first_value(self):
        selected, candidates, fac, skip = extract_primes(
            Fraction(-2309, 4), 11, 5, (2,)
        )
        assert selected == (2309,) and not skip
        assert dict(candidates)[2309] == -1

    def test_second_value(self):
        value = Fraction(-(7**2) * 151 * 452233314041, 256)
        selected, candidates, fac, skip = extract_primes(value, 11, 37, (2, 2309))
        assert set(selected) == {7, 151}
        assert dict(candidates)[452233314041] == 1  # residue, not selected

    def test_degenerate_unit_numerator(self):
        with pytest.raises(ArithmeticError):
            extract_primes(Fraction(-1, 1), 11, 5, ())

    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            extract_primes(Fraction(5, 4), 11, 5, ())

    def test_stops_at_the_primes_needed(self):
        # the l = 113 value at p = 7, h = 2: trial division finds 1531 and
        # 42391, both usable, and ECM is left the product of two 14-digit primes
        value = evaluate(search_polynomial(7, 113)[0], Fraction(2))
        for needed in (1, 2):
            selected, candidates, fac, skip = extract_primes(value, 7, 113, (2,), needed=needed)
            assert selected == (1531, 42391) and not skip
            assert fac.cofactor == math.prod(P7_LARGE)
            assert [q for q, _ in candidates] == fac.primes()
        selected, _, fac, _ = extract_primes(value, 7, 113, (2,), needed=3)
        assert selected == (1531, 42391, P7_LARGE[1]) and fac.complete


class TestSearch:
    def test_end_to_end_at_h_21_over_2(self):
        certs = search(11, H11, count=3)
        assert [c.ell for c in certs] == [5, 37]
        assert certs[0].selected == (2309,)
        assert certs[0].value == Fraction(-2309, 4)
        assert set(certs[1].selected) == {7, 151}
        assert certs[1].value == Fraction(-(7**2) * 151 * 452233314041, 256)
        for c in certs:
            c.check()

    def test_supersingular_at_p_guard(self):
        with pytest.raises(SupersingularAtPError):
            search(11, Fraction(10), count=1)  # 10 is supersingular mod 11

    def test_h_21_over_2_is_not_supersingular_mod_11(self):
        # 21/2 = 5 mod 11... which IS supersingular-adjacent: check the guard
        # distinguishes: j_11 supersingular values mod 11 are {0, 10}
        assert H11.numerator * pow(2, -1, 11) % 11 == 5
        certs = search(11, H11, count=1)
        assert certs

    def test_sigma_augmentation_never_repeats(self):
        first = search(11, H11, count=1)[0]
        again = search(11, H11, sigma=first.selected, count=1)[0]
        assert not set(first.selected) & set(again.selected)

    def test_determinism(self):
        a = [c.to_json() for c in search(11, H11, count=3)]
        b = [c.to_json() for c in search(11, H11, count=3)]
        assert a == b

    def test_bound_exhaustion_partial(self):
        certs = search(11, H11, count=5, ell_bound=40)
        found = sum(len(c.selected) for c in certs)
        assert 0 < found < 5

    def test_level3_with_verification(self):
        certs = search(3, Fraction(-52), count=1)
        assert certs[0].selected == (29,)
        assert certs[0].verification == {29: "supersingular"}

    def test_level5(self):
        certs = search(5, Fraction(1), count=1)
        assert certs[0].ell == 3
        assert certs[0].D == (-15, -60)
        assert certs[0].selected == (13,)
        assert certs[0].verification[13] == "unverified-no-invariant"
        certs[0].check()

    def test_level13(self):
        certs = search(13, Fraction(3), count=1)
        assert certs[0].ell == 11
        assert set(certs[0].selected) == {5, 37, 43, 89, 421}
        certs[0].check()

    def test_rejects_unsupported_p(self):
        with pytest.raises(ValueError):
            search(23, Fraction(1), count=1)

    def test_certificate_json_schema(self):
        import json

        cert = search(11, H11, count=1)[0]
        data = json.loads(cert.to_json())
        assert set(data) >= {
            "p", "h", "sigma", "ell", "D", "value", "factors", "selected",
            "kronecker", "verified",
        }
        assert data["value"] == {"num": "-2309", "den": "4"}
        assert data["selected"] == ["2309"]
        assert data["h"] == "21/2"


def test_cusp_denominator_h_allowed():
    # h with denominator divisible by p reduces to the cusp mod p and cannot
    # be supersingular there; the guard must not reject it
    certs = search(11, Fraction(21, 11), count=1, ell_bound=120)
    for c in certs:
        c.check()
    # the forced symbol holds when p divides den(h) too
    assert certs and numerator_symbols(certs) <= {0, 1}


UNFACTORED = 1000000000000000000000808000000000000000000005607  # two 25-digit primes


def test_denominator_factored_within_the_budget():
    # the denominator primes are avoided, so a denominator the budget cannot
    # factor stops the search instead of leaving its primes unavoided
    started = time.perf_counter()
    with pytest.raises(ValueError, match=str(UNFACTORED)):
        search(3, Fraction(1, UNFACTORED), budget=FactorBudget(rho_iterations=1 << 12))
    assert time.perf_counter() - started < 1


def test_runtime_squareness_is_wired(monkeypatch):
    # the mod-l square witness runs on the live search path, not only in
    # tests: breaking it must abort the search
    import heegner.sssearch as mod

    monkeypatch.setattr(mod, "is_perfect_square", lambda f: None)
    with pytest.raises(ArithmeticError):
        search(11, H11, count=1)


def test_runtime_symbol_is_wired(monkeypatch):
    # a value whose numerator is a nonsquare modulo pl contradicts the
    # squareness checks that just passed, and aborts the search
    import heegner.sssearch as mod

    real_evaluate = mod.evaluate

    def nonsquare_value(poly, h):
        value = real_evaluate(poly, h)
        pl = -poly.D // 4  # p = 11 searches with P_-4pl alone
        num = next(n for n in range(-1, -100, -1) if kronecker(n, pl) == -1)
        return Fraction(num, value.denominator)

    monkeypatch.setattr(mod, "evaluate", nonsquare_value)
    with pytest.raises(ArithmeticError, match="nonsquare modulo 55"):
        search(11, H11, count=1)


def test_check_rejects_nonsquare_numerator():
    # a value whose numerator has symbol -1 modulo pl, with the sign, the
    # square denominator and every selected prime kept, fails check()
    for cert in search(11, H11, count=3):
        pl = cert.p * cert.ell
        cert.check()
        symbol = kronecker(cert.value.numerator, pl)
        if symbol == 0:
            continue  # no multiple of this numerator has symbol -1
        r = next(r for r in range(3, 1000) if is_prime(r) and kronecker(r, pl) == -1
                 and cert.value.denominator % r)
        bad = dataclasses.replace(cert, value=cert.value * r)
        assert kronecker(bad.value.numerator, pl) == -1
        with pytest.raises(ArithmeticError, match=f"nonsquare modulo {pl}"):
            bad.check()
        break
    else:
        raise AssertionError("no certificate with numerator symbol 1")


def test_shared_budget_is_frozen_and_unchanged():
    # one budget object serves many searches: it cannot be assigned to, and
    # a search that spends its effort at l = 113 and 137 before taking
    # l = 193 leaves it as it was
    budget = FactorBudget(rho_iterations=1 << 12)
    with pytest.raises(dataclasses.FrozenInstanceError):
        budget.rho_iterations = 1
    first, second = ([cert.to_json() for cert in search(7, Fraction(9), budget=budget)]
                     for _ in range(2))
    assert first == second and json.loads(first[0])["ell"] == 193
    assert budget == FactorBudget(rho_iterations=1 << 12)


def test_level7_stops_before_ecm():
    # count = 1: the trial-division primes suffice, so the 29-digit product
    # of two 14-digit primes is left unfactored in the certificate
    [cert] = search(7, Fraction(2))
    assert (cert.ell, cert.selected) == (113, (1531, 42391))
    assert not cert.factorization.complete
    assert cert.factorization.cofactor == math.prod(P7_LARGE)
    assert json.loads(cert.to_json())["unfactored"] == str(math.prod(P7_LARGE))
    cert.check()


def test_count_aware_stop_harvests_whole_value():
    # count = 3 needs a third prime from the same value, so ECM splits it
    [cert] = search(7, Fraction(2), count=3)
    assert cert.selected == (1531, 42391, P7_LARGE[1])
    assert cert.factorization.complete


def test_anchor_holds_and_candidates_are_derived():
    certs = search(11, H11, count=3)
    assert [c.selected for c in certs] == [(2309,), (7, 151)]
    assert numerator_symbols(certs) <= {0, 1}
    assert certs[1].candidates == tuple((q, kronecker(q, 11 * 37))
                                        for q in (7, 151, 452233314041))
    assert "candidates" not in {f.name for f in dataclasses.fields(certs[1])}


def test_level7_and_level19_search():
    certs7 = search(7, Fraction(2), count=1, ell_bound=300)
    assert certs7[0].ell == 113
    assert 1531 in certs7[0].selected
    certs19 = search(19, Fraction(2), count=1, ell_bound=300)
    assert certs19[0].ell == 61
    assert set(certs19[0].selected) == {7, 13, 103, 317}
    for c in certs7 + certs19:
        c.check()


def test_level3_fully_verified_chain():
    # two certificates whose primes all verify through the Hasse criterion
    certs = search(3, Fraction(20), count=4, ell_bound=60)
    assert [(c.ell, c.selected) for c in certs] == [(13, (17,)), (37, (53, 71, 719))]
    for c in certs:
        assert all(s == "supersingular" for s in c.verification.values())


def test_level3_large_verified_prime():
    # the found prime sits near the verification bound and still verifies
    certs = search(3, Fraction(-40), count=1)
    assert certs[0].selected == (6175217,)
    assert certs[0].verification == {6175217: "supersingular"}


def test_unfactored_cofactor_skips_to_next_ell(monkeypatch):
    import heegner.sssearch as mod
    from heegner.intmath import Factorization, factorize as real_factorize

    def flaky(n, budget=None, enough=None):
        if abs(n) == 2309:  # pretend the l = 5 numerator resists factoring
            return Factorization(sign=-1 if n < 0 else 1, factors=(), cofactor=abs(n))
        return real_factorize(n, budget, enough)

    monkeypatch.setattr(mod, "factorize", flaky)
    certs = search(11, H11, count=1)
    # the l = 5 harvest was skipped, the search moved on to l = 37
    assert certs[0].ell == 37


# SHA-256 of the to_json() lines of the worked example at each level, and of
# the searches at every integer |h| <= 40 the theorem covers, with a tight
# factoring budget
LEVEL_SEARCHES = ((3, Fraction(-40), 1), (5, Fraction(1), 1), (7, Fraction(2), 1),
                  (11, H11, 3), (13, Fraction(3), 1), (19, Fraction(2), 1))
LEVELS_SHA256 = "959462f84623d2471971d95436351c5869812555672fa60ae9a0f49777f5014d"
POINTS_SHA256 = "9056b01415a46eadc230ebc860eec8ba9d92a63c077fe582c02c4abace35a6b5"


def sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_level_certificates_pinned():
    certs = [c for p, h, count in LEVEL_SEARCHES for c in search(p, h, count=count)]
    for c in certs:
        c.check()
    lines = [c.to_json() for c in certs]
    assert len(lines) == 7
    assert sha256_lines(lines) == LEVELS_SHA256


def test_point_certificates_pinned():
    lines, searched, symbols = [], 0, set()
    for p in (3, 5, 7, 11, 13, 19):
        for n in range(-40, 41):
            try:
                certs = search(p, Fraction(n), count=1, ell_bound=300,
                               budget=FactorBudget(rho_iterations=1 << 16), effort_bound=10**5)
            except (RealJCaseError, SupersingularAtPError):
                continue  # outside the theorem's hypotheses
            searched += 1
            for c in certs:
                c.check()
            lines.extend(c.to_json() for c in certs)
            symbols |= numerator_symbols(certs)
    assert (searched, len(lines)) == (239, 239)
    assert symbols <= {0, 1}
    assert sha256_lines(lines) == POINTS_SHA256
