import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from heegner import cli, sssearch, ssverify
from heegner.cli import main
from heegner.classpoly import PrecisionExhaustedError, build_PD
from heegner.intmath import is_prime, kronecker
from heegner.sssearch import RealJCaseError, SupersingularAtPError

from oracles import poly_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


class TestClasspoly:
    def test_minus_220(self, capsys):
        code, out, _ = run(capsys, "classpoly", "--p", "11", "--D", "-220")
        assert code == 0
        data = json.loads(out)
        assert data["coefficients"] == ["121", "-77", "1"]
        assert data["D"] == -220

    def test_minus_1628(self, capsys):
        code, out, _ = run(capsys, "classpoly", "--p", "11", "--D", "-1628")
        assert code == 0
        assert len(json.loads(out)["coefficients"]) == 9

    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "classpoly", "--p", "11", "--D", "-220")
        assert code == 0
        assert poly_from_json(out) == build_PD(-220, 11)

    def test_invalid_shape_exits_64(self, capsys):
        code, _, err = run(capsys, "classpoly", "--p", "11", "--D", "-3")
        assert code == 64 and ("shape" in err or "valid" in err)

    def test_ell_flag_product_form(self, capsys):
        code, out, _ = run(capsys, "classpoly", "--p", "5", "--ell", "3")
        assert code == 0
        assert json.loads(out)["D"] == [-15, -60]

    def test_ell_flag_level_11(self, capsys):
        code, out, _ = run(capsys, "classpoly", "--p", "11", "--ell", "5")
        assert code == 0
        data = json.loads(out)
        assert data["D"] == -220 and data["coefficients"] == ["121", "-77", "1"]

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "classpoly", "--p", "11")
        assert exc.value.code == 64


class TestSearch:
    def test_first_certificate(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "11", "--h", "21/2",
                           "--count", "1")
        assert code == 0
        cert = json.loads(out.splitlines()[0])
        assert cert["ell"] == 5 and cert["selected"] == ["2309"]

    def test_avoid_flag(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "11", "--h", "21/2",
                           "--avoid", "2309", "--count", "2")
        assert code == 0
        cert = json.loads(out.splitlines()[0])
        assert cert["ell"] == 37 and set(cert["selected"]) == {"7", "151"}

    @pytest.mark.parametrize("value", ["0", "-3", "4"])
    def test_avoid_non_prime_exit_64(self, capsys, value):
        # a value that is not a prime is refused before the l scan, and
        # never reaches a certificate's sigma
        code, out, err = run(capsys, "search", "--p", "5", "--h", "1", "--avoid", value)
        assert code == 64 and out == "" and "prime" in err

    @pytest.mark.parametrize("value", ["x", "2309.5", "7,,x"])
    def test_avoid_unparsable_exit_64(self, capsys, value):
        # argparse reads the list and names the option, as for --count x
        with pytest.raises(SystemExit) as exc:
            run(capsys, "search", "--p", "11", "--h", "21/2", "--avoid", value)
        captured = capsys.readouterr()
        assert exc.value.code == 64 and captured.out == ""
        assert captured.err.splitlines() == [
            f"error: argument --avoid: invalid int_list value: {value!r}"]

    def test_bound_exhaustion_exit_3(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "11", "--h", "21/2",
                           "--ell-bound", "3")
        assert code == 3 and out == ""

    def test_supersingular_exit_65(self, capsys):
        code, _, err = run(capsys, "search", "--p", "11", "--h", "10")
        assert code == 65 and "supersingular" in err

    def test_ordinary_selected_prime_exit_70(self, capsys, monkeypatch):
        # a selected prime of good reduction is supersingular by the
        # theorem, so a walk that answers ordinary is a broken invariant,
        # not a status: the search fails with EX_SOFTWARE and prints nothing
        monkeypatch.setattr(ssverify, "hasse_nonzero_fq", lambda q, j, F: True)
        monkeypatch.setattr(ssverify, "hasse_nonzero_fq2", lambda q, j0, j1, F: True)
        code, out, err = run(capsys, "search", "--p", "3", "--h", "-40")
        assert code == 70 and out == ""
        assert err == "error: selected prime 6175217 verifies ordinary"

    def test_real_j_exit_66(self, capsys):
        code, _, err = run(capsys, "search", "--p", "11", "--h", "80")
        assert code == 66

    @pytest.mark.parametrize("p,h", [("11", "1" + "0" * 400), ("3", "-1" + "0" * 400)])
    def test_huge_h_exit_66(self, capsys, p, h):
        # far outside j_p(S), and beyond the float range
        code, _, err = run(capsys, "search", "--p", p, "--h", h)
        assert code == 66 and "real-j" in err

    def test_unfactored_denominator_exit_64(self, capsys):
        n = "1000000000000000000000808000000000000000000005607"
        code, out, err = run(capsys, "search", "--p", "3", "--h", f"1/{n}",
                             "--factor-budget", "4096")
        assert code == 64 and out == "" and n in err

    @pytest.mark.parametrize("h", ["x/y", "21/", "1/0"])
    def test_bad_h_exit_64(self, capsys, h):
        # "21/" is not h = 21, which is supersingular mod 11 and would exit 65
        code, _, _ = run(capsys, "search", "--p", "11", "--h", h)
        assert code == 64

    @pytest.mark.parametrize("h", ["x/y", "21/", "1.5", "1/2/3", "", "1__0", "2 3"])
    def test_bad_h_names_the_flag_and_its_forms(self, capsys, h):
        code, out, err = run(capsys, "search", "--p", "11", "--h", h)
        assert code == 64 and out == ""
        assert err == f"error: --h {h} is not an integer n or a fraction n/d"

    @pytest.mark.parametrize("h,value", [
        ("21/2", Fraction(21, 2)), ("-1/2", Fraction(-1, 2)), ("+3", Fraction(3)),
        (" 3 / 4 ", Fraction(3, 4)), ("3/-4", Fraction(-3, 4)), ("1_000/3", Fraction(1000, 3)),
        ("007/014", Fraction(1, 2)), ("\u0663/\uff14", Fraction(3, 4)), ("\t5\n", Fraction(5)),
    ])
    def test_h_read_as_int_reads_each_part(self, capsys, monkeypatch, h, value):
        # every spelling int() takes for n and d keeps its value
        seen = []
        monkeypatch.setattr(cli, "search", lambda p, h, **kwargs: seen.append(h) or [])
        code, _, _ = run(capsys, "search", "--p", "11", "--h", h)
        assert code == 3 and seen == [value]

    def test_zero_denominator_named(self, capsys):
        # the message names --h and its zero denominator, not Fraction(1, 0)
        code, out, err = run(capsys, "search", "--p", "3", "--h", "1/0")
        assert code == 64 and out == ""
        assert err == "error: --h 1/0 has a zero denominator"

    def test_negative_fraction_h_either_spelling(self, capsys):
        # a separate "-1/2" is the value of --h, not an unknown option
        results = [run(capsys, "search", "--p", "5", *spelling)
                   for spelling in (("--h", "-1/2"), ("--h=-1/2",))]
        assert results[0] == results[1]
        code, out, _ = results[0]
        assert code == 0 and json.loads(out)["h"] == "-1/2"

    @pytest.mark.parametrize("flags", [
        ("--count", "0"), ("--count", "-1"), ("--factor-budget", "0"),
        ("--verify-bound", "0"), ("--factor-budget", "0", "--verify-bound", "0"),
    ])
    def test_nonpositive_count_or_bound_exit_64(self, capsys, flags):
        # a zero is a value, not a request for the default
        code, out, err = run(capsys, "search", "--p", "11", "--h", "21/2", *flags)
        assert code == 64 and out == "" and "positive" in err


class TestFailureExit:
    @pytest.mark.parametrize("kind,code", [
        (SupersingularAtPError, 65), (RealJCaseError, 66), (PrecisionExhaustedError, 2),
        (ValueError, 64), (ArithmeticError, 64),
    ])
    def test_exception_maps_to_exit_code(self, capsys, monkeypatch, kind, code):
        def fail(*args, **kwargs):
            raise kind("boom")
        monkeypatch.setattr(cli, "search", fail)
        result, out, err = run(capsys, "search", "--p", "11", "--h", "21/2")
        assert result == code and out == "" and err == "error: boom"

    def test_inconsistent_certificate_exit_64(self, capsys, monkeypatch):
        # a selected prime that is a square modulo pl fails the certificate's
        # own check, which is reported like any other runtime invariant
        real = sssearch.extract_primes

        def square_prime(value, p, ell, *args, **kwargs):
            _, candidates, fac, skip = real(value, p, ell, *args, **kwargs)
            q = next(q for q in range(3, 1000) if is_prime(q) and kronecker(q, p * ell) == 1)
            return (q,), candidates, fac, skip

        monkeypatch.setattr(sssearch, "extract_primes", square_prime)
        code, out, err = run(capsys, "search", "--p", "11", "--h", "21/2")
        assert code == 64 and out == ""
        assert err.splitlines() == [err] and err.startswith("error: selected prime ")
        assert "is a square mod 55" in err

    def test_unlisted_exception_propagates(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise KeyError("boom")
        monkeypatch.setattr(cli, "search", fail)
        with pytest.raises(KeyError):
            run(capsys, "search", "--p", "11", "--h", "21/2")


class TestVerify:
    J = "(-489229980611-42355313*sqrt(-84567))/4096"

    def test_supersingular_7(self, capsys):
        code, out, _ = run(capsys, "verify", "--j", self.J, "--q", "7")
        assert code == 0 and out == "supersingular"

    def test_supersingular_151(self, capsys):
        code, out, _ = run(capsys, "verify", "--j", self.J, "--q", "151")
        assert code == 0 and out == "supersingular"

    def test_j0_mod_5(self, capsys):
        code, out, _ = run(capsys, "verify", "--j", "0/1", "--q", "5")
        assert code == 0 and out == "supersingular"

    def test_square_radicand_is_rational(self, capsys):
        # 1 + 2 sqrt(4) = 5 = 0 mod 5, the supersingular j
        code, out, _ = run(capsys, "verify", "--j", "(1+2*sqrt(4))", "--q", "5")
        assert code == 0 and out == "supersingular"

    def test_ordinary_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--j", "1/1", "--q", "13")
        assert code == 1 and out == "ordinary"

    def test_conjugate_residues_disagree_exit_64(self, capsys):
        # 3 + sqrt(2) is no CM j-invariant: mod 7 its residues are 3 +- 3, the
        # ordinary 0 and the supersingular 6 = 1728
        code, out, err = run(capsys, "verify", "--j", "3+sqrt(2)", "--q", "7")
        assert code == 64 and out == "" and "conjugate residues disagree at q = 7" in err

    def test_unverified_large_exit_4(self, capsys):
        code, out, _ = run(capsys, "verify", "--j", self.J, "--q", str(2**64 + 13))
        assert code == 4 and out == "unverified-large"

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_nonpositive_verify_bound_exit_64(self, capsys, bound):
        code, out, err = run(capsys, "verify", "--j", "5", "--q", "7", "--verify-bound", bound)
        assert code == 64 and out == "" and "positive" in err

    def test_composite_q_exit_64(self, capsys):
        code, _, _ = run(capsys, "verify", "--j", "0/1", "--q", "15")
        assert code == 64

    def test_composite_q_above_bound_exit_64(self, capsys):
        # 2^64 + 1 = 274177 * 67280421310721 is not unverified-large
        code, out, err = run(capsys, "verify", "--j", self.J, "--q", str(2**64 + 1))
        assert code == 64 and out == "" and "prime" in err

    @pytest.mark.parametrize("q", ["2"])
    def test_small_q_exit_64(self, capsys, q):
        code, out, err = run(capsys, "verify", "--j", "5", "--q", q)
        assert code == 64 and out == "" and "odd prime" in err

    @pytest.mark.parametrize("j,code,status", [("0", 0, "supersingular"), ("5", 1, "ordinary")])
    def test_q3_closed_form(self, capsys, j, code, status):
        # in characteristic 3 the only supersingular j is 0
        assert run(capsys, "verify", "--j", j, "--q", "3")[:2] == (code, status)

    def test_bad_reduction_exit_64_whatever_the_bound(self, capsys):
        for bound in ("100", "5"):
            code, out, err = run(capsys, "verify", "--j", "(1+sqrt(-3))/7", "--q", "7",
                                 "--verify-bound", bound)
            assert code == 64 and out == "" and "bad-reduction" in err

    def test_unfactorable_radicand(self, capsys):
        # the radicand is a 49-digit integer the default budget cannot
        # factor; reduction mod 7 needs only its residue
        started = time.perf_counter()
        m = "-1000000000000000000000808000000000000000000005607"
        code, out, _ = run(capsys, "verify", "--j", f"sqrt({m})", "--q", "7")
        assert code == 1 and out == "ordinary"
        assert time.perf_counter() - started < 1


class TestTables:
    def test_p19(self, capsys):
        code, out, _ = run(capsys, "tables", "--p", "19")
        data = json.loads(out)
        assert code == 0
        assert data["brandt"]["matrix"] == [[1, 2], [1, 2]]
        # the basis is the supersingular residues, printed once
        assert "basis" not in data["brandt"]
        assert data["supersingular_jp"]["values"] == [0, 8]
        assert data["fundamental_unit"] == {"c": 170, "d": 39, "provenance": "derived"}

    def test_p23(self, capsys):
        code, out, _ = run(capsys, "tables", "--p", "23")
        data = json.loads(out)
        assert code == 0
        assert data["brandt"] == {"matrix": [[1, 1, 1], [3, 0, 0], [2, 0, 1]],
                                  "provenance": "table"}
        assert data["note"] == "theorem not proven for p=23"

    def test_p11_has_unit(self, capsys):
        code, out, _ = run(capsys, "tables", "--p", "11")
        data = json.loads(out)
        assert data["fundamental_unit"]["c"] == 10
        assert data["fundamental_unit"]["d"] == 3
        assert data["supersingular_jp"]["values"] == [0, 10]

    def test_unsupported_p(self, capsys):
        code, _, _ = run(capsys, "tables", "--p", "17")
        assert code == 64


# worked examples, one a row: argv, exit code, and either the exact stdout or
# the substrings that stdout and stderr together must and must not hold
EXAMPLES = [
    # search(7, 9) spends its 2^16 units failing to split the numerators at
    # l = 113 and 137, and takes l = 193 by trial division
    pytest.param(("search", "--p", "7", "--h", "9", "--ell-bound", "300",
                  "--factor-budget", "65536", "--verify-bound", "100000"),
                 0, (['"ell": 193'], []), id="one-factoring-budget"),
    # search(3, -40) verifies its prime 6175217 by the 2-isogeny walk, whose
    # square roots each take one exponentiation
    pytest.param(("search", "--p", "3", "--h", "-40"),
                 0, (['{"q": "6175217", "status": "supersingular"}'], []),
                 id="one-exponentiation-per-root"),
    # search(7, 4) takes l = 113, whose numerator's rest after the first
    # chunk of trial division is a 109-bit Baillie-PSW prime
    pytest.param(("search", "--p", "7", "--h", "4", "--ell-bound", "300",
                  "--factor-budget", "65536", "--verify-bound", "100000"),
                 0, (['"prime": "466752684500104298919195787301011"'], []),
                 id="baillie-psw-above-2^64"),
    # at p = 19 two theta series read one table of powers of q, and at
    # p = 13 eta(13 tau) reads it at q^13
    pytest.param(("classpoly", "--p", "19", "--ell", "5"), 0,
                 '{"p": 19, "D": -380, "coefficients": ["361", "-380", "178", "-35", "1"]}',
                 id="q-powers-p19"),
    pytest.param(("classpoly", "--p", "13", "--ell", "7"), 0,
                 '{"p": 13, "D": [-91, -364], "coefficients": '
                 '["-19773", "-11154", "-1924", "-78", "1"]}', id="q-powers-p13"),
    # 2819 is a prime above 53^2 with 2819 = 3 mod 4, so it goes through
    # Baillie-PSW and Tonelli-Shanks with s = 1; j = 0 is supersingular
    # exactly when q = 2 mod 3
    pytest.param(("verify", "--j", "0", "--q", "2819"), 0, "supersingular",
                 id="one-square-root-path"),
    # Cardano's cube root works in the Sylow 3-subgroup of F_q^2, of order
    # 3^e: e = 2 at 33029, the level-3 certificate prime of h = -28, and
    # e = 4 at 163, where the root for this j takes Sylow-3 corrections;
    # both residues lie off F_q
    pytest.param(("verify", "--j", "(4472+342*sqrt(-2132))/1", "--q", "33029"), 0,
                 "supersingular", id="cube-root-e2"),
    pytest.param(("verify", "--j", "(19+2*sqrt(2))/1", "--q", "163"), 0, "supersingular",
                 id="cube-root-corrections"),
    # j(-7) = -3375 is supersingular where 7691 is inert in Q(sqrt(-7)), and
    # Phi_2(-3375, Y) has the double root -3375, which Cardano's formula takes
    pytest.param(("verify", "--j", "-3375", "--q", "7691"), 0, "supersingular",
                 id="double-root-cardano"),
    # real_arc follows from p = 3 mod 4, so p = 11 prints its unit and arc
    # and p = 5 neither; the Brandt matrix has no basis of its own
    pytest.param(("tables", "--p", "11"), 0,
                 (['"brandt": ', '"fundamental_unit": ', '"arc_interval": '], ['"basis"']),
                 id="tables-p11"),
    pytest.param(("tables", "--p", "5"), 0, ([], ['"arc_interval"', '"brandt"']),
                 id="tables-p5"),
    # verification tests q once: q = 2 is refused as no odd prime
    pytest.param(("verify", "--j", "0", "--q", "2"), 64, (["odd prime"], []),
                 id="verify-q-2"),
    # one field serves both conjugate residues of a split m
    pytest.param(("verify", "--j", TestVerify.J, "--q", "151"), 0, "supersingular",
                 id="verify-split-151"),
    # 1 + sqrt(5)/2 is not (1 + sqrt(5))/2, and the surd must say which
    pytest.param(("verify", "--j", "1+sqrt(5)/2", "--q", "31"), 64,
                 (["(u+v*sqrt(m))/w"], ["ordinary"]), id="verify-unparenthesized"),
    # white space never joins digits: "1 2" is no j = 12
    pytest.param(("verify", "--j", "1 2", "--q", "7"), 64,
                 (["(u+v*sqrt(m))/w"], ["ordinary"]), id="verify-split-digits"),
    # p = 23's B(2) is written on its ascending residues (11, 15, 18), and
    # its odd column sum is stated once, by the level's note
    pytest.param(("tables", "--p", "23"), 0,
                 (['"matrix": [[1, 1, 1], [3, 0, 0], [2, 0, 1]]',
                   '"note": "theorem not proven for p=23"'],
                  ['"not all column sums even"']), id="tables-p23"),
    # one prime is asked for, so trial division stops at 1531 and leaves
    # 42391 in the unfactored rest
    pytest.param(("search", "--p", "7", "--h", "2"), 0, (['"selected": ["1531"]'], []),
                 id="search-p7-stops-at-1531"),
]


@pytest.mark.parametrize("argv,code,expected", EXAMPLES)
def test_cli_examples(capsys, argv, code, expected):
    result, out, err = run(capsys, *argv)
    assert result == code, err
    if isinstance(expected, str):
        assert out == expected
    else:
        required, forbidden = expected
        text = f"{out}\n{err}"
        assert [s for s in required if s not in text] == [], text
        assert [s for s in forbidden if s in text] == [], text


def cli_process(*argv, flags=()):
    return subprocess.run([sys.executable, *flags, "-m", "heegner.cli", *argv],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})


def test_module_entry_point_exit_status():
    # python -m heegner.cli hands main()'s code to sys.exit, so the process
    # exits with it: the README's example prints its JSON line and exits 0,
    # a supersingular h exits 65
    done = cli_process("classpoly", "--p", "11", "--D", "-220")
    assert done.returncode == 0, done.stderr
    assert done.stdout == '{"p": 11, "D": -220, "coefficients": ["121", "-77", "1"]}\n'
    done = cli_process("search", "--p", "3", "--h", "0")
    assert done.returncode == 65 and done.stdout == ""
    assert done.stderr.startswith("error: ")


def test_outputs_do_not_depend_on_assert():
    # python -O strips assert statements; a search must exit 0 and print the
    # same bytes with and without them
    argv = ("search", "--p", "11", "--h", "21/2", "--count", "3")
    plain, optimized = cli_process(*argv), cli_process(*argv, flags=("-O",))
    assert plain.returncode == optimized.returncode == 0, (plain.stderr, optimized.stderr)
    assert plain.stdout == optimized.stdout != ""
