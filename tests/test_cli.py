"""CLI behaviour: exit codes, JSON schema, text output."""

import hashlib
import json

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from cusp_ledger import cli
from cusp_ledger.cli import main
from cusp_ledger.families import shipped_catalog_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    doc = json.loads(out) if out else None
    return code, doc, err


def test_profile_text(capsys):
    code, out, _ = run(capsys, "profile", "20")
    assert code == 0
    assert "cusp count 6" in out and "genus 1" in out


def test_profile_json_schema(capsys):
    code, doc, _ = run_json(capsys, "profile", "14")
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["cusp_count"] == 4 and doc["genus"] == 1
    assert {c["denominator"] for c in doc["cusp_classes"]} == {1, 2, 7, 14}


def test_profile_sporadic_note(capsys):
    code, out, _ = run(capsys, "profile", "4")
    assert code == 0
    assert "cusp count 3" in out and "odd cusp count" in out


def test_profile_level_one(capsys):
    code, doc, _ = run_json(capsys, "profile", "1")
    assert code == 0 and doc["cusp_count"] == 1


def test_profile_bad_level(capsys):
    code, _, err = run(capsys, "profile", "0")
    assert code == 2 and "error" in err


def test_classify_levels(capsys):
    for level, label in (("7", "Classical"), ("14", "Localization"),
                         ("20", "NoSystematicMethods")):
        code, out, _ = run(capsys, "classify", "--level", level)
        assert code == 0 and label in out


def test_classify_family_and_json(capsys):
    code, doc, _ = run_json(capsys, "classify", "--family", "cphi2-5")
    assert code == 0
    assert doc["difficulty_class"] == "NoSystematicMethods"
    assert doc["level"] == 20 and doc["prime"] == 5


def test_classify_unknown_family(capsys):
    code, _, err = run(capsys, "classify", "--family", "nope")
    assert code == 2 and "no family" in err


def test_classify_needs_argument(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 2


@pytest.mark.parametrize("argv, want", [
    (("expand",), "error: one of the arguments --eta --family is required\n"),
    (("expand", "--eta", "1:-1", "--family", "p-5"),
     "error: argument --family: not allowed with argument --eta\n"),
    (("classify", "--level", "7", "--family", "p-5"),
     "error: argument --family: not allowed with argument --level\n"),
], ids=["expand-neither", "expand-both", "classify-both"])
def test_source_options_exclusive_and_required(capsys, argv, want):
    # expand without a source used to end as "internal error:
    # AttributeError", exit 3; with both, --family silently won
    assert run(capsys, *argv) == (2, "", want)


@pytest.mark.parametrize("argv", [
    ("expand", "--eta", "1:-1,1:2"),
    ("reduce", "--target", "eta:1:-1,1:2", "--basis", "level-5"),
], ids=["expand", "eta-target"])
def test_eta_spec_repeated_divisor_refused(capsys, argv):
    # the last entry used to win: --eta 1:-1,1:2 expanded eta(1t)^2
    assert run(capsys, *argv) == (
        2, "", "error: bad eta spec '1:-1,1:2': divisor 1 given twice\n")


def test_classify_level_zero_refused_by_profile(capsys):
    code, _, err = run(capsys, "classify", "--level", "0")
    assert code == 2 and "positive integer" in err


def test_classify_prime_must_divide_level(capsys):
    from cusp_ledger.families import classify

    for level, prime, message in (
            ("10", "4", "error: 4 is not prime"),
            ("10", "0", "argument --prime"),
            ("10", "-3", "argument --prime"),
            ("7", "5", "error: prime 5 does not divide level 7")):
        code, out, err = run(capsys, "classify", "--level", level,
                             "--prime", prime)
        assert code == 2 and out == "" and message in err
    code, doc, _ = run_json(capsys, "classify", "--level", "10",
                            "--prime", "5")
    assert code == 0 and doc["prime"] == 5
    assert doc["difficulty_class"] == "Localization"
    r8 = classify(8, prime=2)
    assert r8.difficulty_class == "Unclassified-Sporadic"
    assert r8.sporadic_flags == ("level-power-of-two", "prime-two")
    r14 = classify(14, prime=2)
    assert r14.difficulty_class == "Unclassified-Sporadic"
    assert r14.sporadic_flags == ("prime-two",)


def test_classify_family_prime_must_be_its_own(capsys):
    # --prime used to be dropped: the family's own prime was reported
    assert run(capsys, "classify", "--family", "p-5", "--prime", "3") == (
        2, "", "error: --prime 3 is not the prime 5 of family p-5\n")
    code, doc, err = run_json(capsys, "classify", "--family", "p-5",
                              "--prime", "5")
    assert (code, err, doc["prime"]) == (0, "", 5)


def test_expand_partition_prefix(capsys):
    code, doc, _ = run_json(capsys, "expand", "--eta", "1:-1", "--terms", "6")
    assert code == 0
    terms = {int(e): int(num) for e, num, den in doc["series"]["terms"]}
    assert [terms[24 * n - 1] for n in range(6)] == [1, 1, 2, 3, 5, 7]


def test_expand_trivial(capsys):
    code, out, _ = run(capsys, "expand", "--eta", "", "--terms", "3")
    assert code == 0 and out.startswith("1")


def test_expand_at_zero_hauptmodul(capsys):
    code, doc, _ = run_json(capsys, "expand", "--eta", "5:6,1:-6",
                            "--terms", "5", "--at-cusp", "zero")
    assert code == 0
    assert doc["scale"] == "1/125"
    lead = min(int(e) for e, _, _ in doc["series"]["terms"])
    assert lead == -24  # simple pole


# (argv, sha256 of the --json stdout): expansions pinned byte for byte, at
# infinity with a fractional leading exponent and at the zero cusp with a
# non-unit rational scale
EXPAND_DIGESTS = [
    (["--eta", "1:1,2:-1", "--terms", "30"],
     "ec4126f4760f2e38663435eefaa35b66bef24f373582329d23890143c009aa75"),
    (["--eta", "5:6,1:-6", "--at-cusp", "zero", "--level", "5",
      "--terms", "30"],
     "50f636254927ff8cc702a435af922bb6d4835a1b3868947865c129dcc5a76bb3"),
    (["--eta", "1:-6,2:2,5:-2,10:6", "--at-cusp", "zero", "--level", "10",
      "--terms", "30"],
     "fcb2085f1bdbc39e45a3f5399343c19b0de0cdd4dcdf107278b9ed232d078ec4"),
]


@pytest.mark.parametrize("argv, digest", EXPAND_DIGESTS,
                         ids=["infinity", "zero-level-5", "zero-level-10"])
def test_expand_output_byte_identical(capsys, argv, digest):
    code, out, err = run(capsys, "--json", "expand", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_expand_rejects_zero_terms(capsys):
    code, _, err = run(capsys, "expand", "--eta", "1:-1", "--terms", "0")
    assert code == 2


def test_verify_pass_and_fail(capsys):
    code, out, _ = run(capsys, "verify", "--family", "p-5",
                       "--alpha", "1", "--nmax", "600")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "--family", "p-5",
                       "--alpha", "1", "--nmax", "600", "--beta", "2")
    assert code == 1 and "FAIL" in out and "a(4) = 5" in out


def test_verify_empty_residue_class(capsys):
    code, doc, _ = run_json(capsys, "verify", "--family", "pd-5",
                            "--alpha", "1", "--nmax", "20")
    assert code == 0
    assert doc["qualifying_count"] == 0 and doc["passed"]


def test_verify_parallel_matches_serial(capsys):
    code1, doc1, _ = run_json(capsys, "verify", "--family", "p-5",
                              "--alpha", "2", "--nmax", "400")
    code2, doc2, _ = run_json(capsys, "--jobs", "2", "verify", "--family",
                              "p-5", "--alpha", "2", "--nmax", "400")
    assert code1 == code2 == 0
    for key in ("qualifying_count", "min_valuation", "passed"):
        assert doc1[key] == doc2[key]


def test_reduce_family_identity(capsys):
    code, doc, _ = run_json(capsys, "reduce", "--target", "family:p-5:L1",
                            "--basis", "level-5")
    assert code == 0
    assert doc["coeffs"] == [[0, 1, "5", "1"]]
    assert doc["valuations"]["min_valuation"] == 1
    assert doc["residual_is_zero"]


def test_reduce_poly_round_trip(capsys):
    code, doc, _ = run_json(capsys, "reduce", "--target", "poly:-7,2,0,1",
                            "--basis", "level-5")
    assert code == 0
    assert doc["coeffs"] == [[0, 0, "-7", "1"], [0, 1, "2", "1"],
                             [0, 3, "1", "1"]]


def test_reduce_gap_exit(capsys):
    code, _, err = run(capsys, "reduce", "--target", "pole:1",
                       "--basis", "demo-genus1")
    assert code == 1
    assert "Weierstrass gap" in err


def test_reduce_localized_family(capsys):
    code, doc, _ = run_json(capsys, "reduce", "--target", "family:pd-5:L1",
                            "--basis", "level-10", "--terms", "60")
    assert code == 0
    assert doc["localizer_exponent"] == 0
    assert doc["coeffs"] == [[0, 0, "1", "1"], [0, 1, "4", "1"]]


def test_reduce_eta_target(capsys):
    # (x at level 10)^2 given as an eta quotient, reduced against level-10
    code, doc, _ = run_json(capsys, "reduce", "--target",
                            "eta:1:-6,2:2,5:-2,10:6", "--basis", "level-10",
                            "--terms", "60")
    assert code == 0
    assert doc["coeffs"] == [[0, 2, "1", "1"]]


# (target, basis, --terms, --prime, exit code, sha256 of the --json stdout,
# stderr): the reduce output pinned byte for byte
_E = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
REDUCE_DIGESTS = [
    ("family:p-5:L1", "level-5", "60", "5", 0,
     "3b5c822c5a0328d3bfe7a13dc6eb55a5264accc1d814c106450000b23b51391c", ""),
    ("family:p-5:L2", "level-5", "40", None, 0,
     "de2dffbbaa1320302a752648f81366701a921c73e7a9dbfff0af4d7e139879d4", ""),
    ("family:p-7:L1", "level-7", "40", "7", 0,
     "32d033e3e5990acac5e1f181921f8f69faa9dfcdfe6e516177e37f56b9822a80", ""),
    ("family:pd-5:L1", "level-10", "60", None, 0,
     "a5528d753f5ddca37768502e078cd27680724ee2200b19b360d7a378f052066e", ""),
    ("eta:1:-6,2:2,5:-2,10:6", "level-10", "40", "5", 0,
     "ec56ed8d066267a7fe5ed97118bb2b5b4653739d32a1c8de2e364e5dc952a832", ""),
    ("poly:3,-2,0,1", "level-5", "30", "5", 0,
     "b5ce19ba6501b2aa505301e1170066be4c26b7ea23f9c1090a30188a4185a2f2", ""),
    ("poly:-7,4,9,-2", "level-7", "30", None, 0,
     "06f5c7dc1bfeabfad81a8b1c058a51391d11c32113dc86e991c86c09622518a2", ""),
    ("poly:1,0,-5,3", "level-10", "30", "3", 0,
     "e87a8ad9ea35cfc9f08158bbc1a5145deeab6a864c04694133941677d6b18e22", ""),
    ("poly:2,-1,6,-3", "demo-genus1", "30", None, 0,
     "635c3930d7839f086fb484d6d2e7311d0b2131d2790df2e9ecbda4212ecc65a9", ""),
    ("pole:1", "demo-genus1", "40", "2", 1, _E,
     "error: Weierstrass gap hit at pole order 1\n"),
    ("family:p-5:L9", "level-5", "40", None, 2, _E,
     "error: family p-5: no prefactor recorded for depth 9; direct "
     "construction unavailable\n"),
    ("pole:4", "level-5", "30", None, 1, _E,
     "error: target is not in the module at this truncation: residual "
     "coefficient -24 at q^(24/24)\n"),
]


@pytest.mark.parametrize("target, basis, terms, prime, code, digest, err",
                         REDUCE_DIGESTS, ids=[c[0] for c in REDUCE_DIGESTS])
def test_reduce_output_byte_identical(capsys, target, basis, terms, prime,
                                      code, digest, err):
    argv = ["--json", "reduce", "--target", target, "--basis", basis,
            "--terms", terms]
    if prime:
        argv += ["--prime", prime]
    got_code, out, got_err = run(capsys, *argv)
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reduce_unknown_basis(capsys):
    code, _, err = run(capsys, "reduce", "--target", "pole:1",
                       "--basis", "nope")
    assert code == 2 and "no basis" in err


def test_reduce_bad_target(capsys):
    code, _, err = run(capsys, "reduce", "--target", "what:1",
                       "--basis", "level-5")
    assert code == 2


def test_reduce_poly_zero_denominator(capsys):
    code, _, err = run(capsys, "reduce", "--target", "poly:1/0",
                       "--basis", "level-5")
    assert code == 2 and "bad poly target" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("target, basis, terms", [
    ("family:p-7:L1", "level-5", "40"),
    ("family:pd-5:L1", "level-5", "40"),
    ("family:p-5:L1", "demo-genus1", "40"),
])
def test_reduce_family_target_off_its_curve_refused(capsys, target, basis,
                                                    terms):
    # a family on another curve is a usage error, not a residual or a gap;
    # the matching pairs exit 0 in test_reduce_output_byte_identical
    code, out, err = run(capsys, "reduce", "--target", target, "--basis",
                         basis, "--terms", terms)
    assert (code, out) == (2, "")
    assert err.startswith("error: family ") and err.count("\n") == 1
    assert f"not on the curve of basis {basis}" in err


def test_reduce_negative_pole_order_refused(capsys):
    code, out, err = run(capsys, "reduce", "--target", "pole:-3",
                         "--basis", "level-5", "--terms", "20")
    assert (code, out) == (2, "")
    assert err == "error: bad pole target 'pole:-3': want pole:P with P >= 0\n"
    code, doc, _ = run_json(capsys, "reduce", "--target", "pole:0",
                            "--basis", "level-5", "--terms", "20")
    assert code == 0 and doc["coeffs"] == [[0, 0, "1", "1"]]


@pytest.mark.parametrize("order", ["2000", "10" * 12])
def test_reduce_pole_past_truncation_refused(capsys, order):
    # the basis monomial for such a pole used to be built one power of x at
    # a time, recursively: RecursionError and exit 3 from about 1000 on
    code, out, err = run(capsys, "reduce", "--target", f"pole:{order}",
                         "--basis", "level-5")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: basis monomial y_0 * x^{order} known only "
                          f"to q^(-") and err.count("\n") == 1


@pytest.mark.parametrize("field, value, where", [
    ("ys", [None], "ys[0]"),
    ("ys", [5], "ys[0]"),
    ("ys", [{"eta": {"M": 5, "r": {"5": 1, "1": -1}}}, "q"], "ys[1]"),
    ("x", 7, "x"),
    ("x", None, "x"),
    ("z", [], "z"),
])
def test_malformed_catalog_companion_is_usage_error(tmp_path, capsys, field,
                                                    value, where):
    from cusp_ledger.families import shipped_catalog_path

    doc = json.loads(shipped_catalog_path().read_text())
    basis = {"name": "b", "level": 5,
             "x": {"eta": {"M": 5, "r": {"5": 6, "1": -6}}}, field: value}
    doc["bases"].append(basis)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--catalog", str(path), "reduce",
                         "--target", "poly:1,1", "--basis", "b")
    assert (code, out) == (2, "")
    assert err == (f"error: {path}:bases[4].{where}: need a JSON object "
                   "with an 'eta' or 'series' entry\n")


def test_non_object_catalog_family_is_usage_error(tmp_path, capsys):
    # used to end as "internal error: AttributeError", exit 3
    path = tmp_path / "catalog.json"
    path.write_text('{"families": [5]}')
    code, out, err = run(capsys, "--catalog", str(path), "verify", "--family",
                         "p-5", "--alpha", "1", "--nmax", "50")
    assert (code, out) == (2, "")
    assert err == f"error: {path}:families[0]: need a JSON object, got 5\n"


@pytest.mark.parametrize("level", ["five", True, 0, -5, 5.0, None])
def test_catalog_basis_level_checked_at_load(tmp_path, capsys, level):
    # "five" used to load and then end as "internal error: TypeError"
    from cusp_ledger.families import shipped_catalog_path

    doc = json.loads(shipped_catalog_path().read_text())
    assert doc["bases"][0]["name"] == "level-5"
    doc["bases"][0]["level"] = level
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--catalog", str(path), "reduce", "--target",
                         "poly:1,1", "--basis", "level-5", "--terms", "20")
    assert (code, out) == (2, "")
    assert err == (f"error: {path}:bases[0].level: need an integer >= 1, "
                   f"got {level!r}\n")


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def boom(args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "cmd_profile", boom)
    code, out, err = run(capsys, "profile", "5")
    assert code == 3 and out == ""
    assert err == "internal error: ZeroDivisionError: division by zero\n"


def test_jobs_below_one_refused(capsys):
    for jobs in ("0", "-2", "x"):
        code, _, err = run(capsys, "--jobs", jobs, "find-eta", "--level", "5",
                           "--bound", "1")
        assert code == 2 and "--jobs" in err


@pytest.mark.parametrize("argv, refused", [
    (("reduce", "--target", "poly:1,1", "--basis", "level-5",
      "--guard", "-3", "--terms", "2"), "--guard"),
    (("reduce", "--target", "poly:1,1", "--basis", "level-5",
      "--guard", "0", "--terms", "2"), None),
    (("reduce", "--target", "poly:1", "--basis", "level-5",
      "--terms", "0"), "--terms"),
    (("expand", "--eta", "1:-1", "--terms", "0"), "--terms"),
    (("expand", "--eta", "1:-1", "--terms", "-1"), "--terms"),
    (("verify", "--family", "p-5", "--alpha", "1", "--nmax", "-5"), "--nmax"),
    (("verify", "--family", "p-5", "--alpha", "1", "--nmax", "0"), None),
    (("reduce", "--target", "poly:1,1", "--basis", "level-5",
      "--prime", "1"), "--prime"),
])
def test_option_ranges_checked_at_parse_time(capsys, argv, refused):
    code, _, err = run(capsys, *argv)
    if refused is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and f"argument {refused}" in err


@pytest.mark.parametrize("argv, option, cap", [
    (("verify", "--family", "p-5", "--alpha", "1", "--nmax"), "--nmax",
     cli.MAX_VERIFY_NMAX),
    (("expand", "--eta", "1:-1", "--terms"), "--terms", cli.MAX_EXPAND_TERMS),
    (("reduce", "--target", "poly:1", "--basis", "level-5", "--terms"),
     "--terms", cli.MAX_REDUCE_TERMS),
    (("reduce", "--target", "poly:1", "--basis", "level-5", "--guard"),
     "--guard", None),
    (("verify", "--family", "p-5", "--alpha", "1", "--nmax", "1", "--beta"),
     "--beta", None),
    (("classify", "--level", "5", "--prime"), "--prime", None),
    (("reduce", "--target", "poly:1", "--basis", "level-5", "--prime"),
     "--prime", None),
    (("expand", "--eta", "1:-1", "--at-cusp", "zero", "--level"), "--level",
     None),
    (("profile", "5", "--jobs"), "--jobs", None),
], ids=["verify-nmax", "expand-terms", "reduce-terms", "reduce-guard",
        "verify-beta", "classify-prime", "reduce-prime", "expand-level",
        "jobs"])
def test_size_options_capped_at_parse_time(capsys, argv, option, cap):
    # past the cap a command used to run for hours or end in MemoryError;
    # the cap itself is only parsed here, never run
    parse = cli.build_parser().parse_args
    if cap is None:
        # an option without a cap read 5000 digits as "want an integer":
        # int() refuses more than 4300
        code, out, err = run(capsys, *argv, "9" * 5000)
        assert (code, out) == (2, "")
        low = {"--guard": 0, "--prime": 2}.get(option, 1)
        assert err == (f"error: argument {option}: too large: want an "
                       f"integer >= {low} of at most 4300 digits, got 5000 "
                       f"digits\n")
        return
    assert getattr(parse([*argv, str(cap)]), option.lstrip("-")) == cap
    # leading zeros do not count toward the cap's digits
    assert getattr(parse([*argv, "0" * 20 + "12"]), option.lstrip("-")) == 12
    # 5000 digits used to read as "want an integer": int() refuses more
    # than 4300
    for text in (str(cap + 1), "9" * 5000):
        code, out, err = run(capsys, *argv, text)
        assert (code, out) == (2, "")
        assert err == (f"error: argument {option}: want at most {cap} "
                       f"(the work cap), got '{text}'\n")


@pytest.mark.parametrize("argv, spec", [
    (("expand", "--terms", "12", "--eta"), "1:-{}"),
    (("reduce", "--basis", "level-5", "--terms", "20", "--target"),
     "eta:1:-{}"),
], ids=["expand", "eta-target"])
def test_eta_exponents_capped_before_expansion(capsys, argv, spec):
    # past the cap an expansion ran one pass per unit of |r|: minutes to
    # hours; the cap itself is only parsed here, never run
    cap = cli.MAX_ETA_WEIGHT
    assert cli._parse_eta_spec(f"1:-{cap - 5},5:5").exponents \
        == ((1, 5 - cap), (5, 5))
    for weight in (cap + 1, 100_000_000):
        text = spec.format(weight)
        code, out, err = run(capsys, *argv, text)
        assert (code, out) == (2, "")
        assert err == (f"error: bad eta spec {text.removeprefix('eta:')!r}: "
                       f"exponents of absolute sum {weight}, want at most "
                       f"{cap} (the work cap)\n")


# 10^12 + 1 = 73 * 137 * 99990001: one past the cap, and quick to factor
OVER_FACTOR_CAP = str(10 ** 12 + 1)
FACTOR_CAP_ERROR = ("error: cannot factorise an integer above 10^12, the "
                    "work cap for trial division\n")


@pytest.mark.parametrize("argv", [
    ("profile", OVER_FACTOR_CAP),
    ("classify", "--level", "5", "--prime", OVER_FACTOR_CAP),
    ("find-eta", "--level", OVER_FACTOR_CAP, "--bound", "1"),
    ("reduce", "--target", "poly:1", "--basis", "level-5", "--prime",
     OVER_FACTOR_CAP),
    ("expand", "--eta", f"1:1,{OVER_FACTOR_CAP}:-1", "--at-cusp", "zero"),
], ids=["profile", "classify", "find-eta", "reduce", "expand"])
def test_factorisation_capped(capsys, argv):
    # trial division ran to sqrt(n) for any n: at n = 10^18 + 3 each of
    # these was still running after 10 s
    assert run(capsys, *argv) == (2, "", FACTOR_CAP_ERROR)


def test_factorisation_cap_admits_the_cap(capsys):
    assert run(capsys, "profile", str(10 ** 12))[0] == 0


def test_verify_beta_below_one_refused(capsys):
    # a demanded exponent below 1 makes the check vacuous; it used to PASS
    for beta in ("-1", "0"):
        code, out, err = run(capsys, "verify", "--family", "p-5", "--alpha",
                             "1", "--nmax", "50", "--beta", beta)
        assert code == 2 and out == ""
        assert "argument --beta" in err
    code, _, _ = run(capsys, "verify", "--family", "p-5", "--alpha", "1",
                     "--nmax", "50", "--beta", "1")
    assert code == 0


def test_expand_level_below_one_refused(capsys):
    # --level 0 used to be replaced by the quotient's own level in silence
    for level in ("0", "-5"):
        code, out, err = run(capsys, "expand", "--eta", "5:6,1:-6",
                             "--at-cusp", "zero", "--level", level,
                             "--terms", "3")
        assert code == 2 and out == ""
        assert "argument --level" in err
    _, default, _ = run_json(capsys, "expand", "--eta", "5:6,1:-6",
                             "--at-cusp", "zero", "--terms", "3")
    _, explicit, _ = run_json(capsys, "expand", "--eta", "5:6,1:-6",
                              "--at-cusp", "zero", "--level", "5",
                              "--terms", "3")
    assert default == explicit and default["level"] == 5


@pytest.mark.parametrize("cusp", [(), ("--at-cusp", "infinity")],
                         ids=["default", "infinity"])
def test_expand_level_only_at_zero_cusp(capsys, cusp):
    # --level used to be ignored in silence at the infinity cusp
    assert run(capsys, "expand", "--eta", "1:-1", "--level", "7", "--terms",
               "3", *cusp) == (
        2, "", "error: --level applies only to --at-cusp zero\n")


def test_reduce_non_prime_refused(capsys):
    code, out, err = run(capsys, "reduce", "--target", "poly:1,1", "--basis",
                         "level-5", "--terms", "20", "--prime", "4")
    assert code == 2 and out == ""
    assert err == "error: 4 is not prime\n"


def test_find_eta_nonpositive_level_refused(capsys):
    for level in ("0", "-6"):
        code, out, err = run(capsys, "find-eta", "--level", level,
                             "--bound", "1")
        assert code == 2 and out == ""
        assert err == f"error: level must be positive, got {level}\n"


def test_find_eta_refuses_unbounded_box(capsys):
    # 240 divisors at bound 1: 3^239 candidates, refused before the scan
    code, out, err = run(capsys, "find-eta", "--level", "720720",
                         "--bound", "1")
    assert code == 2 and out == ""
    assert err == ("error: search box of 3^239 candidates exceeds the limit "
                   "of 10000000; lower the bound or the level\n")


def test_find_eta_level5(capsys):
    code, doc, _ = run_json(capsys, "find-eta", "--level", "5",
                            "--constraints", "1==-1,5>=1", "--bound", "6")
    assert code == 0
    assert len(doc["results"]) == 1
    assert doc["results"][0]["quotient"] == {"M": 5, "r": {"1": -6, "5": 6}}


# (--level, --bound, --constraints, exit code, sha256 of the --json stdout,
# sha256 of the text stdout): the find-eta output pinned byte for byte, over
# one- and two-divisor levels, composite levels, every constraint shape the
# benchmark draws plus a fractional one, and an empty result (level 12)
FIND_ETA_DIGESTS = [
    ("1", "3", None, 0,
     "d9ef4858f36cdcf45e5cbce9957f28a5642d39cb9bf0861148bafb7080449de3",
     "07ff77913455c8a54ab2591b71257c38aa2b098d7f8b633ba8a40332d629aba5"),
    ("7", "4", "1==-1", 0,
     "7f66888a6dda22764c1a724c439bb650ece6ef1d196203117ecb639b515a5850",
     "7dff2939c24fc3c2c702b605295e2f7d8a79047772a572b5ceef7f66c5403fd7"),
    ("7", "4", "7>=1/2", 0,
     "7f66888a6dda22764c1a724c439bb650ece6ef1d196203117ecb639b515a5850",
     "786b96097dabcde583c2a1bf8c8bf9e8b5e1b04268b8bb9cbcf9dccb40fb97c5"),
    ("10", "3", "1<0", 0,
     "8b40666e60b4df1dfb6e10f7a48a56b3f88f1f67ad850d9c5b7d327d1dcf2675",
     "3014527103ac57a3c4d108e96e88d3007f841f6c761042f83883c1fe1720a9b7"),
    ("10", "12", "1<0,2>=1,5>=1,10>=1", 0,
     "d6076a8cf6ac590cd8647b4b868dc21bb49c480f02349c0465b593ce228ae554",
     "dbab1531c522897a18b66774a8e8c44efed507430890c739a3d31a273cfc64aa"),
    ("12", "3", "12>=1/2", 0,
     "6a72c75bb1ccd3fea7be74a460547616c3920f28473f17dcf373a307a39c6469",
     "3a77f5b733d4b9135c390ffe66fdd350ef8cfea6b5fe9548412db27c93f43ed3"),
    ("12", "2", "1<0,2>=1,3>=1,4>=1,6>=1,12>=1", 0,
     "7ccfadedd0b3512644d164640468b289e4c51f805bb127757e16a76360f82f59",
     "40043e930e99797b8fb9f6676fdda1ae850fcae115d9424f648b1dd7db93c6f1"),
    ("30", "2", "1<0", 0,
     "6f6c94f50763c011320ec678bdeab1afa3ef2d1c0e7c5c7e01af51ae180b348d",
     "4d88d19c44bdf824192a7c812569a36c770dbc8c9065e943fa0631742428c12f"),
    ("30", "2", "1==-2", 0,
     "eec2ba4a4d016972ce4adb1b589acf7827c4d7a0cf85f7e0bd3dd6158d0e527a",
     "b28aa935ef2a2b3abf76f494d7c9e242a0ea27b0f44ece7e24ab87c62e11cad7"),
    ("60", "1", None, 0,
     "6f42dc17b0978a50e208c68c26dc4428b18bdcd7438f7e8b1b23fb96a7143023",
     "8028521ba494b65e8a77a05e49aaead1b83f91040d79278ebaca597024e8ea75"),
    ("60", "1", "60>=1/2", 0,
     "6817b0487313ba62f83b030e4751ca96dedf4c16105269382ffe6ab3a364473a",
     "aa458426c2bba4c863585281ea16f6940725d697503441f32356303c7de1d621"),
]


@pytest.mark.parametrize("level, bound, constraints, code, json_digest, "
                         "text_digest", FIND_ETA_DIGESTS,
                         ids=[f"{c[0]}:{c[1]}:{c[2]}" for c in FIND_ETA_DIGESTS])
def test_find_eta_output_byte_identical(capsys, level, bound, constraints,
                                        code, json_digest, text_digest):
    argv = ["find-eta", "--level", level, "--bound", bound]
    if constraints:
        argv += ["--constraints", constraints]
    for prefix, digest in ((["--json"], json_digest), ([], text_digest)):
        got_code, out, err = run(capsys, *prefix, *argv)
        assert (got_code, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_find_eta_zero_denominator_constraint_refused(capsys):
    # used to end as "internal error: ZeroDivisionError", exit 3
    code, out, err = run(capsys, "find-eta", "--level", "10", "--constraints",
                         "1<=1/0", "--bound", "1")
    assert (code, out) == (2, "")
    assert err == "error: bad constraint '1<=1/0': Fraction(1, 0)\n"


def test_find_eta_parallel_matches_serial(capsys):
    code1, doc1, _ = run_json(capsys, "find-eta", "--level", "10",
                              "--constraints", "1<0", "--bound", "3")
    code2, doc2, _ = run_json(capsys, "--jobs", "2", "find-eta", "--level",
                              "10", "--constraints", "1<0", "--bound", "3")
    assert code1 == code2 == 0
    assert doc1["results"] == doc2["results"]


def test_catalog_env_and_flag(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "cat.json"
    bad.write_text('{"families": []}')
    monkeypatch.setenv("CUSP_LEDGER_CATALOG", str(bad))
    code, _, err = run(capsys, "verify", "--family", "p-5", "--alpha", "1",
                       "--nmax", "50")
    assert code == 2 and "no family" in err
    # the flag wins over the environment variable
    from cusp_ledger.families import shipped_catalog_path
    code, out, _ = run(capsys, "--catalog", str(shipped_catalog_path()),
                       "verify", "--family", "p-5", "--alpha", "1",
                       "--nmax", "50")
    assert code == 0


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2


def test_global_flags_after_subcommand(capsys):
    code, out, _ = run(capsys, "classify", "--level", "20", "--json")
    assert code == 0
    assert json.loads(out)["difficulty_class"] == "NoSystematicMethods"


def test_corrupted_identity_is_internal_inconsistency(tmp_path, capsys):
    # a recorded tower identity that disagrees with the sliced construction
    # is shipped-data corruption: exit 3, never a silent wrong answer
    import json as _json
    from cusp_ledger.families import shipped_catalog_path

    doc = _json.loads(shipped_catalog_path().read_text())
    for fam in doc["families"]:
        if fam["name"] == "p-5":
            fam["tower_identities"]["1"][0]["scale"] = "6"
    bad = tmp_path / "corrupt.json"
    bad.write_text(_json.dumps(doc))
    code, _, err = run(capsys, "--catalog", str(bad), "reduce",
                       "--target", "family:p-5:L1", "--basis", "level-5")
    assert code == 3
    assert "internal inconsistency" in err


def test_expand_nonpositive_delta_refused(capsys):
    # validity used to pass (it reads only the divisors of the level) and
    # the expansion printed a series with orders -5/24 and -1/24
    code, out, err = run(capsys, "expand", "--eta=-1:1", "--at-cusp", "zero",
                         "--level", "5")
    assert (code, out) == (2, "")
    assert err == "error: divisor -1 must be a positive integer\n"


def test_parser_built_once(capsys):
    from cusp_ledger.cli import build_parser

    assert run(capsys, "profile", "5")[0] == 0
    assert build_parser() is build_parser()


def _edited_catalog(tmp_path, keys, value):
    """The shipped catalog with doc[keys[0]][keys[1]]... set to value."""
    doc = json.loads(shipped_catalog_path().read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    return path


def _verify_p5(capsys, path):
    return run(capsys, "--catalog", str(path), "verify", "--family", "p-5",
               "--alpha", "1", "--nmax", "50")


def test_catalog_not_utf8_is_usage_error(tmp_path, capsys):
    # used to end as "internal error: UnicodeDecodeError", exit 3
    path = tmp_path / "catalog.json"
    path.write_bytes(b"\xff{")
    code, out, err = _verify_p5(capsys, path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read catalog {path}: 'utf-8' codec")

@pytest.mark.parametrize("keys", [
    ("families", 0, "generator", "r"),
    ("families", 0, "prefactors", "1", "r"),
], ids=["generator", "prefactor"])
def test_catalog_nonpositive_delta_refused(tmp_path, capsys, keys):
    # the generator used to end as "internal error: ZeroDivisionError",
    # exit 3; the prefactor loaded and failed only when it was expanded
    path = _edited_catalog(tmp_path, keys, {"0": 1})
    code, out, err = _verify_p5(capsys, path)
    assert (code, out) == (2, "")
    assert err == (f"error: {path}:families[0]: divisor 0 must be a positive "
                   f"integer\n")


def test_catalog_prime_over_factor_cap_names_the_entry(tmp_path, capsys):
    # a prime past the cap used to hang every command, since each reads
    # the whole catalog; a refusal raised while the catalog is read names
    # the catalog and the entry, whatever error it is
    path = _edited_catalog(tmp_path, ("families", 0, "prime"),
                           int(OVER_FACTOR_CAP))
    assert run(capsys, "--catalog", str(path), "verify", "--family", "p-7",
               "--alpha", "1", "--nmax", "50") == (
        2, "", FACTOR_CAP_ERROR.replace("error:",
                                        f"error: {path}:families[0]:"))


@pytest.mark.parametrize("keys, term, where", [
    (("bases", 3, "x", "series", "terms"), [-23, "1", "1"], "x"),
    (("bases", 3, "ys", 0, "series", "terms"), [-1, "1", "1"], "ys[0]"),
], ids=["x", "companion"])
def test_catalog_basis_series_off_the_integer_grid_refused(tmp_path, capsys,
                                                           keys, term, where):
    # only the leading exponent was checked: an off-grid term behind it in
    # x ended as a math failure (exit 1, "reduction target must have
    # integer exponents"), and in a companion the reduction passed; then
    # the basis was refused only when built, by a message naming neither
    # the catalog nor the basis.  The load refuses it, for every command.
    node = json.loads(shipped_catalog_path().read_text())
    for key in keys:
        node = node[key]
    path = _edited_catalog(tmp_path, keys, node + [term])
    want = (2, "", f"error: {path}:bases[3]: {where} must live on the "
                   f"integer exponent grid\n")
    assert run(capsys, "--catalog", str(path), "reduce", "--target",
               "poly:1,2", "--basis", "demo-genus1") == want
    assert run(capsys, "--catalog", str(path), "verify", "--family", "p-5",
               "--alpha", "1", "--nmax", "10") == want


# (keys of the edited field, value, error after the catalog path): a name
# that is no string used to end as "internal error: TypeError" (list, dict)
# or load under a name no lookup finds; a basis reference that is no string
# meant "no basis"
@pytest.mark.parametrize("keys, value, want", [
    (("families", 0, "name"), [],
     ":families[0]: name must be a string, got []"),
    (("families", 0, "name"), {},
     ":families[0]: name must be a string, got {}"),
    (("families", 0, "name"), None,
     ":families[0]: name must be a string, got None"),
    (("families", 0, "name"), True,
     ":families[0]: name must be a string, got True"),
    (("bases", 0, "name"), [], ":bases[0]: name must be a string, got []"),
    (("bases", 0, "name"), 5, ":bases[0]: name must be a string, got 5"),
    (("families", 0, "basis"), None,
     ":families[0]: basis must be a string, got None"),
    (("families", 0, "basis"), [],
     ":families[0]: basis must be a string, got []"),
    (("families", 0, "basis"), {},
     ":families[0]: basis must be a string, got {}"),
], ids=["family-name-list", "family-name-object", "family-name-null",
        "family-name-bool", "basis-name-list", "basis-name-int",
        "basis-ref-null", "basis-ref-list", "basis-ref-object"])
def test_catalog_strings_refused_at_load(tmp_path, capsys, keys, value, want):
    path = _edited_catalog(tmp_path, keys, value)
    assert _verify_p5(capsys, path) == (2, "", f"error: {path}{want}\n")


@pytest.mark.parametrize("keys, value, where", [
    (("families", 0, "tower_identities", "1", 0, "scale"), "1/0",
     "families[0]"),
    (("bases", 3, "x", "series", "terms", 0, 2), "0", "bases[3]"),
])
def test_catalog_zero_denominator_is_usage_error(tmp_path, capsys, keys,
                                                 value, where):
    # each used to end as "internal error: ZeroDivisionError", exit 3
    path = _edited_catalog(tmp_path, keys, value)
    code, out, err = _verify_p5(capsys, path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}:{where}: Fraction(1, 0)\n"


# (keys of the edited field, value, error after the catalog path): each of
# these used to load, most of them weakened by int() (5.5 -> 5, "5" -> 5)
@pytest.mark.parametrize("keys, value, want", [
    (("families", 0, "prime"), 5.5,
     ":families[0]: prime must be an integer, got 5.5"),
    (("families", 0, "prime"), True,
     ":families[0]: prime must be an integer, got True"),
    (("families", 0, "lam"), 24.9,
     ":families[0]: lam must be an integer, got 24.9"),
    (("families", 0, "level"), "5",
     ":families[0]: level must be an integer, got '5'"),
    (("families", 0, "target_residue"), 1.0,
     ":families[0]: target_residue must be an integer, got 1.0"),
    (("families", 0, "schedule", "1", "modulus"), 1.5,
     ":families[0]: modulus must be an integer, got 1.5"),
    (("families", 0, "schedule", "1", "beta"), 0,
     ":families[0]: family p-5: bad schedule entry at depth 1"),
    (("families", 0, "generator", "r", "1"), -1.5,
     ":families[0]: exponent must be an integer, got -1.5"),
    (("families", 0, "generator", "M"), "1",
     ":families[0]: M must be an integer, got '1'"),
    (("families", 0, "prefactors", "1", "qpow"), 1.5,
     ":families[0]: qpow must be an integer, got 1.5"),
    (("bases", 3, "x", "series", "terms", 0, 0), -48.5,
     ":bases[3]: exponent must be an integer, got -48.5"),
    (("bases", 3, "x", "series", "trunc24"), 48.0,
     ":bases[3]: trunc24 must be an integer, got 48.0"),
    (("families", 0, "schedule"), {"+1": {"modulus": 1, "beta": 1}},
     ":families[0].schedule: key '+1' is not an integer"),
    (("bases", 1, "name"), "level-5", ": duplicate basis names"),
    (("families", 0, "tower_identities", "1", 0, "scale"), 0.5,
     ":families[0]: scale must be an integer or a string 'p' or 'p/q', "
     "got 0.5"),
    (("families", 0, "tower_identities", "1", 0, "scale"), True,
     ":families[0]: scale must be an integer or a string 'p' or 'p/q', "
     "got True"),
    (("bases", 3, "x", "series", "terms", 0, 1), 1.5,
     ":bases[3]: numerator must be an integer or a string 'p' or 'p/q', "
     "got 1.5"),
    (("bases", 3, "x", "series", "terms", 0, 1), True,
     ":bases[3]: numerator must be an integer or a string 'p' or 'p/q', "
     "got True"),
    (("bases", 3, "x", "series", "terms", 0, 2), 2.9,
     ":bases[3]: denominator must be an integer or a string 'p' or 'p/q', "
     "got 2.9"),
    (("families", 0, "generator", "r"), {"+1": -1},
     ":families[0]: key '+1' is not an integer"),
    (("families", 0, "generator", "r"), {"1_0": -1},
     ":families[0]: key '1_0' is not an integer"),
    (("families", 0, "prefactors", "1", "r"), {" 1": 1},
     ":families[0]: key ' 1' is not an integer"),
    (("families", 0, "schedule"), {"1": {"modulus": 1, "beta": 1},
                                   "01": {"modulus": 1, "beta": 2}},
     ":families[0].schedule: key '01' is not an integer"),
    (("families", 0, "multipliers"), {"-0": {"qpow": 0, "r": {}}},
     ":families[0].multipliers: key '-0' is not an integer"),
    (("families", 0, "generator", "r"), {"1": -1, "01": 5},
     ":families[0]: key '01' is not an integer"),
    (("families", 0, "generator", "r"), {"\u0661": -1},
     ":families[0]: key '\u0661' is not an integer"),
    # these two used to be refused without the catalog path and entry
    (("families", 0, "generator", "r"), {"3": -1},
     ":families[0]: divisor 3 does not divide level 1"),
    (("families", 0, "tower_identities", "1", 0, "eta", "M"), -1,
     ":families[0]: level must be positive, got -1"),
    # the loader used to ignore the key: version 99 loaded as version 1
    (("schema_version",), 99, ": schema_version 99 is not supported (want 1)"),
    (("schema_version",), 0, ": schema_version 0 is not supported (want 1)"),
    (("schema_version",), "1",
     ": schema_version must be an integer, got '1'"),
], ids=["prime-float", "prime-bool", "lam-float", "level-string",
        "residue-float", "modulus-float", "beta-zero", "exponent-float",
        "M-string", "qpow-float", "series-exponent-float", "trunc24-float",
        "signed-key", "duplicate-basis", "scale-float", "scale-bool",
        "numerator-float", "numerator-bool", "denominator-float",
        "r-key-signed", "r-key-underscore", "prefactor-r-key-space",
        "schedule-key-leading-zero", "multiplier-key-minus-zero",
        "r-key-leading-zero", "r-key-non-ascii", "generator-divisor",
        "identity-level", "schema-version-future", "schema-version-zero",
        "schema-version-string"])
def test_catalog_numbers_refused_at_load(tmp_path, capsys, keys, value, want):
    path = _edited_catalog(tmp_path, keys, value)
    code, out, err = _verify_p5(capsys, path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}{want}\n"


@pytest.mark.parametrize("eta, shown", [
    ({"M": 7, "r": {"7": 4, "1": -4}}, "eta(1t)^-4 * eta(7t)^4"),
    ({"M": 5, "r": {"5": 1, "1": -1}}, "eta(1t)^-1 * eta(5t)^1"),
], ids=["level-7", "not-valid-on-gamma0-5"])
def test_catalog_identity_off_the_family_curve_refused(tmp_path, capsys, eta,
                                                       shown):
    # each used to load and then report "internal inconsistency", exit 3;
    # a wrong scale on a valid quotient still does (see
    # test_corrupted_identity_is_internal_inconsistency)
    path = _edited_catalog(
        tmp_path, ("families", 0, "tower_identities", "1", 0, "eta"), eta)
    code, out, err = run(capsys, "--catalog", str(path), "reduce", "--target",
                         "family:p-5:L1", "--basis", "level-5")
    assert (code, out) == (2, "")
    assert err == (f"error: {path}:families[0]: family p-5: depth-1 identity "
                   f"term {shown} is not a function on X_0(5)\n")


def _read_leaves(node, keys=()):
    """Key paths to the scalar leaves of a catalog document, skipping the
    free-text notes that the loader does not read."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for k, v in items if k != "notes"
                for leaf in _read_leaves(v, keys + (k,))]
    return [keys]


CATALOG_LEAVES = _read_leaves(json.loads(shipped_catalog_path().read_text()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(CATALOG_LEAVES),
       st.sampled_from([None, True, 1.5, [], {}]))
@example(keys=("schema_version",), value=None)
def test_catalog_leaf_of_wrong_type_refused_at_load(tmp_path, capsys, keys,
                                                    value):
    # every value of the wrong JSON type is a usage error naming the catalog
    path = _edited_catalog(tmp_path, keys, value)
    code, out, err = run(capsys, "--catalog", str(path), "verify", "--family",
                         "p-5", "--alpha", "1", "--nmax", "30")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}") and err.count("\n") == 1


def _corpus() -> list[list[str]]:
    """A fixed corpus of CLI invocations against the shipped catalog, each
    one in text and in --json: every command, success and error paths."""
    families = {"p-5": 6, "p-7": 6, "p-11": 4, "pd-5": 2, "d2-7": 2,
                "cphi2-5": 3}
    argvs = []
    for level in range(41):
        argvs.append(["profile", str(level)])
        argvs.append(["classify", "--level", str(level)])
        if level % 2 == 0:
            argvs.append(["classify", "--level", str(level), "--prime",
                          str((2, 3, 5, 7)[level // 2 % 4])])
    for name in families:
        argvs.append(["classify", "--family", name])
        for cusp in ("infinity", "zero"):
            argvs.append(["expand", "--family", name, "--at-cusp", cusp,
                          "--terms", "15"])
    for spec, level in (("1:1,2:-1", "2"), ("5:6,1:-6", "5"),
                        ("5:6,1:-6", "10"), ("1:-6,2:2,5:-2,10:6", "10"),
                        ("1:1,5:-1", "5"), ("3:12,1:-12", "3")):
        argvs.append(["expand", "--eta", spec, "--terms", "15"])
        argvs.append(["expand", "--eta", spec, "--at-cusp", "zero",
                      "--level", level, "--terms", "15"])
    argvs.append(["verify", "--family", "p-5", "--alpha", "0", "--nmax", "50"])
    for name, depths in families.items():
        for alpha in range(1, depths + 1):
            verify = ["verify", "--family", name, "--alpha", str(alpha),
                      "--nmax", "150"]
            argvs += [verify, verify + ["--beta", "2"]]
    targets = ("family:p-5:L1", "family:p-5:L2", "family:p-5:X",
               "family:p-7:L1", "family:pd-5:L1", "eta:5:6,1:-6",
               "eta:7:4,1:-4", "eta:1:-4,2:2,5:4,10:-2", "poly:0",
               "poly:1/2,0,-3", "pole:0", "pole:2")
    for basis in ("level-5", "level-7", "level-10", "demo-genus1"):
        for target in targets:
            argvs.append(["reduce", "--target", target, "--basis", basis,
                          "--terms", "24"])
        argvs.append(["reduce", "--target", "poly:5,25", "--basis", basis,
                      "--terms", "24", "--prime", "5"])
    for level, bound, constraints in (("5", "2", None), ("6", "1", None),
                                      ("10", "2", "1<0"),
                                      ("12", "1", "1==-1")):
        argv = ["find-eta", "--level", level, "--bound", bound]
        argvs.append(argv + (["--constraints", constraints]
                             if constraints else []))
    # one past each work cap
    argvs += [["verify", "--family", "p-5", "--alpha", "1", "--nmax",
               "100001"],
              ["expand", "--eta", "1:-1", "--terms", "100001"],
              ["reduce", "--target", "poly:1", "--basis", "level-5",
               "--terms", "10001"],
              ["expand", "--eta", "1:-1001", "--terms", "12"],
              ["reduce", "--target", "eta:1:-501,5:500", "--basis", "level-5",
               "--terms", "20"]]
    return [prefix + argv for argv in argvs for prefix in ([], ["--json"])]


# sha256 over (argv, exit code, stdout, stderr) of every corpus invocation
CORPUS_DIGEST = \
    "95d4412bdba64c539b28851d567afb97717213fe0ea02f88b4fce38fea9b5aec"


def test_cli_corpus_byte_identical(capsys, monkeypatch):
    monkeypatch.delenv("CUSP_LEDGER_CATALOG", raising=False)
    digest = hashlib.sha256()
    for argv in _corpus():
        code, out, err = run(capsys, *argv)
        digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == CORPUS_DIGEST
