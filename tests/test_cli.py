"""CLI behaviour: exit codes, JSON schema, text output."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

import cusp_ledger
from cusp_ledger import cli, families
from cusp_ledger.cli import main
from cusp_ledger.curves import divisors
from cusp_ledger.cli import parse_constraints, parse_rational
from cusp_ledger.errors import MAX_INT_DIGITS, CatalogError, EtaError, shown
from cusp_ledger.eta import (EtaQuotient, OrderConstraint, cusp_order_vector,
                             search_eta_quotients)
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
    # the division kernel's C path: Euler's series, Gauss's psi, and
    # Jacobi's series, whose weights keep every segment in Python
    (["--eta", "1:-1", "--terms", "20000"],
     "4b3f563efbf62b8c70e03067367cfb029cc991ea37a3f77dcd2528c6baa1cb0d"),
    (["--eta", "1:1,2:-2", "--terms", "3000"],
     "e5634c02d2fcd0a30ba86c6b40dd523e109cf316cd8368ff3608a7f464f245d6"),
    (["--eta", "1:-3", "--terms", "3000"],
     "111d01528bbff8e3c9024f368c45fe81a91174e1a4fa444e30172abb6a283837"),
]


@pytest.mark.parametrize("argv, digest", EXPAND_DIGESTS,
                         ids=["infinity", "zero-level-5", "zero-level-10",
                              "euler-20000", "psi-3000", "jacobi-3000"])
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


@pytest.mark.parametrize("label", ["L01", "L+1", "L 1", "L1_0", "L\u0663",
                                   "L0", "L-1"])
def test_reduce_family_depth_is_a_canonical_decimal(capsys, label):
    # the depth reads as a catalog key does (one text per depth), and a
    # tower starts at depth 1
    target = f"family:p-5:{label}"
    code, out, err = run(capsys, "reduce", "--target", target,
                         "--basis", "level-5", "--terms", "20")
    assert (code, out) == (2, "")
    assert err == (f"error: bad family target {shown(target)}: want "
                   f"family:NAME:L<depth>\n")


# every number typed on the command line, each with '_' or a non-ASCII digit,
# and the refusal it already had for a number it cannot read
@pytest.mark.parametrize("argv, err", [
    (("expand", "--eta", "1:-1", "--terms", "1_0"),
     "argument --terms: want an integer >= 1, got '1_0'"),
    (("profile", "\u06630"), "argument level: invalid int value: '\u06630'"),
    (("classify", "--level", "3_0"),
     "argument --level: invalid int value: '3_0'"),
    (("verify", "--family", "p-5", "--alpha", "1", "--nmax", "2_0_0"),
     "argument --nmax: want an integer >= 0, got '2_0_0'"),
    (("verify", "--family", "p-5", "--alpha", "\u0661", "--nmax", "20"),
     "argument --alpha: invalid int value: '\u0661'"),
    (("expand", "--eta", "1_0:-1"),
     "bad eta spec component '1_0:-1': want delta:exponent"),
    (("expand", "--eta", "1:-\u0661"),
     "bad eta spec component '1:-\u0661': want delta:exponent"),
    (("reduce", "--target", "eta:5:6,1:-6_0", "--basis", "level-5"),
     "bad eta spec component '1:-6_0': want delta:exponent"),
    (("reduce", "--target", "pole:1_0", "--basis", "level-5"),
     "bad pole target 'pole:1_0': want pole:P with P >= 0"),
    (("reduce", "--target", "poly:1_0,1", "--basis", "level-5"),
     "bad poly target 'poly:1_0,1', want poly:c0,c1,...: Invalid literal "
     "for Fraction: '1_0'"),
    (("reduce", "--target", "poly:\u0663/2", "--basis", "level-5"),
     "bad poly target 'poly:\u0663/2', want poly:c0,c1,...: Invalid literal "
     "for Fraction: '\u0663/2'"),
    (("find-eta", "--level", "10", "--constraints", "1_0>=1", "--bound", "1"),
     "bad constraint '1_0>=1': invalid literal '1_0': want ASCII digits "
     "without '_'"),
    (("find-eta", "--level", "10", "--constraints", "1>=1_0", "--bound", "1"),
     "bad constraint '1>=1_0': Invalid literal for Fraction: '1_0'"),
    (("find-eta", "--level", "10", "--bound", "\u0661"),
     "argument --bound: invalid int value: '\u0661'"),
])
def test_numbers_typed_are_ascii_decimals(capsys, argv, err):
    # int() and Fraction() read '_' and other scripts' digits: '--terms 1_0'
    # used to expand ten terms, and 'poly:1_0,1' passed on Python 3.11 and
    # was refused on 3.10
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("argv, same", [
    (("expand", "--eta", "1:-1", "--terms", "+012"), "12"),
    (("expand", "--eta", "1:-1", "--terms", " 12 "), "12"),
    (("expand", "--eta", " 01:-1 ", "--terms", "12"), None),
    (("profile", " +030"), "30"),
    (("find-eta", "--level", "10", "--constraints", "01>= -1/02",
      "--bound", "1"), None),
])
def test_numbers_typed_keep_sign_zeros_and_blanks(capsys, argv, same):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if same is not None:
        assert out == run(capsys, *argv[:-1], same)[1]


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


def test_reduce_constant_past_the_window_refused(capsys):
    # with --guard 0, x^3 at 2 terms is known only below q^0: the constant
    # term was taken as 0 and the reduction reported exit 0 with
    # residual_is_zero, though at 20 terms the target is not in the module
    argv = ["reduce", "--target", "pole:3", "--basis", "level-5", "--guard",
            "0", "--terms"]
    assert run(capsys, *argv, "2") == (
        2, "", "error: the elimination knows the target only to q^(0/24), so "
               "its constant term at q^0 is unknown; raise the truncation\n")
    code, _, err = run(capsys, *argv, "20")
    assert (code, err) == (1, "error: target is not in the module at this "
                              "truncation: residual coefficient 90 at "
                              "q^(24/24)\n")


def _edited_catalog(tmp_path, keys, value):
    """The shipped catalog with doc[keys[0]][keys[1]]... set to value, or,
    for a callable value, edited in place by value(that node)."""
    doc = json.loads(shipped_catalog_path().read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    if callable(value):
        value(node[keys[-1]])
    else:
        node[keys[-1]] = value
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    return path


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
    basis = {"name": "b", "level": 5,
             "x": {"eta": {"M": 5, "r": {"5": 6, "1": -6}}}, field: value}
    path = _edited_catalog(tmp_path, ("bases",),
                           lambda bases: bases.append(basis))
    code, out, err = run(capsys, "--catalog", str(path), "reduce",
                         "--target", "poly:1,1", "--basis", "b")
    assert (code, out) == (2, "")
    assert err == (f"error: {path}:bases[4].{where}: need a JSON object "
                   "with an 'eta' or 'series' entry\n")


def test_catalog_nested_too_deep_is_usage_error(tmp_path, capsys):
    # json refuses nesting past the recursion limit with a RecursionError,
    # which used to end as "internal error: RecursionError", exit 3
    path = tmp_path / "catalog.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "--catalog", str(path), "classify",
                         "--family", "p-5")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not valid JSON: maximum recursion "
                          "depth exceeded") and err.count("\n") == 1


@pytest.mark.parametrize("error", [TypeError, AttributeError,
                                   ZeroDivisionError, RecursionError])
def test_catalog_reader_bug_is_internal_error(capsys, monkeypatch, error):
    # a Python exception raised while the catalog loads is a bug in the
    # loader, never a refusal of the catalog
    def reader(obj, path):
        raise error("boom")

    monkeypatch.delenv("CUSP_LEDGER_CATALOG", raising=False)
    monkeypatch.setattr(families, "_basis_from_json", reader)
    assert run(capsys, "classify", "--family", "p-5") == (
        3, "", f"internal error: {error.__name__}: boom\n")


@pytest.mark.parametrize("argv, code", [(["profile", "30"], 0),
                                        (["profile", "x"], 2)])
def test_entry_exits_with_the_code_of_main(capsys, monkeypatch, argv, code):
    # entry() is the console script cusp-ledger
    monkeypatch.setattr(sys, "argv", ["cusp-ledger", *argv])
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == code
    assert bool(capsys.readouterr().err) == bool(code)


def test_non_object_catalog_family_is_usage_error(tmp_path, capsys):
    # used to end as "internal error: AttributeError", exit 3
    path = tmp_path / "catalog.json"
    path.write_text('{"families": [5]}')
    code, out, err = run(capsys, "--catalog", str(path), "verify", "--family",
                         "p-5", "--alpha", "1", "--nmax", "50")
    assert (code, out) == (2, "")
    assert err == f"error: {path}:families[0]: family must be a JSON object, " \
        "got 5\n"


@pytest.mark.parametrize("level", ["five", True, 0, -5, 5.0, None])
def test_catalog_basis_level_checked_at_load(tmp_path, capsys, level):
    # "five" used to load and then end as "internal error: TypeError"
    path = _edited_catalog(tmp_path, ("bases", 0, "level"), level)
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
    # leading zeros count toward no limit: 5000 of them used to be refused
    # as "want an integer >= 1", with all 5002 characters echoed
    for zeros in (20, 5000):
        assert getattr(parse([*argv, "0" * zeros + "12"]),
                       option.lstrip("-")) == 12
    low = {"--guard": 0, "--prime": 2, "--nmax": 0}.get(option, 1)
    too_large = (f"error: argument {option}: too large: want an integer >= "
                 f"{low} of at most 4300 digits, got 5000 digits\n")
    # a sign is no digit: a negative of 5000 digits was echoed in full as
    # "want an integer >= 0"
    assert run(capsys, *argv, "-" + "9" * 5000) == (2, "", too_large)
    if cap is None:
        # an option without a cap read 5000 digits as "want an integer":
        # int() refuses more than 4300
        assert run(capsys, *argv, "9" * 5000) == (2, "", too_large)
        assert run(capsys, *argv, "+" + "9" * 5000) == (2, "", too_large)
        return
    assert getattr(parse([*argv, str(cap)]), option.lstrip("-")) == cap
    # 5000 digits used to read as "want an integer": int() refuses more
    # than 4300; then they were echoed in full
    for text, echo in ((str(cap + 1), f"'{cap + 1}'"),
                       ("9" * 5000, f"'{'9' * 40}'... (5000 characters)")):
        code, out, err = run(capsys, *argv, text)
        assert (code, out) == (2, "")
        assert err == (f"error: argument {option}: want at most {cap} "
                       f"(the work cap), got {echo}\n")


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


NOT_INTEGRAL = ("order at infinity is not integral (mod-24 condition); "
                "order at zero is not integral (mod-24 condition)")


@pytest.mark.parametrize("argv, why", [
    (("--family", "p-5"), "1): exponent sum is nonzero (not weight 0); "
                          + NOT_INTEGRAL),
    (("--eta", "1:-1,4:1"), "4): " + NOT_INTEGRAL),
    (("--eta", "1:-1,4:1", "--level", "12"), "12): " + NOT_INTEGRAL),
])
def test_expand_refusal_names_the_level(capsys, argv, why):
    # the message used to print the literal Gamma_0(N)
    assert run(capsys, "expand", *argv, "--at-cusp", "zero") == (
        2, "", f"error: not a weight-0 function on Gamma_0({why}\n")


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


def test_find_eta_box_refused_before_any_ligozat_row(capsys, monkeypatch):
    # 6720 divisors at bound 1: the box is refused before a row is built
    from cusp_ledger import eta
    rows = []
    monkeypatch.setattr(eta, "_ligozat_rows",
                        lambda *args: rows.append(args) or [])
    code, out, err = run(capsys, "find-eta", "--level", "963761198400",
                         "--bound", "1")
    assert (code, out, rows) == (2, "", [])
    assert err == ("error: search box of 3^6719 candidates exceeds the limit "
                   "of 10000000; lower the bound or the level\n")


TOO_LARGE = ("too large: want a numerator and a denominator of at most 4300 "
             "digits")


@pytest.mark.parametrize("argv, err", [
    # at the parent this ended as exit 3, "internal error: ValueError:
    # Exceeds the limit (4300 digits) for integer string conversion", when
    # the report printed the 5001-digit numerator
    (("reduce", "--target", "poly:1e5000", "--basis", "level-5"),
     f"bad poly target 'poly:1e5000', want poly:c0,c1,...: {TOO_LARGE}"),
    # likewise, for the 5001-digit denominator
    (("reduce", "--target", "poly:1e-5000", "--basis", "level-5"),
     f"bad poly target 'poly:1e-5000', want poly:c0,c1,...: {TOO_LARGE}"),
    # at the parent these never finished: Fraction() built 10^100000000
    (("reduce", "--target", "poly:1e100000000", "--basis", "level-5"),
     "bad poly target 'poly:1e100000000', want poly:c0,c1,...: "
     f"{TOO_LARGE}"),
    (("find-eta", "--level", "5", "--bound", "1", "--constraints",
      "1<1e100000000"),
     f"bad constraint '1<1e100000000': {TOO_LARGE}"),
], ids=["poly-1e5000", "poly-1e-5000", "poly-1e100000000",
        "constraint-1e100000000"])
def test_oversized_rational_values_refused_before_they_are_built(
        capsys, argv, err):
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


NINES = "9" * 5000
NOT_INT = "9" * 4999 + "x"


@pytest.mark.parametrize("argv, echo", [
    (("reduce", "--basis", "level-5", "--target", "poly:" + NINES),
     "bad poly target 'poly:"),
    (("reduce", "--basis", "level-5", "--target", "poly:" + "x" * 5000),
     "Invalid literal for Fraction: 'xxx"),
    (("reduce", "--basis", "level-5", "--target", "pole:" + NINES),
     "bad pole target 'pole:"),
    (("reduce", "--basis", "level-5", "--target", "eta:1:" + NINES),
     "bad eta spec component '1:"),
    (("reduce", "--basis", "level-" + NINES, "--target", "poly:1"),
     "no basis named 'level-"),
    (("verify", "--alpha", "1", "--nmax", "1", "--family", NINES),
     "no family named '9"),
    (("find-eta", "--level", "5", "--bound", "1", "--constraints",
      "1<" + NINES), "bad constraint '1<"),
    (("find-eta", "--level", "5", "--bound", "1", "--constraints", NINES),
     "bad constraint '9"),
    (("verify", "--family", "p-5", "--alpha", "1", "--nmax", "1" + NINES),
     "got '1"),
    (("expand", "--eta", "1:-1", "--terms", "1" + NINES), "got '1"),
    # a decimal of 5000 digits is refused as too large, without an echo
    # (test_int_options_refuse_too_many_digits); these are no decimals
    (("profile", NOT_INT), "argument level: invalid int value: '9"),
    (("classify", "--level", NOT_INT), "invalid int value: '9"),
    (("find-eta", "--bound", "1", "--level", NOT_INT),
     "invalid int value: '9"),
    (("find-eta", "--level", "5", "--bound", NOT_INT),
     "invalid int value: '9"),
    (("verify", "--family", "p-5", "--nmax", "1", "--alpha", NOT_INT),
     "invalid int value: '9"),
    # int() refused the class as "Exceeds the limit (4300 digits)"
    (("find-eta", "--level", "5", "--bound", "1", "--constraints",
      NINES + "<1"), "too large: want a cusp class of at most 4300 digits, "
     "got 5000 digits"),
    (("expand", "--eta", "1:-1", "--at-cusp", "z" * 5000),
     "argument --at-cusp: invalid choice: 'z"),
    (("expand", "--eta", "1:-1", "z" * 5000), "unrecognized arguments: 'z"),
    (("z" * 5000,), "argument command: invalid choice: 'z"),
], ids=["poly-too-large", "poly-literal", "pole", "eta-spec", "basis",
        "family", "constraint-value", "constraint-operator", "verify-nmax",
        "expand-terms", "profile-level", "classify-level", "find-eta-level",
        "find-eta-bound", "verify-alpha", "constraint-class",
        "at-cusp-choice", "stray-positional", "command-choice"])
def test_refused_long_values_echoed_by_their_start(capsys, argv, echo):
    # each of these used to print the refused value in full, 5000 bytes
    # and more on stderr
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert echo in err and err.count("\n") == 1 and len(err) < 250
    assert re.search(r"'\.\.\. \(500[0-9] characters\)", err)


@pytest.mark.parametrize("argv, err", [
    (("profile", "x"), "argument level: invalid int value: 'x'"),
    (("find-eta", "--level", "5", "--bound", "1.5"),
     "argument --bound: invalid int value: '1.5'"),
    (("find-eta", "--level", "5", "--bound", "1", "--constraints", "1<x"),
     "bad constraint '1<x': Invalid literal for Fraction: 'x'"),
    (("expand", "--terms", "0", "--eta", "1:-1"),
     "argument --terms: want an integer >= 1, got '0'"),
    # Fraction() refused it as "Fraction(1, 0)"
    (("reduce", "--basis", "level-5", "--target", "poly:1,1/0"),
     "bad poly target 'poly:1,1/0', want poly:c0,c1,...: value has a zero "
     "denominator: '1/0'"),
    # the class was read by int(): "invalid literal for int() with base 10"
    (("find-eta", "--level", "5", "--bound", "1", "--constraints", "==1"),
     "bad constraint '==1': invalid literal '': want ASCII digits "
     "without '_'"),
    (("find-eta", "--level", "5", "--bound", "1", "--constraints", "1=<1"),
     "bad constraint '1=<1': invalid literal '1=': want ASCII digits "
     "without '_'"),
])
def test_refused_short_values_echoed_in_full(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


def test_echo_limit_is_forty_characters():
    assert shown("9" * 40) == repr("9" * 40)
    assert shown("9" * 41) == f"{'9' * 40!r}... (41 characters)"
    # any other value is cut on its repr
    assert shown([10] + [1] * 12) == repr([10] + [1] * 12)  # 40 characters
    assert shown([100] + [1] * 12) == ("[100, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, "
                                       "1... (41 characters)")


@pytest.mark.parametrize("keys, value, where, echo", [
    (("families", 0, "schedule"), list(range(20000)),
     "families[0]: schedule must be a JSON object", "[0, 1, 2,"),
    (("bases", 0, "ys"), {str(k): k for k in range(20000)},
     "bases[0]: ys must be a JSON list", "{'0': 0, '1': 1,"),
], ids=["schedule-list", "ys-object"])
def test_catalog_refusal_echoes_a_long_value_by_its_start(
        tmp_path, capsys, keys, value, where, echo):
    # each of these used to repeat the value in full, on one line of
    # 128,946 and 297,825 bytes
    path = _edited_catalog(tmp_path, keys, value)
    code, out, err = run(capsys, "--catalog", str(path), "classify",
                         "--family", "p-5")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:{where}, got {echo}")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert re.search(r"\.\.\. \([0-9]{6} characters\)\n$", err)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int digits before Python 3.10.7")
def test_output_integers_past_the_digit_limit(capsys, monkeypatch):
    # str(int) refuses an int of more digits than the limit, and a few
    # coefficients of 1/eta^200 below q^3000 pass 640: under that limit this
    # command ended in "internal error: ValueError", exit 3
    argv = ("expand", "--eta", "1:-200", "--terms", "3000")
    # the series is expanded once, and written anew by each run
    monkeypatch.setattr(cli, "expand_at_infinity",
                        lru_cache(cli.expand_at_infinity))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # no limit
        want = run(capsys, *argv), run(capsys, "--json", *argv)
        sys.set_int_max_str_digits(640)
        got = run(capsys, *argv), run(capsys, "--json", *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want and want[0][0] == want[1][0] == 0
    assert max(map(len, re.findall("[0-9]+", want[0][1]))) > 640


def test_rational_values_with_exponents_still_read(capsys):
    code, doc, _ = run_json(capsys, "find-eta", "--level", "5", "--bound",
                            "6", "--constraints", "1<=1e5,5>=1")
    assert code == 0 and len(doc["results"]) == 1
    _, half, _ = run_json(capsys, "reduce", "--target", "poly:0.5",
                          "--basis", "level-5")
    _, ratio, _ = run_json(capsys, "reduce", "--target", "poly:1/2",
                           "--basis", "level-5")
    assert half["coeffs"] == ratio["coeffs"] != []


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


def _search_sweep() -> list[list[str]]:
    """find-eta --json over levels 1-60, 72, 84, 90, 96 and 120, bounds 1-3
    and six constraint patterns: the searches, and the refusals of boxes
    past MAX_SEARCH_BOX."""
    argvs = []
    for level in (*range(1, 61), 72, 84, 90, 96, 120):
        for bound in (1, 2, 3):
            for constraints in (None, "1<0", "1==-1", "1==-2",
                                f"1<0,{level}>=1", f"1>=-3,{level}<=2"):
                argv = ["--json", "find-eta", "--level", str(level),
                        "--bound", str(bound)]
                argvs.append(argv + (["--constraints", constraints]
                                     if constraints else []))
    return argvs


# sha256 over (argv, exit code, stdout, stderr) of every sweep invocation
SEARCH_SWEEP_DIGEST = \
    "285754bfa45f8332e4d8a9bb9a4c35a09426cda87dce9292175ca2c5c697ace3"


def test_find_eta_sweep_byte_identical(capsys):
    digest, found = hashlib.sha256(), 0
    argvs = _search_sweep()
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        found += out.count('"quotient": ')
        digest.update(json.dumps([argv, code, out, err]).encode())
    assert (len(argvs), found) == (1170, 26141)
    assert digest.hexdigest() == SEARCH_SWEEP_DIGEST


def _find_eta_reference(level: int, bound: int, constraints: str | None,
                        found: list, as_json: bool) -> str:
    """find-eta's stdout written the way the command first wrote it: each
    result's orders as Fractions (cusp_order_vector), each entry a dict,
    the whole report through the generic _json_text walk."""
    vectors = [cusp_order_vector(f, level) for f in found]
    if as_json:
        entries = [{"quotient": f.to_json_obj(),
                    "orders": {str(c): str(o) for c, o in vec.orders}}
                   for f, vec in zip(found, vectors)]
        return cli._json_text({"schema_version": 1, "command": "find-eta",
                               "level": level, "bound": bound,
                               "results": entries}) + "\n"
    lines = [f"{len(found)} quotient(s) on Gamma_0({level}) with "
             f"|r| <= {bound}"
             + (f" subject to {constraints}" if constraints else "")]
    for f, vec in zip(found, vectors):
        orders = ", ".join(f"ord[c={c}]={o}" for c, o in vec.orders)
        lines.append(f"  {f}   {orders}")
    return "\n".join(lines) + "\n"


def _find_eta_both(capsys, level, bound, constraints, found):
    """Run find-eta in --json and in text; assert each stdout is the
    reference's for the quotients `found`."""
    argv = ["find-eta", "--level", str(level), "--bound", str(bound)]
    if constraints is not None:
        argv += ["--constraints", constraints]
    for prefix in (["--json"], []):
        want = _find_eta_reference(level, bound, constraints, found,
                                   bool(prefix))
        assert run(capsys, *prefix, *argv) == (0, want, "")


# the least level with 1, 2, ..., 16 divisors
LEVELS_BY_DIVISORS = (1, 2, 4, 6, 16, 12, 64, 24, 36, 48, 1024, 60, 4096,
                      192, 144, 120)
ORDER_CONSTRAINTS = st.tuples(
    st.sampled_from(["==", "<=", ">=", "<", ">"]),
    st.one_of(st.integers(-4, 4).map(Fraction),
              st.sampled_from([Fraction(-3, 2), Fraction(1, 4),
                               Fraction(-1, 3), Fraction(5, 2)])))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_find_eta_matches_reference_on_searches(capsys, data):
    # levels with 1 to 15 divisors, each at a bound whose box the search
    # takes, with and without drawn order constraints
    level = data.draw(st.sampled_from(LEVELS_BY_DIVISORS[:15]), label="level")
    dim = len(divisors(level)) - 1
    top = max([1] + [b for b in (2, 3) if (2 * b + 1) ** dim <= 10 ** 6])
    bound = data.draw(st.integers(1, top), label="bound")
    pattern = data.draw(st.lists(st.tuples(
        st.sampled_from(divisors(level)), ORDER_CONSTRAINTS), max_size=3),
        label="constraints")
    constraints = ",".join(f"{c}{op}{v}" for c, (op, v) in pattern) or None
    found = search_eta_quotients(level, parse_constraints(constraints or ""),
                                 bound)
    _find_eta_both(capsys, level, bound, constraints, found)


@pytest.mark.parametrize("level, bound, constraints", [
    (6, 1, None),  # the trivial quotient alone: "r": {}
    (12, 2, "1<0,2>=1,3>=1,4>=1,6>=1,12>=1"),  # no result: "results": []
    (1, 3, None),  # one divisor, one cusp class
    (36, 3, None),  # 2201 quotients, the first of them trivial
    (30, 2, "1==-2"),  # negative, zero and positive orders
    (7, 4, "7>=1/2"),  # a fractional constraint value
])
def test_find_eta_matches_reference_at_the_edges(capsys, level, bound,
                                                 constraints):
    found = search_eta_quotients(level, parse_constraints(constraints or ""),
                                 bound)
    _find_eta_both(capsys, level, bound, constraints, found)


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_find_eta_renders_any_quotients_as_the_reference(capsys, data):
    # the search returns only valid quotients, whose orders are integers;
    # handed any quotients over the divisors of the level (levels with 1 to
    # 16 divisors, exponents up to 40), the command writes their fractional
    # orders as the reference does too, and no quotient or the trivial one
    level = data.draw(st.sampled_from(LEVELS_BY_DIVISORS), label="level")
    exponents = st.dictionaries(st.sampled_from(divisors(level)),
                                st.integers(-40, 40), max_size=6)
    found = [EtaQuotient(level, r) for r in data.draw(
        st.lists(exponents, min_size=1, max_size=6), label="quotients")]
    for quotients in ([], [EtaQuotient(level, {})], found):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "search_eta_quotients",
                          lambda *_: list(quotients))
            _find_eta_both(capsys, level, 1, None, quotients)


def test_find_eta_zero_denominator_constraint_refused(capsys):
    # used to end as "internal error: ZeroDivisionError", exit 3, then as
    # "Fraction(1, 0)" in Python's words
    code, out, err = run(capsys, "find-eta", "--level", "10", "--constraints",
                         "1<=1/0", "--bound", "1")
    assert (code, out) == (2, "")
    assert err == ("error: bad constraint '1<=1/0': value has a zero "
                   "denominator: '1/0'\n")


@pytest.mark.parametrize("argv, option", [
    (("profile",), "level"),
    (("classify", "--level"), "--level"),
    (("find-eta", "--bound", "1", "--level"), "--level"),
    (("find-eta", "--level", "5", "--bound"), "--bound"),
    (("verify", "--family", "p-5", "--nmax", "1", "--alpha"), "--alpha"),
], ids=["profile-level", "classify-level", "find-eta-level", "find-eta-bound",
        "verify-alpha"])
def test_int_options_refuse_too_many_digits(capsys, argv, option):
    # each used to call a decimal of 5000 digits an "invalid int value",
    # as the integer options with a lower bound no longer did
    too_large = (f"error: argument {option}: too large: want an integer of "
                 f"at most 4300 digits, got 5000 digits\n")
    for text in (NINES, "-" + NINES, " +" + NINES + " "):
        assert run(capsys, *argv, text) == (2, "", too_large)
    # leading zeros are no digits, as for every integer option
    parse = cli.build_parser().parse_args
    assert getattr(parse([*argv, "-" + "0" * 5000 + "7"]),
                   option.lstrip("-")) == -7


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


_MISMATCH = ("family p-5: recorded depth-1 identity disagrees with the "
             "sliced construction\n")
_P5_L1 = ["reduce", "--target", "family:p-5:L1", "--basis", "level-5"]
_P5_L1_SCALE = ("families", 0, "tower_identities", "1", 0, "scale")


def test_corrupted_identity_in_named_catalog_is_usage_error(tmp_path, capsys,
                                                            monkeypatch):
    # a recorded tower identity that disagrees with the sliced construction,
    # in a catalog named by the flag or the environment, is bad input: exit
    # 2, naming the file, never a silent wrong answer
    path = _edited_catalog(tmp_path, _P5_L1_SCALE, "6")
    want = (2, "", f"error: {path}: {_MISMATCH}")
    assert run(capsys, "--catalog", str(path), *_P5_L1) == want
    monkeypatch.setenv("CUSP_LEDGER_CATALOG", str(path))
    assert run(capsys, *_P5_L1) == want


def test_corrupted_shipped_identity_is_internal_inconsistency(tmp_path, capsys,
                                                              monkeypatch):
    # the same corruption in the catalog read by default is a bug: exit 3
    path = _edited_catalog(tmp_path, _P5_L1_SCALE, "6")
    monkeypatch.setattr(cli, "shipped_catalog_path", lambda: path)
    monkeypatch.delenv("CUSP_LEDGER_CATALOG", raising=False)
    assert run(capsys, *_P5_L1) == (3, "", f"internal inconsistency: "
                                           f"{_MISMATCH}")


def test_catalog_refusals_spell_the_path_as_given(tmp_path, capsys,
                                                  monkeypatch):
    # a load error, a wrong identity and an unreadable file all name the
    # catalog as typed, not as pathlib would respell it
    monkeypatch.chdir(tmp_path)
    _edited_catalog(tmp_path, ("families", 2, "level"), 0)
    code, out, err = run(capsys, "--catalog", ".//catalog.json", "classify",
                         "--family", "p-11")
    assert (code, out) == (2, "")
    assert err.startswith("error: .//catalog.json:families[2]: family p-11: "
                          "level must be")
    _edited_catalog(tmp_path, _P5_L1_SCALE, "6")
    assert run(capsys, "--catalog", ".//catalog.json", *_P5_L1) == (
        2, "", f"error: .//catalog.json: {_MISMATCH}")
    assert run(capsys, "--catalog", ".//nope//x.json", *_P5_L1) == (
        2, "", "error: cannot read catalog .//nope//x.json: [Errno 2] No "
        "such file or directory: './/nope//x.json'\n")


def test_expand_nonpositive_delta_refused(capsys):
    # validity used to pass (it reads only the divisors of the level) and
    # the expansion printed a series with orders -5/24 and -1/24
    code, out, err = run(capsys, "expand", "--eta=-1:1", "--at-cusp", "zero",
                         "--level", "5")
    assert (code, out) == (2, "")
    assert err == "error: divisor -1 must be a positive integer\n"


@pytest.mark.parametrize("argv", [
    ("expand", "--eta", "0:1"),
    ("reduce", "--target", "eta:0:1", "--basis", "level-5"),
], ids=["expand", "reduce"])
def test_zero_divisor_refused_before_its_level(capsys, argv):
    # the level of "0:1" is the lcm of its divisors, 0: the refusal used to
    # be "level must be positive, got 0", naming a level nobody gave
    assert run(capsys, *argv) == (
        2, "", "error: divisor 0 must be a positive integer\n")


def test_find_eta_zero_bound_refused(capsys):
    assert run(capsys, "find-eta", "--level", "6", "--bound", "0") == (
        2, "", "error: search bound must be >= 1\n")


def test_parser_built_once(capsys):
    from cusp_ledger.cli import build_parser

    assert run(capsys, "profile", "5")[0] == 0
    assert build_parser() is build_parser()


def _argparse_reads(argv) -> dict | None:
    """vars() of argparse's namespace for argv, or None where argparse
    refuses it (or, for -h, prints the help and exits)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except (CatalogError, SystemExit):
        return None


def _fast_path_reads(argv) -> bool:
    """Whether cli._fast_parse reads argv, checking that it reads what
    argparse reads, and declines whatever argparse refuses."""
    fast = cli._fast_parse(argv)
    assert fast is None or vars(fast) == _argparse_reads(argv), argv
    return fast is not None


def test_fast_path_reads_every_corpus_argv_argparse_accepts():
    declined = [argv for argv in _corpus() if not _fast_path_reads(argv)]
    # the three sizes one past a work cap, in text and --json: argparse
    # refuses each in its own words
    assert len(declined) == 6
    assert all(_argparse_reads(argv) is None for argv in declined)


# one op of each slot shape of the benchmark's workloads (perfbench/
# workloads.py), anchors included
WORKLOAD_ARGVS = [
    ("verify", "--family", "p-5", "--alpha", "3", "--nmax", "20000"),
    ("verify", "--family", "p-11", "--alpha", "2", "--nmax", "2600"),
    ("--jobs", "2", "verify", "--family", "p-11", "--alpha", "1",
     "--nmax", "2551"),
    ("verify", "--family", "p-7", "--alpha", "2", "--nmax", "2570",
     "--beta", "3"),
    ("reduce", "--target", "family:p-5:L2", "--basis", "level-5",
     "--terms", "300"),
    ("reduce", "--target", "family:pd-5:L1", "--basis", "level-10",
     "--terms", "200", "--prime", "5"),
    ("reduce", "--target", "poly:-3,0,9,2", "--basis", "level-7",
     "--terms", "100"),
    ("reduce", "--target", "poly:1,-9,4,-1", "--basis", "demo-genus1",
     "--terms", "95", "--prime", "7"),
    ("reduce", "--target", "pole:3", "--basis", "demo-genus1",
     "--terms", "40"),
    ("profile", "30"),
    ("classify", "--level", "30"),
    ("find-eta", "--level", "30", "--constraints", "1<0", "--bound", "2"),
    ("--jobs", "2", "find-eta", "--level", "24", "--bound", "2"),
    ("find-eta", "--level", "12", "--constraints",
     "1<0,2>=1,3>=1,4>=1,6>=1,12>=1", "--bound", "3"),
    ("find-eta", "--level", "45", "--constraints", "1==-2", "--bound", "3"),
    ("find-eta", "--level", "81", "--bound", "3"),
]


@pytest.mark.parametrize("argv", WORKLOAD_ARGVS)
def test_fast_path_reads_every_workload_op(argv):
    assert _fast_path_reads(["--json", *argv])


# well-formed ops of every option the workloads leave out, each subcommand's
# options after it in another order
OTHER_OPS = [
    ("--catalog", "x.json", "classify", "--family", "p-5", "--prime", "5"),
    ("expand", "--eta", "5:6,1:-6", "--at-cusp", "zero", "--level", "10",
     "--terms", "15", "--json"),
    ("expand", "--family", "p-5", "--jobs", "1", "--at-cusp", "infinity"),
    ("reduce", "--guard", "3", "--basis", "level-5", "--target", "poly:1"),
    ("profile", "30", "--json", "--catalog", "x.json"),
]
FLAGS = [*cli._COMMON, *sorted({flag for *_, options in cli._COMMANDS.values()
                                for flag in options})]
VALUES = ["", "-1", "p-5", "zero", "9" * 5000, "30", "2", "infinity",
          "level-5", "poly:1,2", "1<0"]
TOKENS = st.sampled_from([
    *cli._COMMANDS, *FLAGS, *VALUES, "--lev", "--fam", "--js", "--at",
    "--level=30", "--family=p-5", "--terms=5", "-h", "--help", "--"])


def _pieces(op) -> list[tuple[str, ...]]:
    """op cut into its pieces: each flag but --json with its value, and
    each other token alone."""
    tokens = iter(op)
    return [(token, next(tokens)) if token.startswith("--")
            and token != "--json" else (token,) for token in tokens]


def _shuffled(op):
    """The pieces of op, those after its subcommand in a drawn order."""
    pieces = _pieces(op)
    at = 1 + next(i for i, piece in enumerate(pieces)
                  if piece[0] in cli._COMMANDS)
    return st.permutations(pieces[at:]).map(lambda rest: pieces[:at] + rest)


def _joined(pieces) -> list[str]:
    return [token for piece in pieces for token in piece]


def _edited(pieces, at, tokens) -> list[str]:
    """The argv of pieces, the piece at `at` replaced by tokens (none takes
    it out); an `at` past the end puts them on."""
    return _joined([*pieces[:at], tokens, *pieces[at + 1:]])


def _revalued(pieces, at, value) -> list[str]:
    """The argv of pieces, with the last token of the piece at `at` (an
    option's value, or a token alone) replaced by value."""
    return _joined([*pieces[:at], (*pieces[at][:-1], value),
                    *pieces[at + 1:]])


WELL_FORMED = st.sampled_from(WORKLOAD_ARGVS + OTHER_OPS).flatmap(_shuffled)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(WELL_FORMED)
def test_fast_path_reads_well_formed_argv_in_any_order(pieces):
    assert _fast_path_reads(_joined(pieces))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.builds(_edited, WELL_FORMED, st.integers(0, 8), st.one_of(
        st.lists(TOKENS, max_size=2),
        st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)))),
    WELL_FORMED.flatmap(lambda pieces: st.builds(
        _revalued, st.just(pieces), st.integers(0, len(pieces) - 1),
        st.sampled_from(VALUES))),
    # pieces of a command line in any order
    st.lists(st.one_of(
        st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
        st.tuples(TOKENS)), max_size=9).map(_joined)))
def test_fast_path_reads_drawn_argv_as_argparse(argv):
    _fast_path_reads(argv)


@pytest.mark.parametrize("argv", [
    ["classify", "--lev", "30"],
    ["classify", "--level=30"],
    ["profile", "--", "30"],
    ["verify", "--family", "p-5", "--alpha", "-1", "--nmax", "5"],
    ["profile", "30", "--json", "--json"],
    ["--catalog", "a.json", "profile", "30", "--catalog", "b.json"],
    ["profile", "-5"],
])
def test_fast_path_leaves_other_spellings_to_argparse(argv):
    # argparse reads each of these; the fast path reads none
    assert cli._fast_parse(argv) is None and _argparse_reads(argv)


@pytest.mark.parametrize("argv", [
    ["profile", "30", "classify", "--level", "5"],
    ["classify", "--level", "5", "profile", "5"],
])
def test_fast_path_reads_one_subcommand_only(argv):
    assert not _fast_path_reads(argv)


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


def test_catalog_is_read_as_utf8_in_any_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259, section 8.1): under the C locale, with no
    # UTF-8 mode and no locale coercion, a non-ASCII note used to be read
    # as ASCII and refused with exit 2
    doc = json.loads(shipped_catalog_path().read_text(encoding="utf-8"))
    [family] = [f for f in doc["families"] if f["name"] == "pd-5"]
    family["notes"] = family["notes"].replace("Rodseth", "R\u00f8dseth")
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert "R\u00f8dseth".encode() in path.read_bytes()
    root = Path(cusp_ledger.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "CUSP_LEDGER_CATALOG"}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, str(root), "--catalog", str(path),
         "verify", "--family", "p-5", "--alpha", "1", "--nmax", "50"],
        capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("argv, want", [
    (["profile", "1" * 700], "argument level: too large: want an integer of "
     "at most 640 digits, got 700 digits"),
    (["reduce", "--target", "poly:" + "1" * 700, "--basis", "level-5"],
     "want poly:c0,c1,...: too large: want a numerator and a denominator of "
     "at most 640 digits"),
], ids=["profile", "reduce"])
def test_digit_limit_follows_a_lower_interpreter_limit(argv, want):
    # int() and Fraction() read at most 640 digits here: the first was
    # refused in Python's words, "Exceeds the limit (640 digits)", the
    # second as "Invalid literal for Fraction"
    root = Path(cusp_ledger.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}
    proc = subprocess.run([sys.executable, "-c", RUN_CLI, str(root), *argv],
                          capture_output=True, env=env, timeout=60,
                          text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and want in proc.stderr, \
        proc.stderr[:300]


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


@pytest.mark.parametrize("basis, edit, want", [
    ("demo-genus1",
     lambda b: b["ys"][0]["series"]["terms"][0].__setitem__(0, -96),
     "basis not order-complete: companion pole orders collide mod 2 "
     "(orders [0, 4])"),
    ("level-5", lambda b: b["x"]["eta"].__setitem__("r", {"5": -6, "1": 6}),
     "x must have a pole at the zero cusp"),
    ("demo-genus1", lambda b: b.__setitem__("ys", []),
     "basis not order-complete: companion pole orders cover 1 of 2 residue "
     "classes mod 2"),
    ("level-5", lambda b: b.__setitem__(
        "ys", [{"eta": {"M": 5, "r": {"5": 1, "1": -1}}}]),
     "multiplier is not rational: prod delta^r is not a square"),
    ("level-7", lambda b: b.pop("level"),
     "x is an eta quotient, which needs the basis level"),
    ("level-10", lambda b: b["z"]["eta"].__setitem__("M", 20),
     "quotient level 20 does not divide N=10"),
    # a zero of order 3 at the zero cusp: refused only when a reduction
    # expanded z, or at --terms 2 even for a poly: target
    ("level-10",
     lambda b: b["z"]["eta"].__setitem__("r", {"1": 12, "2": -8, "5": -4}),
     "z must have a pole at the zero cusp"),
    ("level-5", lambda b: b.pop("x"), "missing field 'x'"),
], ids=["collision", "no-pole", "cover", "not-on-the-curve", "no-level",
        "z-off-the-curve", "z-no-pole", "no-x"])
def test_catalog_basis_pole_orders_checked_at_load(tmp_path, capsys, basis,
                                                  edit, want):
    # each used to load, so every other command accepted the catalog, and
    # failed only when the basis was built: without the catalog path or the
    # basis, or (no level) as "internal error: TypeError", exit 3
    index = ["level-5", "level-7", "level-10", "demo-genus1"].index(basis)
    path = _edited_catalog(tmp_path, ("bases", index), edit)
    refused = (2, "", f"error: {path}:bases[{index}]: {want}\n")
    assert run(capsys, "--catalog", str(path), "reduce", "--target",
               "poly:1,2", "--basis", basis) == refused
    assert _verify_p5(capsys, path) == refused


# (keys of the edited field, value, error after the catalog path): a name
# that is no string used to end as "internal error: TypeError" (list, dict)
# or load under a name no lookup finds
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
], ids=["family-name-list", "family-name-object", "family-name-null",
        "family-name-bool", "basis-name-list", "basis-name-int"])
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
    # each used to end as "internal error: ZeroDivisionError", exit 3, and
    # then as the refusal "Fraction(1, 0)", which named no field
    path = _edited_catalog(tmp_path, keys, value)
    code, out, err = _verify_p5(capsys, path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}:{where}: " + {
        "1/0": "scale has a zero denominator: '1/0'",
        "0": "denominator must be nonzero, got '0'"}[value] + "\n"


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
     ":families[0].schedule: key '+1' is not a canonical ASCII decimal"),
    (("bases", 1, "name"), "level-5", ": duplicate basis names"),
    (("families", 0, "tower_identities", "1", 0, "scale"), 0.5,
     ":families[0]: scale must be an integer or an ASCII decimal "
     "string 'p' or 'p/q', got 0.5"),
    (("families", 0, "tower_identities", "1", 0, "scale"), True,
     ":families[0]: scale must be an integer or an ASCII decimal "
     "string 'p' or 'p/q', got True"),
    (("bases", 3, "x", "series", "terms", 0, 1), 1.5,
     ":bases[3]: numerator must be an integer or an ASCII decimal "
     "string 'p' or 'p/q', got 1.5"),
    (("bases", 3, "x", "series", "terms", 0, 1), True,
     ":bases[3]: numerator must be an integer or an ASCII decimal "
     "string 'p' or 'p/q', got True"),
    (("bases", 3, "x", "series", "terms", 0, 2), 2.9,
     ":bases[3]: denominator must be an integer or an ASCII decimal "
     "string 'p' or 'p/q', got 2.9"),
    # int() reads the Arabic-Indic digit five as 5: the scale made p-5's
    # depth-1 chart 5 x, exit 0
    (("families", 0, "tower_identities", "1", 0, "scale"), "\u0665",
     ":families[0]: scale must be an integer or an ASCII decimal "
     "string 'p' or 'p/q', got '\u0665'"),
    (("bases", 3, "x", "series", "terms", 0, 1), "\u0665",
     ":bases[3]: numerator must be an integer or an ASCII decimal "
     "string 'p' or 'p/q', got '\u0665'"),
    (("families", 0, "generator", "r"), {"+1": -1},
     ":families[0]: key '+1' is not a canonical ASCII decimal"),
    (("families", 0, "generator", "r"), {"1_0": -1},
     ":families[0]: key '1_0' is not a canonical ASCII decimal"),
    (("families", 0, "prefactors", "1", "r"), {" 1": 1},
     ":families[0]: key ' 1' is not a canonical ASCII decimal"),
    (("families", 0, "schedule"), {"1": {"modulus": 1, "beta": 1},
                                   "01": {"modulus": 1, "beta": 2}},
     ":families[0].schedule: key '01' is not a canonical ASCII decimal"),
    (("families", 0, "multipliers"), {"-0": {"qpow": 0, "r": {}}},
     ":families[0].multipliers: key '-0' is not a canonical ASCII decimal"),
    (("families", 0, "generator", "r"), {"1": -1, "01": 5},
     ":families[0]: key '01' is not a canonical ASCII decimal"),
    (("families", 0, "generator", "r"), {"\u0661": -1},
     ":families[0]: key '\u0661' is not a canonical ASCII decimal"),
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
    # int() refused each in Python's words, "Exceeds the limit (4300
    # digits) for integer string conversion", naming no field
    (("families", 0, "generator", "r"), {NINES: -1},
     ":families[0]: too large: want r keys of at most 4300 digits, got "
     "5000 digits"),
    (("families", 0, "schedule"), {NINES: {"modulus": 1, "beta": 1}},
     ":families[0].schedule: too large: want schedule keys of at most 4300 "
     "digits, got 5000 digits"),
    (("families", 0, "tower_identities", "1", 0, "scale"), NINES,
     ":families[0]: too large: want a scale of at most 4300 digits, got "
     "5000 digits"),
    (("families", 0, "tower_identities", "1", 0, "scale"), "1/" + NINES,
     ":families[0]: too large: want a scale of at most 4300 digits, got "
     "5000 digits"),
    (("bases", 3, "x", "series", "terms", 0, 1), NINES,
     ":bases[3]: too large: want a numerator of at most 4300 digits, got "
     "5000 digits"),
], ids=["prime-float", "prime-bool", "lam-float", "level-string",
        "residue-float", "modulus-float", "beta-zero", "exponent-float",
        "M-string", "qpow-float", "series-exponent-float", "trunc24-float",
        "signed-key", "duplicate-basis", "scale-float", "scale-bool",
        "numerator-float", "numerator-bool", "denominator-float",
        "scale-non-ascii", "numerator-non-ascii",
        "r-key-signed", "r-key-underscore", "prefactor-r-key-space",
        "schedule-key-leading-zero", "multiplier-key-minus-zero",
        "r-key-leading-zero", "r-key-non-ascii", "generator-divisor",
        "identity-level", "schema-version-future", "schema-version-zero",
        "schema-version-string", "r-key-too-large", "schedule-key-too-large",
        "scale-too-large", "scale-denominator-too-large",
        "numerator-too-large"])
def test_catalog_numbers_refused_at_load(tmp_path, capsys, keys, value, want):
    path = _edited_catalog(tmp_path, keys, value)
    code, out, err = _verify_p5(capsys, path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}{want}\n"


def _too_long(field: str) -> str:
    return f"too large: want {field} of at most 4300 digits, got 5000 digits"


@pytest.mark.parametrize("keys, want", [
    (("families", 0, "prime"), ":families[0]: " + _too_long("prime")),
    (("families", 0, "generator", "r", "1"),
     ":families[0]: " + _too_long("an exponent")),
    (("families", 0, "schedule", "1", "modulus"),
     ":families[0]: " + _too_long("modulus")),
    (("bases", 0, "level"), ":bases[0]: " + _too_long("level")),
    (("bases", 3, "x", "series", "trunc24"),
     ":bases[3]: " + _too_long("trunc24")),
    (("families", 0, "name"), ":families[0]: name must be a string, got "
     + "9" * 40 + "... (5000 characters)"),
], ids=["prime", "generator-exponent", "modulus", "basis-level", "trunc24",
        "name"])
def test_catalog_integer_past_the_digit_limit_refused(tmp_path, capsys,
                                                      keys, want):
    # a JSON integer int() cannot read: json.loads refused the whole file,
    # "not valid JSON: Exceeds the limit (4300 digits)...", naming no field
    path = _edited_catalog(tmp_path, keys, "NINES")
    path.write_text(path.read_text().replace('"NINES"', NINES))
    code, out, err = _verify_p5(capsys, path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}{want}\n"


def test_catalog_integer_past_the_digit_limit_unread_or_malformed(tmp_path,
                                                                  capsys):
    # under a key the loader ignores it loads, and an integer of 4300
    # digits beside it is read; a malformed document is still refused as
    # not valid JSON, wherever the integer stands
    doc = json.loads(shipped_catalog_path().read_text())
    doc["notes"], doc["families"][0]["schedule"]["6"]["beta"] = "N", "B"
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc).replace('"N"', "-" + NINES)
                    .replace('"B"', "9" * 4300))
    assert _verify_p5(capsys, path)[0] == 0
    for text in ('{"notes": ' + NINES + ', "families": [}',
                 '{"families": [}, "notes": ' + NINES + "}"):
        path.write_text(text)
        code, out, err = _verify_p5(capsys, path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not valid JSON: Expecting "), \
            err[:200]


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


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "p-5", "--alpha", "1", "--nmax", "50"),
    ("reduce", "--target", "family:p-5:L1", "--basis", "level-5",
     "--terms", "300"),
], ids=["verify", "reduce"])
def test_catalog_identity_term_past_the_check_refused(tmp_path, capsys, argv):
    # reduce used to blame the user's truncation ("truncation too small to
    # hold one term of the expansion"): the term starts at q^9, where the
    # 8-term check at infinity cannot see it
    identity = json.loads(shipped_catalog_path().read_text())[
        "families"][0]["tower_identities"]["1"]
    path = _edited_catalog(
        tmp_path, ("families", 0, "tower_identities", "1"),
        identity + [{"scale": "1", "eta": {"M": 5, "r": {"5": 54, "1": -54}}}])
    code, out, err = run(capsys, "--catalog", str(path), *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: {path}:families[0]: family p-5: depth-1 identity "
                   f"term eta(1t)^-54 * eta(5t)^54 starts at q^(216/24), past "
                   f"the 8-term check at infinity\n")


P5_ENTRY = json.loads(shipped_catalog_path().read_text())["families"][0]


@pytest.mark.parametrize("keys, value, want", [
    (("families", 0), {k: v for k, v in P5_ENTRY.items() if k != "prime"},
     ":families[0]: missing field 'prime'"),
    (("families", 0, "prime"), 4, ":families[0]: family p-5: 4 is not prime"),
    (("families", 0, "prime"), 7,
     ":families[0]: family p-5: level must be lcm(generator level 1, "
     "prime 7) = 7, got 5"),
    (("families", 0, "generator", "M"), 7,
     ":families[0]: family p-5: level must be lcm(generator level 7, "
     "prime 5) = 35, got 5"),
    (("families", 2, "level"), 0,
     ":families[2]: family p-11: level must be lcm(generator level 1, "
     "prime 11) = 11, got 0"),
    (("families", 2, "level"), -55,
     ":families[2]: family p-11: level must be lcm(generator level 1, "
     "prime 11) = 11, got -55"),
    # a multiple of the family's level, which 5 and the generator's level 1
    # divide, is still not the level of its curve
    *((("families", 0, "level"), level,
       f":families[0]: family p-5: level must be lcm(generator level 1, "
       f"prime 5) = 5, got {level}") for level in (10, 25, 35)),
], ids=["no-prime", "prime-4", "prime-off-level", "generator-off-level",
        "level-0", "level-negative", "level-10", "level-25", "level-35"])
def test_catalog_family_refused_at_load(tmp_path, capsys, keys, value, want):
    path = _edited_catalog(tmp_path, keys, value)
    assert _verify_p5(capsys, path) == (2, "", f"error: {path}{want}\n")


def test_reduce_family_target_without_its_identity_refused(tmp_path, capsys):
    path = _edited_catalog(tmp_path, ("families", 0, "tower_identities"),
                           {"1": P5_ENTRY["tower_identities"]["1"]})
    assert run(capsys, "--catalog", str(path), "reduce", "--target",
               "family:p-5:L2", "--basis", "level-5") == (
        2, "", "error: family p-5: no recorded identity for depth 2\n")


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


# text over one character of each kind the encoder escapes or passes:
# ASCII, quotes, backslashes, control characters, non-ASCII in and past the
# BMP, lone surrogates
JSON_TEXT = st.text(st.sampled_from(
    'a/ "\\\x00\b\f\n\r\t\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'),
    max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 300, 10 ** 300)
    | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=16)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
@example([[], {}, (), {"": [{}]}, True, False, -1, None])
def test_json_writer_matches_stdlib_indent_encoder(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1: "a"},
                                   [{"a": (0.0,)}], {"k": Fraction(1)}])
def test_json_writer_refuses_what_json_lacks(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_report_value_without_json_form_is_internal_error(capsys,
                                                          monkeypatch):
    # a float or a Fraction in a report is a bug, never printed
    monkeypatch.setattr(cli, "cmd_profile", lambda args: cli._emit(
        args, {"order": Fraction(1, 2)}, ""))
    assert run(capsys, "--json", "profile", "5") == (
        3, "", "internal error: TypeError: Object of type Fraction is not "
               "JSON serializable\n")


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
    "2417bdd0b41a17bed2842788b30b6e03c441d67b3dfe09531ec1f7b8f8ba6f0e"


def test_cli_corpus_byte_identical(capsys, monkeypatch):
    monkeypatch.delenv("CUSP_LEDGER_CATALOG", raising=False)
    digest = hashlib.sha256()
    for argv in _corpus():
        code, out, err = run(capsys, *argv)
        digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == CORPUS_DIGEST


def _reduce_edges() -> list[list[str]]:
    """reduce at the small truncations where the window refusals live, for
    every family target and one target of each other kind: each at 13
    sizes, with and without --prime, in text and --json."""
    pairs = [("family:p-5:L1", "level-5"), ("family:p-5:L2", "level-5"),
             ("family:p-7:L1", "level-7")]
    pairs += [(target, "level-10") for target in (
        "family:pd-5:L1", "poly:1,2,3", "eta:1:-4,2:2,5:4,10:-2", "pole:2")]
    argvs = []
    for target, basis in pairs:
        for terms in (1, 2, 5, *range(8, 16), 24, 40):
            argv = ["reduce", "--target", target, "--basis", basis,
                    "--terms", str(terms)]
            argvs += [argv, argv + ["--prime", "5"]]
    return [prefix + argv for argv in argvs for prefix in ([], ["--json"])]


# sha256 over (argv, exit code, stdout, stderr) of every edge invocation
REDUCE_EDGES_DIGEST = \
    "82a8236e3ac33304a4ae6d344f38ab84ecbaa90854a58dfff66c4b3751baea1c"


def test_reduce_edges_byte_identical(capsys, monkeypatch):
    monkeypatch.delenv("CUSP_LEDGER_CATALOG", raising=False)
    argvs = _reduce_edges()
    assert len(argvs) == 364
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == REDUCE_EDGES_DIGEST


# a command run with the package on its path: cusp-ledger ARGV
RUN_CLI = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
           "from cusp_ledger.cli import entry; entry()")


@pytest.mark.parametrize("argv, code", [
    (["profile", "30"], 0),
    (["--json", "find-eta", "--level", "30", "--constraints", "1<0",
      "--bound", "2"], 0),  # 43 KB
    (["verify", "--family", "p-5", "--alpha", "1", "--nmax", "200",
      "--beta", "2"], 1),
])
def test_closed_stdout_keeps_the_exit_code(argv, code):
    # a reader that stops early is no fault of the command: it keeps its
    # own exit code, not 3 for a bug, and writes nothing to stderr
    root = Path(cusp_ledger.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "CUSP_LEDGER_CATALOG"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-c", RUN_CLI, str(root),
                               *argv], stdout=write, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, b"")


def test_parse_constraints_round_trip():
    cons = parse_constraints("1==-1, 5>=1")
    assert cons == [OrderConstraint(1, "==", Fraction(-1)),
                    OrderConstraint(5, ">=", Fraction(1))]
    with pytest.raises(EtaError):
        parse_constraints("5!!2")


def test_parse_rational_caps_digits_before_building():
    # a numerator or denominator of more than MAX_INT_DIGITS digits as
    # written, the exponent counting, is refused before Fraction() builds it
    cap = MAX_INT_DIGITS
    assert parse_rational(f"1e{cap - 1}") == 10 ** (cap - 1)
    assert parse_rational(f" -1e-{cap - 1}") == Fraction(-1, 10 ** (cap - 1))
    assert parse_rational(f"0.5e{cap - 2}") == 5 * 10 ** (cap - 3)
    assert parse_rational("9" * cap + "/" + "7" * cap) \
        == Fraction(int("9" * cap), int("7" * cap))
    assert parse_rational("1e5") == 100_000
    assert parse_rational("0.5") == parse_rational("1/2") == Fraction(1, 2)
    for text in (f"1e{cap}", f"1e-{cap}", f"0.5e{cap - 1}", "1" * (cap + 1),
                 "1/" + "1" * (cap + 1), "1." + "0" * cap,
                 "1e" + "9" * 5000, "1e-" + "9" * 5000, "1e100000000",
                 f" -1_0e{cap - 1} "):
        with pytest.raises(ValueError, match="too large"):
            parse_rational(text)
    with pytest.raises(ValueError, match="Invalid literal"):
        parse_rational("abc")
    # Fraction() refused it as "Fraction(1, 0)", a ZeroDivisionError
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
