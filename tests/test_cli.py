"""CLI behaviour: exit codes, JSON schema, text output."""

import json

import pytest

from cusp_ledger.cli import main


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


def test_classify_level_zero_refused_by_profile(capsys):
    code, _, err = run(capsys, "classify", "--level", "0")
    assert code == 2 and "positive integer" in err


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


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    import cusp_ledger.cli as cli

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


def test_find_eta_nonpositive_level_refused(capsys):
    for level in ("0", "-6"):
        code, out, err = run(capsys, "find-eta", "--level", level,
                             "--bound", "1")
        assert code == 2 and out == ""
        assert err == f"error: level must be positive, got {level}\n"


def test_find_eta_level5(capsys):
    code, doc, _ = run_json(capsys, "find-eta", "--level", "5",
                            "--constraints", "1==-1,5>=1", "--bound", "6")
    assert code == 0
    assert len(doc["results"]) == 1
    assert doc["results"][0]["quotient"] == {"M": 5, "r": {"1": -6, "5": 6}}


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
