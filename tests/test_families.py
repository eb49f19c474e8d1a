"""Tests for congruence-family data, towers, verification, classification."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cusp_ledger import families
from cusp_ledger.curves import Record
from cusp_ledger.errors import (
    BasisError,
    CatalogError,
    EtaError,
    FamilyError,
    InternalInconsistencyError,
    TruncationError,
)
from cusp_ledger.eta import (CuspOrderVector, EtaQuotient, cusp_order_vector,
                             expand_at_infinity, expand_at_zero)
from cusp_ledger.families import (
    BasisEntry,
    Catalog,
    EtaTerm,
    FamilySpec,
    PochhammerProduct,
    ScheduleStep,
    VerificationReport,
    catalog_load,
    catalog_loads,
    certified_identity_chart,
    classify,
    coefficient_series,
    json_field,
    json_key,
    json_ratio,
    shipped_catalog_path,
    tower_series_direct,
    tower_series_recursive,
    verify_congruence,
)
from cusp_ledger.reduction import localize_reduce, reduce_genus0, valuation_table
from cusp_ledger.series import QSeries, valuation

from oracles import (
    distinct_partition_counts,
    elongated_diamond_counts,
    frobenius_two_color_counts,
    partition_counts,
)
from test_cli import CATALOG_LEAVES


@pytest.fixture(scope="module")
def catalog():
    return catalog_load(shipped_catalog_path())


# -- classification ------------------------------------------------------------

def test_classify_table_rows():
    assert classify(5).difficulty_class == "Classical"
    assert classify(7).difficulty_class == "Classical"
    assert classify(11).difficulty_class == "Classical"
    assert classify(10).difficulty_class == "Localization"
    assert classify(14).difficulty_class == "Localization"
    assert classify(20).difficulty_class == "NoSystematicMethods"


def test_classify_tedium_is_genus():
    assert classify(5).tedium_score == 0
    assert classify(11).tedium_score == 1
    assert classify(14).tedium_score == 1
    assert classify(20).tedium_score == 1


def test_classify_sporadic_cases():
    r1 = classify(1)
    assert r1.difficulty_class == "Unclassified-Sporadic"
    assert "odd-cusp-count" in r1.sporadic_flags
    r4 = classify(4)
    assert r4.difficulty_class == "Unclassified-Sporadic"
    assert set(r4.sporadic_flags) >= {"odd-cusp-count", "level-power-of-two"}
    r8 = classify(8, prime=2)
    assert r8.difficulty_class == "Unclassified-Sporadic"
    assert set(r8.sporadic_flags) >= {"level-power-of-two", "prime-two"}
    # prime 2 is sporadic even at an even cusp count
    assert classify(14, prime=2).difficulty_class == "Unclassified-Sporadic"


# -- generating coefficients ---------------------------------------------------

def test_coefficient_series_partition_family(catalog):
    spec = catalog.family("p-5")
    series = coefficient_series(spec, 30)
    p = partition_counts(30)
    assert [series.coeff_q(n) for n in range(30)] == p[:30]


def test_coefficient_series_distinct_parts(catalog):
    spec = catalog.family("pd-5")
    series = coefficient_series(spec, 30)
    pd = distinct_partition_counts(30)
    assert [series.coeff_q(n) for n in range(30)] == pd[:30]


def test_coefficient_series_diamonds_and_frobenius(catalog):
    d2 = coefficient_series(catalog.family("d2-7"), 25)
    assert [d2.coeff_q(n) for n in range(25)] == elongated_diamond_counts(24)[:25]
    cphi = coefficient_series(catalog.family("cphi2-5"), 25)
    assert [cphi.coeff_q(n) for n in range(25)] == frobenius_two_color_counts(24)[:25]


# sha256 of the compact, key-sorted JSON of coefficient_series(spec, 3000),
# recorded with the dict-based kernel that generic QSeries division provided
COEFFICIENT_SERIES_SHA256 = {
    "p-5": "4639248dc15f86a53bb90310da0bb612d04349d96f2ba060e1aa862ca533953c",
    "p-7": "4639248dc15f86a53bb90310da0bb612d04349d96f2ba060e1aa862ca533953c",
    "p-11": "4639248dc15f86a53bb90310da0bb612d04349d96f2ba060e1aa862ca533953c",
    "pd-5": "526feca720ab7ac5f14bc48bbe6c82c059d7c9b9e739341cc49d681ff66705fc",
    "d2-7": "186a827d7ad0eefaf527eb4c61508d4a9dfede824d182294ed36023dd3d620fe",
    "cphi2-5": "5eb34eb07b2a9e310198e9f9699696bbd6d27f4ccca6caeb29ca52f9188ec686",
}


def test_coefficient_series_byte_identical(catalog):
    got = {}
    for spec in catalog.families:
        obj = coefficient_series(spec, 3000).to_json_obj()
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        got[spec.name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == COEFFICIENT_SERIES_SHA256


# sha256 of the compact, key-sorted JSON of each tower series with 6 terms:
# direct at every depth with a recorded prefactor, recursive at every depth
# its recorded multipliers reach; recorded with the dict-backed QSeries
TOWER_SERIES_SHA256 = {
    "p-5:direct:1":
        "f09d74868515ace682e530099a72da3110fc63b0e93feb53b9298adda55f4cf0",
    "p-5:direct:2":
        "7f0c22f19fe9698ee6983c22916cce0c6f6a6e52dace32eb3d325a670c68d16f",
    "p-5:direct:3":
        "88d74671665e3a4756aca1a67d5f3a1339ad3eef5553f3bcef4b952ee1d72980",
    "p-5:direct:4":
        "cd13014609a8a4c9164a625e1be4b97b590e5910bac838013f0b3d29de85974d",
    "p-5:recursive:2":
        "7f0c22f19fe9698ee6983c22916cce0c6f6a6e52dace32eb3d325a670c68d16f",
    "p-5:recursive:3":
        "88d74671665e3a4756aca1a67d5f3a1339ad3eef5553f3bcef4b952ee1d72980",
    "p-5:recursive:4":
        "cd13014609a8a4c9164a625e1be4b97b590e5910bac838013f0b3d29de85974d",
    "p-7:direct:1":
        "98ea6ebae191be4603f0ebde20b1c34fe34018248148feccc5cb6bbf7f6dbb97",
    "p-7:direct:2":
        "a3605b68f8e61c9363e95f418892476e55a3e59ed3c27859a7239b9d8844610c",
    "p-7:direct:3":
        "8ecda45db672ecaa60ec90369c236ec9cee28f2819356e791dbe63fa87ac4e5c",
    "p-7:direct:4":
        "395c5ea9edbb2831536a4e7bfe2b0df670107a98b3abfecc2ad10a3483061c44",
    "p-7:recursive:2":
        "a3605b68f8e61c9363e95f418892476e55a3e59ed3c27859a7239b9d8844610c",
    "p-7:recursive:3":
        "8ecda45db672ecaa60ec90369c236ec9cee28f2819356e791dbe63fa87ac4e5c",
    "p-7:recursive:4":
        "395c5ea9edbb2831536a4e7bfe2b0df670107a98b3abfecc2ad10a3483061c44",
    "p-11:direct:1":
        "4c69c53a4ec6b7bab081bb5ac74dc3c5b02de8bcb6ddef1950a8c42fa9ed460d",
    "p-11:direct:2":
        "9b97168584e66105a0b2a76cd5208d5b60347561b673c905672ccaed6705bb30",
    "p-11:direct:3":
        "e0ff754d32e0265bddcf9b1e87088e48bed5ca17960bd6b5b251a0249b38a72c",
    "p-11:recursive:2":
        "9b97168584e66105a0b2a76cd5208d5b60347561b673c905672ccaed6705bb30",
    "p-11:recursive:3":
        "e0ff754d32e0265bddcf9b1e87088e48bed5ca17960bd6b5b251a0249b38a72c",
    "pd-5:direct:1":
        "f3db515162c86d52c018ecc4dbd3b1ecd60d9dad9533d5590ea367bc6dc6f448",
    "d2-7:direct:1":
        "ad1b188311e32815562c846f0c70417df34efd7d03c1eb6df2877608a56c5ac4",
    "d2-7:direct:2":
        "b178a2776dfeea2b5e2756070d70824e08f79ed713f80f8c3c87f3d3e25b7bb0",
    "cphi2-5:direct:1":
        "c44fc1db4ab91d083284f0d834fc5306d11be65cfb11d3580e043cde6e787c2a",
    "cphi2-5:direct:2":
        "1eba3a321c52672ec376f5e7982548047631c71f2e3d7044855a8002ecb36a5d",
}


def test_tower_series_byte_identical(catalog):
    got = {}
    for spec in catalog.families:
        built = [(f"{spec.name}:direct:{d}", tower_series_direct(spec, d, 6))
                 for d in sorted(spec.prefactors)]
        d = 2
        while d - 1 in spec.multipliers:
            built.append((f"{spec.name}:recursive:{d}",
                          tower_series_recursive(spec, d, 6)))
            d += 1
        for key, series in built:
            text = json.dumps(series.to_json_obj(), sort_keys=True,
                              separators=(",", ":"))
            got[key] = hashlib.sha256(text.encode()).hexdigest()
    assert got == TOWER_SERIES_SHA256


def test_coefficient_series_refuses_negative_nmax(catalog):
    assert coefficient_series(catalog.family("p-5"), 0).terms() == [(0, 1)]
    with pytest.raises(TruncationError,
                       match="truncation too small to hold one term"):
        coefficient_series(catalog.family("p-5"), -1)


# -- towers ----------------------------------------------------------------------

def test_tower_direct_depth1_slice_values(catalog):
    spec = catalog.family("p-5")
    level1 = tower_series_direct(spec, 1, 8)
    # q*(q^5;q^5) * (5 + 30q + 135q^2 + ...) starts 5q + 30q^2 + 135q^3
    assert [level1.coeff_q(n) for n in range(4)] == [0, 5, 30, 135]


def test_tower_direct_requires_prefactor(catalog):
    spec = catalog.family("pd-5")
    with pytest.raises(FamilyError):
        tower_series_direct(spec, 2, 5)


def test_tower_cross_construction_p5(catalog):
    spec = catalog.family("p-5")
    for depth in (1, 2, 3):
        direct = tower_series_direct(spec, depth, 12)
        recursive = tower_series_recursive(spec, depth, 12)
        assert direct.agrees_with(recursive)
        assert not direct.is_zero


def test_tower_cross_construction_p7_p11(catalog):
    for name, depth_terms in (("p-7", ((1, 12), (2, 8), (3, 3))),
                              ("p-11", ((1, 10), (2, 4), (3, 1)))):
        spec = catalog.family(name)
        for depth, terms in depth_terms:
            direct = tower_series_direct(spec, depth, terms)
            recursive = tower_series_recursive(spec, depth, terms)
            assert direct.agrees_with(recursive)


def _generator(monkeypatch, series):
    """Make series every family's generating sequence: coefficient_series
    gives it known to q^(n_max + 1), as it gives an expansion."""
    monkeypatch.setattr(families, "coefficient_series",
                        lambda spec, n: series.truncate(24 * (n + 1)))


def test_tower_recursive_trivial_family_matches_u_iteration(monkeypatch):
    # lam = 1, identity prefactors/multipliers: the tower is plain U iteration
    spec = FamilySpec(
        name="toy",
        generator=EtaQuotient(1, {}),
        prime=3, lam=1, level=3, target_residue=1, schedule={},
        prefactors={d: PochhammerProduct(0, ()) for d in (1, 2, 3)},
        multipliers={d: PochhammerProduct(0, ()) for d in (1, 2)},
        tower_identities={},
    )
    # give the toy family a nontrivial generator series by hand
    series = QSeries({24 * n: n * n + 1 for n in range(200)}, 24 * 200)
    _generator(monkeypatch, series)
    direct = tower_series_direct(spec, 3, 5)
    shifted = series.shift(-24)
    for _ in range(3):
        shifted = shifted.u_operator(3)
    assert direct.agrees_with(shifted)
    recursive = tower_series_recursive(spec, 3, 5)
    assert recursive.agrees_with(direct)


@pytest.mark.parametrize("qpow, asked", [(6, 1), (1, 3), (-1, 5)])
def test_tower_recursive_asks_l1_for_the_exact_chain(monkeypatch, qpow, asked):
    # L_2 = U_3(q^qpow * L_1) to 2 terms reads L_1 to 3 * (2 - 1) + 1 - qpow
    # terms, at least 1: with a toy family whose L_1 starts at q^0, one term
    # less of the product (or of L_1) leaves U_3 one term short
    spec = FamilySpec(
        name="toy", generator=EtaQuotient(1, {}), prime=3, lam=1, level=3,
        target_residue=1, schedule={},
        prefactors={1: PochhammerProduct(0, ())},
        multipliers={1: PochhammerProduct(qpow, ())}, tower_identities={})
    _generator(monkeypatch,
               QSeries({24 * n: n * n + 1 for n in range(200)}, 24 * 200))
    level1 = tower_series_direct(spec, 1, 20)
    lengths = []

    def spy(spec, depth, terms):
        lengths.append(terms)
        return level1.truncate(24 * terms)
    monkeypatch.setattr(families, "tower_series_direct", spy)
    got = tower_series_recursive(spec, 2, 2)
    assert lengths == [asked]
    assert got == level1.shift(24 * qpow).u_operator(3).truncate(48)


def test_tower_recursive_sizes_a_chain_below_q0(monkeypatch):
    # a prefactor q^-1 starts L_1 at q^-1, so its product with the
    # multiplier q is known one term less past L_1's truncation; the chain
    # asks one more term of L_1, and L_2 = U_3(sum a(3n+1) q^n) comes out
    # with the 24 terms asked
    spec = FamilySpec(
        name="toy", generator=EtaQuotient(1, {}), prime=3, lam=1, level=3,
        target_residue=1, schedule={},
        prefactors={1: PochhammerProduct(-1, ())},
        multipliers={1: PochhammerProduct(1, ())}, tower_identities={})
    _generator(monkeypatch,
               QSeries({24 * n: n * n + 1 for n in range(400)}, 24 * 400))
    got = tower_series_recursive(spec, 2, 24)
    assert got == QSeries({24 * m: (9 * m + 1) ** 2 + 1 for m in range(24)},
                          24 * 24)


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_tower_recursive_follows_the_lead_down_the_chain(monkeypatch, depth):
    # multipliers q^-3 and q^-5 take L_2 and L_3 below q^0 (L_d is
    # q^p_d sum a(3^d n + 1) q^n, p = 0, -1, -2, 0), so each step's product
    # is known fewer terms past L_j's truncation than qpow alone says; the
    # recursive route must still match the direct one term for term
    spec = FamilySpec(
        name="toy", generator=EtaQuotient(1, {}), prime=3, lam=1, level=3,
        target_residue=1, schedule={},
        prefactors={1: PochhammerProduct(0, ()), 2: PochhammerProduct(-1, ()),
                    3: PochhammerProduct(-2, ()), 4: PochhammerProduct(0, ())},
        multipliers={1: PochhammerProduct(-3, ()),
                     2: PochhammerProduct(-5, ()),
                     3: PochhammerProduct(2, ())}, tower_identities={})
    _generator(monkeypatch,
               QSeries({24 * n: n * n + 1 for n in range(3000)}, 24 * 3000))
    got = tower_series_recursive(spec, depth, 24)
    assert got == tower_series_direct(spec, depth, 24)
    assert got.trunc24 == 24 * 24


def test_tower_missing_multiplier(catalog):
    spec = catalog.family("pd-5")
    with pytest.raises(FamilyError, match="no multiplier recorded for step "
                                          "1 -> 2; recursive construction"):
        tower_series_recursive(spec, 2, 4)


def test_tower_missing_multiplier_below_the_top():
    # step 2 -> 3 is recorded and step 1 -> 2 is not
    spec = FamilySpec(
        name="toy", generator=EtaQuotient(1, {}), prime=3, lam=1, level=3,
        target_residue=1, schedule={}, prefactors={1: PochhammerProduct(0, ())},
        multipliers={2: PochhammerProduct(0, ())}, tower_identities={})
    with pytest.raises(FamilyError, match="no multiplier recorded for step "
                                          "1 -> 2; recursive construction"):
        tower_series_recursive(spec, 3, 4)


# -- verification -----------------------------------------------------------------

def test_verify_ramanujan_small(catalog):
    spec = catalog.family("p-5")
    rep = verify_congruence(spec, 1, 800)
    assert rep.passed and rep.min_valuation == 1
    assert rep.qualifying_count == 160
    rep2 = verify_congruence(spec, 2, 800)
    assert rep2.passed and rep2.min_valuation == 2


def test_verify_sharpness_counterexample(catalog):
    spec = catalog.family("p-5")
    rep = verify_congruence(spec, 1, 800, beta_override=2)
    assert not rep.passed
    assert rep.counterexample is not None
    n, c, v = rep.counterexample
    assert n == 4 and c == 5 and v == 1


def _toy_spec():
    """n = 1 mod 5 qualifies at depth 1, where 5^2 | a(n) is demanded."""
    return FamilySpec(name="toy", generator=EtaQuotient(1, {1: -1}), prime=5,
                      lam=1, level=5, target_residue=1,
                      schedule={1: ScheduleStep(1, 2)}, prefactors={},
                      multipliers={}, tower_identities={})


def test_verify_counterexample_is_first_violation(monkeypatch):
    # qualifying n = 1, 6, 11, 16 (n = 1 mod 5); a(1) violates 5^2 | a(n) with
    # valuation 1, a(11) later attains the global minimum 0
    spec = _toy_spec()
    coeffs = [0] * 17
    coeffs[1], coeffs[6], coeffs[11], coeffs[16] = 15, 0, 7, 250
    coeffs[2] = 1  # not qualifying: ignored
    _generator(monkeypatch,
               QSeries({24 * n: c for n, c in enumerate(coeffs)}, 24 * 17))
    rep = verify_congruence(spec, 1, 16)
    assert rep.qualifying_count == 4
    assert rep.min_valuation == 0 and not rep.passed
    assert rep.counterexample == (1, 15, 1)


def _verify_by_coeff_q(spec, alpha, n_max, series):
    """verify_congruence's report, read one coeff_q(n) at a time in order."""
    step = spec.schedule[alpha]
    mod = spec.prime ** step.modulus_exponent
    qualifying = range(_residue(spec, mod), n_max + 1, mod)
    min_val = counterexample = None
    for n in qualifying:
        if c := series.coeff_q(n):
            v = valuation(c, spec.prime)
            min_val = v if min_val is None else min(min_val, v)
            if v < step.beta and counterexample is None:
                counterexample = (n, c, v)
    return VerificationReport(
        family=spec.name, alpha=alpha, modulus_exponent=step.modulus_exponent,
        beta=step.beta, n_max=n_max, qualifying_count=len(qualifying),
        min_valuation=min_val, passed=min_val is None or min_val >= step.beta,
        counterexample=counterexample)


@pytest.mark.parametrize("entries, trunc24", [
    ({0: 3, 24: -1, 96: 5, 240: 7}, 24 * 12),
    ({48: 2, 72: 4, 120: -4}, 24 * 9 + 5),           # leading term past q^0
    ({}, 24 * 4),
    # more than 23 qualifying n, the last of least valuation
    ({24 * n: 6 ** (59 - n) for n in range(60)}, 24 * 60),
])
def test_verify_reads_as_coeff_q(monkeypatch, entries, trunc24):
    # a generator known below q^(trunc24/24), read at every n_max it holds
    series = QSeries(entries, trunc24)
    _generator(monkeypatch, series)
    for prime, lam, target in ((2, 1, 1), (3, 2, 1), (3, 1, 0)):
        spec = FamilySpec(
            name="toy", generator=EtaQuotient(1, {}), prime=prime, lam=lam,
            level=prime, target_residue=target,
            schedule={1: ScheduleStep(1, 1), 2: ScheduleStep(2, 2),
                      3: ScheduleStep(3, 1)},
            prefactors={}, multipliers={}, tower_identities={})
        for alpha in spec.schedule:
            for n_max in range(-2, trunc24 // 24):
                got = verify_congruence(spec, alpha, n_max)
                want = _verify_by_coeff_q(spec, alpha, n_max, series)
                assert got.to_json_obj() == want.to_json_obj(), (
                    prime, lam, target, alpha, n_max)


def test_verify_subsequence_consistency(catalog):
    # passing at depth alpha implies passing at alpha' < alpha (beta monotone)
    spec = catalog.family("p-5")
    deep = verify_congruence(spec, 3, 800)
    shallow = verify_congruence(spec, 1, 800)
    assert deep.passed and shallow.passed


def test_verify_sharp_minima(catalog):
    # minima are exactly beta, not merely at least, where the families are sharp
    assert verify_congruence(catalog.family("p-5"), 1, 800).min_valuation == 1
    assert verify_congruence(catalog.family("p-5"), 2, 800).min_valuation == 2
    assert verify_congruence(catalog.family("p-7"), 1, 800).min_valuation == 1


def test_verify_rodseth_depth1(catalog):
    spec = catalog.family("pd-5")
    rep = verify_congruence(spec, 1, 800)
    assert rep.passed and rep.qualifying_count >= 6
    assert rep.min_valuation >= 1
    # p_D(26) is the first qualifying coefficient
    pd = distinct_partition_counts(26)
    assert coefficient_series(spec, 26).coeff_q(26) == pd[26]
    assert pd[26] % 5 == 0


def test_verify_d2_and_cphi2_depth1(catalog):
    d2 = catalog.family("d2-7")
    rep = verify_congruence(d2, 1, 600)
    assert rep.passed and rep.min_valuation == 1
    cphi = catalog.family("cphi2-5")
    rep2 = verify_congruence(cphi, 1, 400)
    assert rep2.passed and rep2.min_valuation >= 1


def test_verify_empty_residue_class(catalog):
    spec = catalog.family("pd-5")
    rep = verify_congruence(spec, 1, 20)  # first hit is n = 26
    assert rep.qualifying_count == 0
    assert rep.passed and rep.min_valuation is None


def test_verify_missing_schedule(catalog):
    with pytest.raises(FamilyError):
        verify_congruence(catalog.family("pd-5"), 9, 100)


# -- exact truncations: the default lengths against the over-long ones ----------

def _residue(spec, mod):
    return (pow(spec.lam, -1, mod) * spec.target_residue) % mod


def _direct_overlong(spec, depth, terms, expand):
    """The direct tower as built before exact truncations: a(0..mod*(terms
    + 1) + r) and the prefactor known one term past the request."""
    mod = spec.prime ** depth
    series = expand(spec, mod * (terms + 1) + _residue(spec, mod))
    sliced = series.progression_slice(spec.lam, spec.prime, depth,
                                      target=spec.target_residue)
    out = spec.prefactors[depth].expand(24 * (terms + 1)) * sliced
    return out.truncate(24 * terms)


def _recursive_overlong(spec, depth, terms, expand):
    """The recursive tower as built before exact truncations: each step
    asked the level below for needed*ell + qpow + 1 terms."""
    needed = terms
    for j in range(depth - 1, 0, -1):
        needed = needed * spec.prime + spec.multipliers[j].qpow + 1
    if needed < 1:
        raise FamilyError("truncation exhausted before depth 1")
    level = _direct_overlong(spec, 1, needed, expand)
    for j in range(1, depth):
        mult = spec.multipliers[j]
        if not mult.is_one():
            level = mult.expand(level.trunc24 + 24 * mult.qpow) * level
        level = level.u_operator(spec.prime)
    return level.truncate(24 * terms)


def _outcome(build, *args, **kwargs):
    """What a call leaves: its result as JSON, or its refusal."""
    try:
        result = build(*args, **kwargs)
    except (FamilyError, TruncationError) as exc:
        return type(exc).__name__, str(exc)
    return result.to_json_obj()


def _tower_grid(spec):
    """(depth, terms, whether the recursive route reaches the depth): every
    depth with a prefactor (1-4), terms from -2 to about 4000 / ell^depth."""
    grid = []
    for depth in sorted(spec.prefactors):
        top = max(4000 // spec.prime ** depth, 1)
        chain = all(j in spec.multipliers for j in range(1, depth))
        grid += [(depth, terms, chain) for terms in sorted(
            {*range(-2, min(top, 24) + 1),
             *range(0, top + 1, max(top // 16, 1)), top})]
    return grid


# a verify past this is run only where it reads no coefficient
VERIFY_REACH = 31000


def _verify_grid(spec):
    """(alpha, n_max, the last qualifying n or None) over every schedule
    depth: n_max at 0, r - 1, r, r + 1, r + mod - 1, r + mod and around
    2600.  Past VERIFY_REACH only an n_max below r is kept (p-7 at depth 6),
    as one that reads a(r) would take seconds."""
    grid = []
    for alpha, step in sorted(spec.schedule.items()):
        mod = spec.prime ** step.modulus_exponent
        r = _residue(spec, mod)
        grid += [(alpha, n, n - (n - r) % mod if n >= r else None)
                 for n in sorted({0, r - 1, r, r + 1, r + mod - 1, r + mod,
                                  2599, 2600, 2601})
                 if 0 <= n and (n <= VERIFY_REACH or n < r)]
    return grid


@pytest.fixture(scope="module")
def overlong():
    """expand(spec, n_max), equal to coefficient_series(spec, n_max): a
    truncation of one expansion per generator, which grows by doubling."""
    known = {}

    def expand(spec, n_max):
        if n_max < 0:
            return coefficient_series(spec, n_max)  # refused
        key = spec.generator.exponents
        have = known[key].trunc24 // 24 if key in known else 0
        if n_max >= have:
            known[key] = coefficient_series(spec, max(n_max, 2 * have, 4096))
        return known[key].truncate(24 * (n_max + 1))
    return expand


def _expansions(monkeypatch, expand):
    """Route the default path's coefficient_series through expand; return
    the list of lengths it asks for."""
    asked = []

    def spy(spec, n_max):
        asked.append(n_max)
        return expand(spec, n_max)
    monkeypatch.setattr(families, "coefficient_series", spy)
    return asked


def test_overlong_reference_truncates_to_fresh_expansions(catalog, overlong):
    for spec in catalog.families:
        for n_max in (0, 1, 7, 651, 2600):
            assert overlong(spec, n_max) == coefficient_series(spec, n_max)


FAMILY_NAMES = ["p-5", "p-7", "p-11", "pd-5", "d2-7", "cphi2-5"]


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_towers_match_overlong_expansions(catalog, overlong, monkeypatch, name):
    spec = catalog.family(name)
    asked = _expansions(monkeypatch, overlong)
    for depth, terms, chain in _tower_grid(spec):
        where = (name, depth, terms)
        mod = spec.prime ** depth
        old_n = mod * (terms + 1) + _residue(spec, mod)
        asked.clear()
        if terms < 1:  # both towers refuse alike, before expanding anything
            refusal = ("FamilyError", f"a tower needs depth >= 1 and terms "
                       f">= 1, got depth {depth} and terms {terms}")
            builds = [tower_series_direct] + [tower_series_recursive] * chain
            for build in builds:
                assert _outcome(build, spec, depth, terms) == refusal, where
            assert asked == [], where
            continue
        want = _outcome(_direct_overlong, spec, depth, terms, overlong)
        assert _outcome(tower_series_direct, spec, depth, terms) == want, where
        assert len(asked) == 1 and asked[0] <= old_n, where
        if chain:
            got = _outcome(tower_series_recursive, spec, depth, terms)
            assert got == _outcome(_recursive_overlong, spec, depth, terms,
                                   overlong), where
            assert got == want, where


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_recursive_tower_reads_no_further_than_the_direct(catalog, overlong,
                                                         monkeypatch, name):
    # U_ell keeps ceil(trunc/ell) terms and the chain is sized by it, so L_1
    # asks for no more of a(0..N) than the slice of L_depth does
    spec = catalog.family(name)
    asked = _expansions(monkeypatch, overlong)
    for depth, terms, chain in _tower_grid(spec):
        if terms < 1 or not chain:
            continue
        asked.clear()
        _outcome(tower_series_direct, spec, depth, terms)
        _outcome(tower_series_recursive, spec, depth, terms)
        direct, recursive = asked
        assert recursive <= direct, (name, depth, terms, asked)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_verify_matches_overlong_expansions(catalog, overlong, monkeypatch,
                                            name):
    spec = catalog.family(name)
    asked = _expansions(monkeypatch, overlong)
    for alpha, n_max, last in _verify_grid(spec):
        where = (name, alpha, n_max)
        asked.clear()
        got = verify_congruence(spec, alpha, n_max).to_json_obj()
        assert asked == ([] if last is None else [last]), where
        if n_max <= VERIFY_REACH:
            want = _verify_by_coeff_q(spec, alpha, n_max,
                                      overlong(spec, n_max))
            assert got == want.to_json_obj(), where
        else:  # the over-long expansion would be read nowhere
            assert got["qualifying_count"] == 0 and got["passed"], where


def test_expansions_stop_at_the_last_coefficient_read(catalog, monkeypatch):
    asked = []

    def spy(spec, n_max):
        asked.append(n_max)
        return coefficient_series(spec, n_max)
    monkeypatch.setattr(families, "coefficient_series", spy)
    p5 = catalog.family("p-5")
    tower_series_direct(p5, 4, 4)  # 625*(4 - 1 - 1) + 599, was 3724
    assert asked == [1849]
    asked.clear()
    # L_1 needs 5*3 + 1 - 0, 5*15 + 1 - 1, 5*74 + 1 - 0 terms, and reads
    # 5*(371 - 1 - 1) + 4 as the direct route does (was 2469)
    tower_series_recursive(p5, 4, 4)
    assert asked == [1849]
    asked.clear()
    rep = verify_congruence(p5, 6, 2600)  # the first qualifying n is 14974
    assert asked == [] and rep.qualifying_count == 0 and rep.passed
    rep = verify_congruence(catalog.family("pd-5"), 2, 2500)
    assert asked == [651] and rep.qualifying_count == 1
    with pytest.raises(TruncationError, match="one term of the expansion"):
        verify_congruence(p5, 6, -1)


def test_direct_tower_expands_no_further_than_it_reads(catalog, monkeypatch):
    # L_1 of p-5 to 1 term: the prefactor q (q^5; q^5) is expanded to q^1
    # and a(0..N) to N = r = 4, as terms - qpow - 1 < 0
    asked = _expansions(monkeypatch, coefficient_series)
    truncs = []
    expand = PochhammerProduct.expand

    def spy(self, trunc24):
        truncs.append(trunc24)
        return expand(self, trunc24)
    monkeypatch.setattr(PochhammerProduct, "expand", spy)
    assert tower_series_direct(catalog.family("p-5"), 1, 1) == QSeries.zero(24)
    assert (asked, truncs) == ([4], [24])


# -- recorded identities and reduction --------------------------------------------

def test_certified_identity_reduces_p5(catalog):
    spec = catalog.family("p-5")
    chart, orders = certified_identity_chart(spec, 1, 40)
    basis = catalog.basis("level-5").build(24 * 40)
    rep = reduce_genus0(chart, basis.x)
    assert rep.polynomial() == {1: 5}
    tab = valuation_table(rep, 5)
    assert tab.min_valuation() == 1


def test_certified_identity_depth2_gain_p5(catalog):
    spec = catalog.family("p-5")
    basis = catalog.basis("level-5").build(24 * 60)
    chart1, _ = certified_identity_chart(spec, 1, 60)
    chart2, _ = certified_identity_chart(spec, 2, 60)
    tab1 = valuation_table(reduce_genus0(chart1, basis.x), 5)
    tab2 = valuation_table(reduce_genus0(chart2, basis.x), 5)
    assert tab1.min_valuation() == 1
    assert tab2.min_valuation() == tab1.min_valuation() + 1


def test_certified_identity_reduces_p7(catalog):
    spec = catalog.family("p-7")
    chart, orders = certified_identity_chart(spec, 1, 40)
    basis = catalog.basis("level-7").build(24 * 40)
    rep = reduce_genus0(chart, basis.x)
    assert rep.polynomial() == {1: 7, 2: 49}
    assert valuation_table(rep, 7).min_valuation() == 1


def test_certified_identity_localizes_pd5(catalog):
    spec = catalog.family("pd-5")
    chart, orders = certified_identity_chart(spec, 1, 60)
    basis = catalog.basis("level-10").build(24 * 60)
    rep = localize_reduce(chart, basis, orders)
    assert rep.localizer_exponent == 0  # this identity already lives at [0]
    assert all(isinstance(c, int) for c in rep.coeffs.values())
    assert rep.coeffs  # nonempty


def test_localize_pd5_variant_needs_positive_power(catalog):
    # same depth-1 slice, alternative completion with poles away from [0]
    spec = catalog.family("pd-5")
    variant = FamilySpec(
        name="pd-5-variant", generator=spec.generator, prime=5, lam=24,
        level=10, target_residue=-1,
        schedule=dict(spec.schedule),
        prefactors={1: PochhammerProduct(
            0, ((1, 1), (2, -3), (5, 4), (10, -2)))},
        multipliers={},
        tower_identities={1: (
            EtaTerm(Fraction(1), EtaQuotient(10, {1: -3, 2: -1, 5: 7, 10: -3})),)},
    )
    chart, orders = certified_identity_chart(variant, 1, 80)
    basis = catalog.basis("level-10").build(24 * 80)
    rep = localize_reduce(chart, basis, orders)
    assert rep.localizer_exponent >= 1
    assert all(isinstance(c, int) for c in rep.coeffs.values())


def _chart_by_terms(spec, depth, terms):
    """The identity's zero-cusp chart by one expand_at_zero per term, each
    from scratch: the reference for the term-from-term chart."""
    chart = QSeries.zero(24 * terms)
    for term in spec.tower_identities[depth]:
        scale, series = expand_at_zero(term.quotient, spec.level, 24 * terms)
        chart = chart + series.scaled(scale * term.scale)
    return chart


@pytest.mark.parametrize("terms", [40, 121, 300])
def test_identity_chart_matches_per_term_expansion(catalog, terms):
    identities = [(spec, depth) for spec in catalog.families
                  for depth in spec.tower_identities]
    assert len(identities) == 4
    for spec, depth in identities:
        chart, _ = certified_identity_chart(spec, depth, terms)
        assert chart == _chart_by_terms(spec, depth, terms), (spec.name, depth)


def test_identity_chart_orders_are_the_least_term_orders(catalog):
    # a sum's order at a cusp class is at least the least of its terms'
    # orders there: the bounds the chart hands localize_reduce
    identities = [(spec, depth) for spec in catalog.families
                  for depth in spec.tower_identities]
    assert [(spec.name, depth) for spec, depth in identities] == [
        ("p-5", 1), ("p-5", 2), ("p-7", 1), ("pd-5", 1)]
    for spec, depth in identities:
        _, orders = certified_identity_chart(spec, depth, 40)
        terms = [cusp_order_vector(term.quotient, spec.level)
                 for term in spec.tower_identities[depth]]
        assert orders.level == spec.level
        assert orders.orders == tuple(
            (c, min(vec.order(c) for vec in terms))
            for c, _ in terms[0].orders), (spec.name, depth)


# level-10 quotients: v is the level-10 basis x, u the pd-5 identity term
LEVEL_10_V = {1: -3, 2: 1, 5: -1, 10: 3}
LEVEL_10_U = {1: -4, 2: 2, 5: 4, 10: -2}


def _synthetic_level_10(catalog):
    """pd-5 with the identity v, u, 2v, 3v: u lies off the ray of v, and 3v
    follows 2v by the passes of v, fewer than its own divisions."""
    spec = catalog.family("pd-5")
    ray = [{d: k * r for d, r in LEVEL_10_V.items()} for k in (1, 2, 3)]
    identity = tuple(EtaTerm(Fraction(scale), EtaQuotient(10, r)) for scale, r
                     in ((3, ray[0]), (Fraction(-1, 2), LEVEL_10_U),
                         (7, ray[1]), (-5, ray[2])))
    return FamilySpec(name="synthetic-10", generator=spec.generator, prime=5,
                      lam=24, level=10, target_residue=-1, schedule={},
                      prefactors=dict(spec.prefactors), multipliers={},
                      tower_identities={1: identity})


def _recorded_at_infinity(spec, depth, terms):
    out = QSeries.zero(24 * terms)
    for term in spec.tower_identities[depth]:
        out = out + expand_at_infinity(term.quotient,
                                       24 * terms).scaled(term.scale)
    return out


def _image(quotient, level, k=1):
    """The exponents of the zero-cusp image of k * quotient."""
    return tuple(sorted((level // d, k * r) for d, r in quotient.exponents))


def test_identity_chart_term_from_term_routes(catalog, monkeypatch):
    # the cross-check against the sliced tower is not what is tested here:
    # the synthetic identity is its own tower series
    import cusp_ledger.eta as eta

    synthetic = _synthetic_level_10(catalog)
    synthetic.validate()
    direct = families.tower_series_direct
    monkeypatch.setattr(
        families, "tower_series_direct",
        lambda spec, depth, terms: _recorded_at_infinity(spec, depth, terms)
        if spec is synthetic else direct(spec, depth, terms))
    kernel = []
    product = eta.pochhammer_product

    def spy(exponents, trunc24):
        kernel.append((exponents, trunc24))
        return product(exponents, trunc24)

    monkeypatch.setattr(eta, "pochhammer_product", spy)
    v = EtaQuotient(10, LEVEL_10_V)
    u = EtaQuotient(10, LEVEL_10_U)
    p5 = catalog.family("p-5")
    q5 = p5.tower_identities[2][0].quotient
    for spec, depth, base, kmax, off_ray in ((synthetic, 1, v, 3, [u]),
                                             (p5, 2, q5, 5, [])):
        images = {_image(t.quotient, spec.level)
                  for t in spec.tower_identities[depth]}
        for terms in (1, 40, 121, 300):
            kernel.clear()
            powers = {}
            chart, _ = certified_identity_chart(spec, depth, terms, powers)
            # one kernel run on 1 for Q's image, as far past its leading
            # term as kmax * Q needs, and one for each term off the ray of
            # Q, by its own plan (every image here has a pole of order 1)
            reach = 24 * terms + 24 * kmax
            assert [call for call in kernel if call[0] in images] \
                == [(_image(base, spec.level), reach)] \
                + [(_image(f, spec.level), 24 * terms + 24) for f in off_ray]
            assert chart == _chart_by_terms(spec, depth, terms), terms
            # the table holds the chart of k * Q, the k-th power of Q's
            table = powers[base, spec.level]
            assert len(table) == kmax
            for k, power in enumerate(table, start=1):
                kq = EtaQuotient(base.level,
                                 {d: k * r for d, r in base.exponents})
                scale, series = expand_at_zero(kq, spec.level,
                                               reach - 24 * k)
                assert power == series.scaled(scale), (spec.name, k)


def test_identity_chart_plans_each_vector_once(catalog, monkeypatch):
    # the image of Q is planned once; k * Q for k >= 2 is never planned,
    # since its expansion is a product of table entries
    import cusp_ledger.series as series

    planned = []
    plan = series.pochhammer_plan
    monkeypatch.setattr(series, "pochhammer_plan",
                        lambda pairs: planned.append(tuple(pairs))
                        or plan(planned[-1]))
    for name, depth in (("p-5", 2), ("p-7", 1), ("pd-5", 1)):
        spec = catalog.family(name)
        identity = spec.tower_identities[depth]
        images = [_image(t.quotient, spec.level) for t in identity]
        planned.clear()
        certified_identity_chart(spec, depth, 40)
        assert [p for p in planned if p in images] == images[:1], name


def test_identity_chart_checks_every_term(catalog, monkeypatch):
    # a Ligozat order that disagrees with a term's leading exponent is an
    # internal inconsistency, for a term built from the term before it too
    import cusp_ledger.eta as eta

    order = eta.order_at_cusp
    spec = catalog.family("p-5")
    fifth = spec.tower_identities[2][4].quotient

    def off_for_the_last_term(f, N, c):
        return order(f, N, c) + (f == fifth and c == 1)

    monkeypatch.setattr(eta, "order_at_cusp", off_for_the_last_term)
    with pytest.raises(InternalInconsistencyError,
                       match="cusp-zero leading exponent -120 disagrees with "
                             "Ligozat order -96"):
        certified_identity_chart(spec, 2, 40)


# -- catalog IO --------------------------------------------------------------------

def test_shipped_catalog_contents(catalog):
    names = {f.name for f in catalog.families}
    assert names == {"p-5", "p-7", "p-11", "pd-5", "d2-7", "cphi2-5"}
    levels = {f.name: f.level for f in catalog.families}
    assert levels == {"p-5": 5, "p-7": 7, "p-11": 11,
                      "pd-5": 10, "d2-7": 14, "cphi2-5": 20}


def test_empty_catalog():
    cat = catalog_loads('{"families": []}')
    assert cat.families == [] and cat.bases == []


def test_catalog_rejects_prime_not_dividing_level():
    doc = {"families": [{
        "name": "bad", "generator": {"M": 1, "r": {"1": -1}},
        "prime": 3, "lam": 24, "level": 5, "schedule": {}}]}
    with pytest.raises(CatalogError) as err:
        catalog_loads(json.dumps(doc))
    assert "level must be lcm(generator level 1, prime 3) = 3, got 5" \
        in str(err.value)


# level-5's x, with a pole of order 1 at the zero cusp only
LEVEL5_X = {"M": 5, "r": {"5": 6, "1": -6}}


def test_catalog_rejects_bad_json():
    with pytest.raises(CatalogError):
        catalog_loads("{not json")
    with pytest.raises(CatalogError):
        catalog_loads('{"nope": 1}')


def test_catalog_nested_too_deep_is_not_valid_json():
    # json refuses nesting past the recursion limit with a RecursionError
    with pytest.raises(CatalogError) as err:
        catalog_loads("[" * 100_000 + "]" * 100_000)
    assert str(err.value).startswith(
        "<catalog>: not valid JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize("doc, want", [
    ({"families": 5}, "<catalog>: 'families' must be a JSON list"),
    ({"families": [], "bases": {"b": 1}},
     "<catalog>: 'bases' must be a JSON list"),
    ({"families": ["p-5"]},
     "<catalog>:families[0]: family must be a JSON object, got 'p-5'"),
    ({"families": [], "bases": ["b"]},
     "<catalog>:bases[0]: basis must be a JSON object, got 'b'"),
    ({"families": [{"name": "x", "generator": {"M": 1, "r": {"1": -1}},
                    "prime": 5, "lam": 24, "level": 5, "schedule": [1]}]},
     "<catalog>:families[0]: schedule must be a JSON object, got [1]"),
    ({"families": [{"name": "x", "generator": {"M": 1, "r": [1]},
                    "prime": 5, "lam": 24, "level": 5}]},
     "<catalog>:families[0]: r must be a JSON object, got [1]"),
    *(({"families": [{"name": "x", "generator": {"M": 1, "r": {"1": -1}},
                      "prime": 5, "lam": 24, "level": 5, **entry}]},
       f"<catalog>:families[0]: {want}") for entry, want in (
        ({"schedule": {"1": [1, 1]}},
         "schedule entry must be a JSON object, got [1, 1]"),
        ({"prefactors": []}, "prefactors must be a JSON object, got []"),
        ({"prefactors": {"1": [5]}},
         "prefactor must be a JSON object, got [5]"),
        ({"prefactors": {"1": {"r": [5]}}},
         "r must be a JSON object, got [5]"),
        ({"multipliers": {"1": 5}}, "multiplier must be a JSON object, got 5"),
        ({"tower_identities": [[]]},
         "tower_identities must be a JSON object, got [[]]"))),
    # each of these used to be refused in Python's own words, and an
    # identity given as {} loaded as one of no terms
    *(({"families": [{"name": "x", "generator": {"M": 1, "r": {"1": -1}},
                      "prime": 5, "lam": 24, "level": 5, **entry}]},
       f"<catalog>:families[0]: {want}") for entry, want in (
        ({"generator": [1]}, "generator must be a JSON object, got [1]"),
        ({"tower_identities": {"1": {}}},
         "tower identity must be a JSON list, got {}"),
        ({"tower_identities": {"1": 5}},
         "tower identity must be a JSON list, got 5"),
        ({"tower_identities": {"1": [5]}},
         "identity term must be a JSON object, got 5"),
        ({"tower_identities": {"1": [{"scale": "1", "eta": "x"}]}},
         "eta must be a JSON object, got 'x'"),
        ({"tower_identities": {"1": [{"scale": "1/0", "eta": {}}]}},
         "scale has a zero denominator: '1/0'"))),
    *(({"families": [], "bases": [{"name": "b", "level": 5, **entry}]},
       f"<catalog>:bases[0]: {want}") for entry, want in (
        ({"x": {"eta": [5]}}, "eta must be a JSON object, got [5]"),
        ({"x": {"series": 5}}, "series must be a JSON object, got 5"),
        ({"x": {"series": {"terms": {}, "trunc24": 24}}},
         "terms must be a JSON list, got {}"),
        ({"x": {"series": {"terms": [[-24, "1"]], "trunc24": 24}}},
         "term must be a JSON list of 3 items, got [-24, '1']"),
        ({"x": {"series": {"terms": [[-24, "1", 0]], "trunc24": 24}}},
         "denominator must be nonzero, got 0"),
        ({"x": {"eta": LEVEL5_X}, "ys": {}}, "ys must be a JSON list, got {}"),
        ({"x": {"eta": LEVEL5_X}, "ys": "x"},
         "ys must be a JSON list, got 'x'"))),
])
def test_catalog_rejects_malformed_shapes(doc, want):
    # each used to escape as AttributeError or TypeError (exit 3)
    with pytest.raises(CatalogError) as err:
        catalog_loads(json.dumps(doc))
    assert str(err.value).startswith(want)


def _canonical(value):
    """value as nested tuples that tell apart every type, field and order of
    a loaded catalog: a record or series as its type name and fields."""
    if value is None or type(value) in (bool, int, str):
        return value
    if isinstance(value, Record):
        return (type(value).__name__,
                *[(k, _canonical(v)) for k, v in vars(value).items()])
    if isinstance(value, QSeries):
        return ("QSeries", *[_canonical(getattr(value, f))
                             for f in QSeries.__slots__])
    if isinstance(value, dict):
        return ("dict", *[(_canonical(k), _canonical(v))
                          for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, *map(_canonical, value))
    assert isinstance(value, Fraction), value
    return ("Fraction", value.numerator, value.denominator)


# sha256 over the outcome of every CATALOG_LEAVES leaf set to each
# REFUSAL_VALUES value: the CatalogError text, or the catalog loaded
REFUSAL_VALUES = (None, True, 1.5, [], {}, 0, -1, "x", "01")
CATALOG_REFUSALS_DIGEST = \
    "e85b7e4621040c977a2930edcf58467ef3b3434e748be971be40534618c6075e"


def _edit_outcomes(paths, values):
    """(key path, value, outcome) of the shipped catalog with the node at
    each key path set to each value in turn: the outcome is the CatalogError
    text, or the catalog loaded."""
    doc = json.loads(shipped_catalog_path().read_text())
    for keys in paths:
        node = doc
        for key in keys[:-1]:
            node = node[key]
        kept = node[keys[-1]]
        for value in values:
            node[keys[-1]] = value
            try:
                outcome = _canonical(catalog_loads(json.dumps(doc)))
            except CatalogError as exc:
                outcome = str(exc)
            yield keys, value, outcome
        node[keys[-1]] = kept


# the words of Python's own TypeError, AttributeError and ZeroDivisionError
# texts, which a catalog refusal never repeats: it names the field instead
PYTHON_WORDING = ("object is not", "indices must be", "values to unpack",
                  "Fraction(", "has no attribute")


def _edits_digest(paths, values):
    """sha256 over every _edit_outcomes outcome, each refusal checked for
    Python's wording."""
    digest = hashlib.sha256()
    for keys, value, outcome in _edit_outcomes(paths, values):
        assert not (isinstance(outcome, str) and any(
            words in outcome for words in PYTHON_WORDING)), (keys, value)
        digest.update(repr((keys, value, outcome)).encode())
    return digest.hexdigest()


def test_catalog_refusals_pinned():
    assert _edits_digest(CATALOG_LEAVES, REFUSAL_VALUES) \
        == CATALOG_REFUSALS_DIGEST


def _read_nodes(node, keys=()):
    """Key paths to every node of a catalog document below its top, objects,
    lists and the free-text notes the loader ignores included."""
    items = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    return [path for k, v in items
            for path in [keys + (k,), *_read_nodes(v, keys + (k,))]]


def _generic(keys):
    """keys with each list index and integer key as "*"."""
    return tuple("*" if str(k).lstrip("-").isdigit() else k for k in keys)


def _first_of_each_generic_path(doc):
    first = {}
    for keys in _read_nodes(doc):
        first.setdefault(_generic(keys), keys)
    return list(first.values())


CATALOG_SHAPE_NODES = _first_of_each_generic_path(
    json.loads(shipped_catalog_path().read_text()))
# sha256 over the outcome of every CATALOG_SHAPE_NODES node set to each
# SHAPE_VALUES value, as CATALOG_REFUSALS_DIGEST is taken
SHAPE_VALUES = (*REFUSAL_VALUES, [5], {"1": 5}, 5)
CATALOG_SHAPES_DIGEST = \
    "fe43a1584360a01237eb45e2c9a40772e23474e2a46a29ed0835eeb346b5fcf1"


def test_catalog_shapes_pinned():
    assert len(CATALOG_SHAPE_NODES) == 62
    assert _edits_digest(CATALOG_SHAPE_NODES, SHAPE_VALUES) \
        == CATALOG_SHAPES_DIGEST


def _read(fn, *args):
    """fn(*args), or the type and text of the refusal it raised; an EtaError
    reads as a ValueError, since the loader words the two alike (an
    exponent's type was json_field's ValueError, and is exponent_vector's
    EtaError)."""
    try:
        return fn(*args)
    except (AttributeError, EtaError, KeyError, ValueError) as exc:
        return ValueError if type(exc) is EtaError else type(exc), str(exc)


def vector_as_before(r, level=None):
    """The exponent map r as exponent_map read it before the one exponent
    rule, in README's order, without exponent_vector: each key, then its
    exponent, in turn; then the first divisor below 1; then, given a level,
    a level below 1 and the first divisor that does not divide it."""
    pairs = [(json_key(d, "r"), json_field(e, "exponent", int))
             for d, e in json_field(r, "r").items()]
    for d in [d for d, _ in pairs if d < 1][:1]:
        raise EtaError(f"divisor {d} must be a positive integer")
    if level is not None and level < 1:
        raise EtaError(f"level must be positive, got {level}")
    for d in [d for d, _ in pairs if level is not None and level % d][:1]:
        raise EtaError(f"divisor {d} does not divide level {level}")
    return tuple(sorted((d, e) for d, e in pairs if e))


def quotient_as_before(obj):
    level = json_field(obj["M"], "M", int)
    return EtaQuotient._known(level, vector_as_before(obj["r"], level))


# mostly well formed, so that the checks past the types are reached
json_keys = st.sampled_from([str(d) for d in range(-1, 13)] * 3 + [
    "01", "+2", " 3", "-0", "1_0", "\u0663", "x", ""])
json_exponents = st.sampled_from([-2, -1, 0, 0, 1, 2, 3] * 3 + [
    True, 1.0, "2", None, [1]])
json_levels = st.sampled_from([1, 2, 4, 5, 6, 10, 12] * 3 + [
    *range(-2, 14), "6", 6.0, False])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(json_levels, st.dictionaries(json_keys, json_exponents, max_size=5))
# a zero exponent's divisor must divide the level too
@example(5, {"3": 0})
# an exponent's type is refused before a divisor below 1
@example(5, {"0": 1, "5": "x"})
# the first of two divisors below 1 or not dividing the level is named
@example(12, {"-1": 1, "0": 2, "5": 1, "7": 1})
@example(12, {"5": 1, "7": 1, "12": 0})
# a divisor below 1 before the level, the level before a stray divisor
@example(0, {"3": 1, "0": 1})
@example(-4, {"3": 1, "2": 1})
def test_exponent_map_reads_as_before(level, r):
    obj = {"M": level, "r": r}
    got = _read(families._eta_from_json, obj, "eta")
    assert got == _read(quotient_as_before, obj)
    if isinstance(got, EtaQuotient):
        assert vars(got) == vars(quotient_as_before(obj))
    assert _read(families._exponents, r) == _read(vector_as_before, r)


def test_series_from_json_reads_a_term_of_ratios():
    obj = {"terms": [[0, "3/4", "-1/2"], [24, 5, "2"]], "trunc24": 48}
    assert families._series_from_json(obj).terms() == [(0, Fraction(-3, 2)),
                                                       (24, Fraction(5, 2))]


def test_catalog_decimals_read_up_to_the_digit_limit():
    # as many digits as int() reads, leading zeros counted as it counts them
    nines = "9" * 4300
    assert json_key(nines, "r") == int(nines)
    assert json_ratio(f"-{nines}/{nines}", "scale") == (-int(nines),
                                                         int(nines))
    for text in (nines + "9", f"1/0{nines}", f"-0{nines}/1"):
        with pytest.raises(ValueError, match="^too large: want a scale of at "
                                             "most 4300 digits, got 4301"):
            json_ratio(text, "scale")
    with pytest.raises(ValueError, match="^too large: want r keys of at most"):
        json_key(nines + "9", "r")


def test_catalog_entry_defaults():
    # a family may leave out its target residue (1), schedule, prefactors,
    # multipliers and identities, and a prefactor its qpow (0) and r ({})
    doc = {"families": [{
        "name": "x", "generator": {"M": 1, "r": {"1": -1}}, "prime": 5,
        "lam": 24, "level": 5, "prefactors": {"1": {}}}]}
    family = catalog_loads(json.dumps(doc)).family("x")
    assert (family.target_residue, family.schedule, family.multipliers,
            family.tower_identities) == (1, {}, {}, {})
    assert vars(family.prefactors[1]) == {"qpow": 0, "exponents": ()}


def _identity(k):
    """A depth-1 identity of one term, the k-th power of level-5's x, which
    starts at q^k."""
    return {"1": [{"scale": "1", "eta": {"M": 5, "r": {"5": 6 * k,
                                                         "1": -6 * k}}}]}


@pytest.mark.parametrize("entry, want", [
    ({"schedule": {"0": {"modulus": 1, "beta": 1}}},
     "bad schedule entry at depth 0"),
    ({"tower_identities": _identity(7)}, None),
    ({"tower_identities": _identity(8)},
     "depth-1 identity term eta(1t)^-48 * eta(5t)^48 starts at q^(192/24), "
     "past the 8-term check at infinity"),
], ids=["depth-0", "identity-at-q^7", "identity-at-q^8"])
def test_catalog_family_checks_at_the_edges(entry, want):
    doc = json.dumps({"families": [{
        "name": "x", "generator": {"M": 1, "r": {"1": -1}}, "prime": 5,
        "lam": 24, "level": 5, **entry}]})
    if want is None:
        assert catalog_loads(doc).family("x").tower_identities.keys() == {1}
    else:
        with pytest.raises(CatalogError) as err:
            catalog_loads(doc)
        assert str(err.value) == f"<catalog>:families[0]: family x: {want}"


# level-10's x, with a pole of order 1 at the zero cusp only
LEVEL10_X = {"M": 10, "r": {"1": -3, "2": 1, "5": -1, "10": 3}}


@pytest.mark.parametrize("basis, want", [
    # a level of 1 is a level
    ({"level": 1, "x": {"series": {"terms": [[-24, "1", "1"]],
                                   "trunc24": 24}}}, None),
    # a localizer needs a pole of order 1 at least at the zero cusp
    ({"level": 10, "x": {"eta": LEVEL10_X}, "z": {"eta": LEVEL10_X}}, None),
    ({"level": 10, "x": {"eta": LEVEL10_X}, "z": {"eta": {"M": 10, "r": {}}}},
     "z must have a pole at the zero cusp"),
    # the pole order of x^23, read exactly, needs 22 companions
    ({"level": 5, "x": {"eta": {"M": 5, "r": {"5": 138, "1": -138}}}},
     "basis not order-complete: companion pole orders cover 1 of 23 "
     "residue classes mod 23"),
], ids=["level-1", "z-order-1", "z-order-0", "x-order-23"])
def test_catalog_basis_orders_at_the_edges(basis, want):
    doc = json.dumps({"families": [], "bases": [{"name": "b", **basis}]})
    if want is None:
        assert catalog_loads(doc).basis("b").level == basis["level"]
    else:
        with pytest.raises(CatalogError) as err:
            catalog_loads(doc)
        assert str(err.value) == f"<catalog>:bases[0]: {want}"


def test_catalog_basis_without_level_still_loads(catalog):
    assert catalog.basis("demo-genus1").level is None


@pytest.mark.parametrize("basis", ["missing", 5, None])
def test_catalog_ignores_a_family_basis_key(basis):
    # reduce takes a family on any basis at its level, so the loader does
    # not read a family's basis key: a catalog that names one still loads
    doc = {"families": [{
        "name": "x", "generator": {"M": 1, "r": {"1": -1}},
        "prime": 5, "lam": 24, "level": 5, "schedule": {},
        "basis": basis}]}
    family = catalog_loads(json.dumps(doc)).family("x")
    assert (family.name, family.prime, family.level) == ("x", 5, 5)


# a level-5 basis whose companions mix an exact series and an eta quotient:
# pole orders x 3, y_1 4, y_2 2
MIXED_BASIS = {
    "name": "mixed-5", "level": 5,
    "x": {"series": {"terms": [[-72, "1", "1"]], "trunc24": 24}},
    "ys": [{"series": {"terms": [[-96, "1", "1"]], "trunc24": 24}},
           {"eta": {"M": 5, "r": {"5": 12, "1": -12}}}],
}


def test_basis_companions_keep_catalog_order(tmp_path, capsys):
    from cusp_ledger.cli import main

    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"families": [], "bases": [MIXED_BASIS]}))
    # q^-4 is y_1 itself, as listed in the catalog
    code = main(["--catalog", str(path), "--json", "reduce", "--target",
                 "pole:4", "--basis", "mixed-5", "--terms", "20",
                 "--guard", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["coeffs"] == [[1, 0, "1", "1"]]
    entry = catalog_load(path).basis("mixed-5")
    assert isinstance(entry.ys[0], QSeries)
    assert isinstance(entry.ys[1], EtaQuotient)


def test_basis_roles_checked(tmp_path):
    no_x = {k: v for k, v in MIXED_BASIS.items() if k != "x"}
    with pytest.raises(CatalogError, match=r"bases\[0\]: missing field 'x'"):
        catalog_loads(json.dumps({"families": [], "bases": [no_x]}))
    series_z = dict(MIXED_BASIS, z=MIXED_BASIS["x"])
    with pytest.raises(CatalogError, match="localizers must be eta quotients"):
        catalog_loads(json.dumps({"families": [], "bases": [series_z]}))


@pytest.mark.parametrize("terms", [14, 40, 121, 300])
def test_basis_from_identity_table_matches_products(catalog, terms,
                                                    monkeypatch):
    # x and x^k read off the identity's table are the series that
    # x^(k-1) * x builds, field for field, so every window refusal reads
    # the same; past the table's top, x_power goes on by products
    expanded = []
    expand = families.expand_at_zero
    monkeypatch.setattr(families, "expand_at_zero",
                        lambda f, N, t: expanded.append(f) or expand(f, N, t))
    for name, depth, basis_name in (("p-5", 2, "level-5"),
                                    ("p-7", 1, "level-7")):
        powers = {}
        certified_identity_chart(catalog.family(name), depth, terms, powers)
        entry = catalog.basis(basis_name)
        expanded.clear()
        table = entry.build(24 * terms, powers)
        assert expanded == []  # x is read off the table
        products = entry.build(24 * terms)
        assert table.x == products.x
        for k in range(1, 6):
            assert table.monomial(0, k) == products.monomial(0, k), (name, k)
            assert table.window24(0, k) == table.monomial(0, k).trunc24


def test_basis_localizer_expanded_on_first_use(catalog, monkeypatch):
    # the localizer is expanded only when a reduction raises it to a power
    calls = []
    expand = families.expand_at_zero
    monkeypatch.setattr(families, "expand_at_zero",
                        lambda f, N, t: calls.append(f) or expand(f, N, t))
    entry = catalog.basis("level-10")
    basis = entry.build(24 * 80)
    assert calls == [entry.x]
    x_orders = cusp_order_vector(entry.x, 10)
    rep = localize_reduce(basis.x, basis, x_orders)
    assert (rep.localizer_exponent, rep.coeffs) == (0, {(0, 1): 1})
    assert calls == [entry.x]
    # x / z has poles away from the zero cusp, which z^1 clears
    scale, series = expand_at_zero(entry.z, 10, 24 * 80)
    z_orders = dict(cusp_order_vector(entry.z, 10).orders)
    f_orders = CuspOrderVector(10, tuple((c, o - z_orders[c])
                                         for c, o in x_orders.orders))
    rep = localize_reduce(basis.x / series.scaled(scale), basis, f_orders)
    assert (rep.localizer_exponent, rep.coeffs) == (1, {(0, 1): 1})
    assert calls == [entry.x, entry.z]
    # a localizer with a zero of order 3 at the zero cusp, which a catalog
    # refuses at load: built in code, it is refused when a reduction uses
    # it, and its expansion when it is asked for
    zero = BasisEntry("zero-z", 10, entry.x, [],
                      EtaQuotient(10, {1: 12, 2: -8, 5: -4}))
    basis = zero.build(24 * 3)
    with pytest.raises(BasisError, match="no pole at the zero cusp"):
        localize_reduce(basis.x, basis, x_orders)
    with pytest.raises(TruncationError, match="one term of the expansion"):
        basis.z()
    assert zero.build(24 * 4).z().offset24 == 72


def test_unknown_family_lookup(catalog):
    with pytest.raises(CatalogError):
        catalog.family("nope")
