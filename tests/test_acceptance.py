"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact equality (exact arithmetic throughout);
runtime budgets are asserted with the stated limits.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from cusp_ledger.curves import cusp_count, curve_profile, enumerate_cusps
from cusp_ledger.errors import GapError
from cusp_ledger.eta import (
    EtaQuotient,
    OrderConstraint,
    cusp_order_vector,
    expand_at_zero,
    order_at_cusp,
    search_eta_quotients,
)
from cusp_ledger.families import (
    catalog_load,
    classify,
    coefficient_series,
    shipped_catalog_path,
    tower_series_direct,
    tower_series_recursive,
    verify_congruence,
)
from cusp_ledger.reduction import ModuleBasis, reduce_genus0, reduce_module
from cusp_ledger.series import QSeries, is_prime, pochhammer_expansion


def report(number: int, description: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


@lru_cache(maxsize=None)
def catalog():
    return catalog_load(shipped_catalog_path())


@lru_cache(maxsize=None)
def partition_series():
    """F = 1/eta without the fractional prefactor: a(n) = p(n), 2500 terms.

    Cached so later criteria reuse it, but built inside the first caller's
    timed body so the cost lands on criterion 4's budget.
    """
    return coefficient_series(catalog().family("p-5"), 2500)


def test_criterion_1_cusp_count_table():
    t0 = time.monotonic()
    table = {1: 1, 4: 3, 5: 2, 7: 2, 11: 2, 14: 4, 20: 6}
    for N, expected in table.items():
        assert cusp_count(N) == expected
    for N in range(1, 1001):
        assert cusp_count(N) == sum(c.count for c in enumerate_cusps(N))
    report(1, "cusp-count table and closed form vs enumeration to 1000",
           t0, 1.0)


def test_criterion_2_parity_lemma():
    t0 = time.monotonic()
    for N in range(1, 10001):
        eps = cusp_count(N)
        if N in (1, 4):
            assert eps % 2 == 1
        else:
            assert eps % 2 == 0
        assert (eps == 2) == is_prime(N)
    report(2, "parity lemma and two-cusps-iff-prime to 10000", t0, 5.0)


def test_criterion_3_genus_pins():
    t0 = time.monotonic()
    assert curve_profile(11).genus == 1
    assert curve_profile(14).genus == 1
    assert curve_profile(20).genus == 1
    assert curve_profile(5).genus == 0
    assert curve_profile(7).genus == 0
    for N in range(1, 1001):
        assert curve_profile(N).genus >= 0  # integrality enforced inside
    report(3, "genus pins and integral nonnegative genus to 1000", t0, 1.0)


def test_criterion_4_ramanujan_verification():
    t0 = time.monotonic()
    series = partition_series()
    sharp = {("p-5", 1), ("p-5", 2), ("p-7", 1)}
    for name, alpha, beta in (("p-5", 1, 1), ("p-5", 2, 2), ("p-7", 1, 1),
                              ("p-7", 2, 2), ("p-11", 1, 1)):
        spec = catalog().family(name)
        rep = verify_congruence(spec, alpha, 2000, series=series)
        assert rep.passed, f"{name} depth {alpha} failed"
        assert rep.beta == beta
        assert rep.qualifying_count > 0
        if (name, alpha) in sharp:
            assert rep.min_valuation == beta
    for name in ("p-5", "p-7"):
        spec = catalog().family(name)
        rep = verify_congruence(spec, 1, 2000, beta_override=2,
                                series=series)
        assert not rep.passed and rep.counterexample is not None
    report(4, "Ramanujan families at depths (5,1),(5,2),(7,1),(7,2),(11,1) "
              "with sharpness at (5,1),(7,1)", t0, 30.0)


def test_criterion_5_rodseth_verification():
    t0 = time.monotonic()
    spec = catalog().family("pd-5")
    series = coefficient_series(spec, 2000)
    rep1 = verify_congruence(spec, 1, 2000, series=series)
    assert rep1.passed and rep1.modulus_exponent == 3 and rep1.beta == 1
    assert rep1.qualifying_count > 0
    rep2 = verify_congruence(spec, 2, 2000, series=series)
    assert rep2.passed and rep2.modulus_exponent == 5 and rep2.beta == 2
    assert rep2.qualifying_count > 0
    report(5, "distinct-parts family at moduli 5^3 and 5^5", t0, 30.0)


def test_criterion_6_known_values():
    t0 = time.monotonic()
    inv = pochhammer_expansion(1, 24 * 30).invert()
    got = [inv.coeff_q(n) for n in (4, 9, 14, 19, 24)]
    assert got == [5, 30, 135, 490, 1575]
    assert [partition_series().coeff_q(n) for n in (4, 9, 14, 19, 24)] == got
    report(6, "p(4), p(9), p(14), p(19), p(24) = 5, 30, 135, 490, 1575",
           t0, 1.0)


def test_criterion_7_reduction_round_trips():
    t0 = time.monotonic()
    trunc = 24 * 40
    scale, chart = expand_at_zero(EtaQuotient(5, {5: 6, 1: -6}), 5, trunc)
    x = chart.scaled(scale)
    rng = random.Random(2024)
    powers = [QSeries.constant(1, trunc)]
    for _ in range(10):
        powers.append(powers[-1] * x)
    for _ in range(100):
        coeffs = {m: rng.randint(-99, 99) for m in range(rng.randint(1, 11))}
        target = QSeries.zero(trunc)
        for m, c in coeffs.items():
            target = target + powers[m].scaled(c)
        rep = reduce_genus0(target, x)
        assert rep.polynomial() == {m: c for m, c in coeffs.items() if c}

    xg = QSeries({-48: 1, -24: rng.randint(-9, 9), 0: rng.randint(-9, 9),
                  24: rng.randint(-9, 9)}, trunc)
    yg = QSeries({-72: 1, -24: rng.randint(-9, 9), 48: rng.randint(-9, 9)},
                 trunc)
    basis = ModuleBasis(x=xg, ys=[QSeries.constant(1, trunc), yg])
    for _ in range(100):
        picks = {(k, m): rng.randint(-99, 99)
                 for k in (0, 1) for m in range(rng.randint(1, 6))}
        target = QSeries.zero(trunc)
        for (k, m), c in picks.items():
            target = target + basis.monomial(k, m).scaled(c)
        rep = reduce_module(target, basis)
        assert rep.coeffs == {km: c for km, c in picks.items() if c}
    report(7, "100 genus-0 and 100 genus-1 reduction round-trips", t0, 60.0)


def test_criterion_8_gap_certification():
    t0 = time.monotonic()
    trunc = 24 * 40
    basis = ModuleBasis(
        x=QSeries({-48: 1, -24: 2, 0: -1}, trunc),
        ys=[QSeries.constant(1, trunc), QSeries({-72: 1, 0: 4}, trunc)])
    assert basis.gap_set() == (1,)
    rejected = []
    for pole in range(1, 11):
        km = basis.monomial_for_pole_order(pole)
        if km is None:
            rejected.append(pole)
            with pytest.raises(GapError) as err:
                reduce_module(QSeries.monomial(-24 * pole, trunc), basis)
            assert err.value.pole_order == pole
        else:
            rep = reduce_module(basis.monomial(*km), basis)
            assert rep.coeffs == {km: 1}
    assert rejected == [1]
    report(8, "gap sweep 1..10 against a genus-1 basis rejects exactly {1}",
           t0, 5.0)


def test_criterion_9_localizer_search():
    t0 = time.monotonic()
    constraints = [OrderConstraint(1, "==", Fraction(-1)),
                   OrderConstraint(5, ">=", Fraction(1))]
    found = search_eta_quotients(5, constraints, bound=6)
    assert found == [EtaQuotient(5, {5: 6, 1: -6})]
    quotient = found[0]
    assert cusp_order_vector(quotient, 5).valence_sum() == 0
    _, chart = expand_at_zero(quotient, 5, 24 * 6)
    assert chart.offset24 == 24 * order_at_cusp(quotient, 5, 1)
    report(9, "search rediscovers the level-5 generator; orders certified "
              "two ways", t0, 10.0)


def test_criterion_10_classification():
    t0 = time.monotonic()
    expected = {
        "p-5": ("Classical", 0),
        "p-7": ("Classical", 0),
        "p-11": ("Classical", 1),
        "pd-5": ("Localization", 0),
        "d2-7": ("Localization", 1),
        "cphi2-5": ("NoSystematicMethods", 1),
    }
    for name, (difficulty, tedium) in expected.items():
        spec = catalog().family(name)
        rep = classify(spec.level, spec.prime)
        assert rep.difficulty_class == difficulty, name
        assert rep.tedium_score == tedium, name
    report(10, "shipped catalog classifies across all three table rows",
           t0, 1.0)


def test_criterion_11_cross_construction():
    t0 = time.monotonic()
    spec = catalog().family("p-5")
    series = partition_series()
    for depth, terms in ((1, 16), (2, 16), (3, 16)):
        direct = tower_series_direct(spec, depth, terms,
                                     series=series)
        recursive = tower_series_recursive(spec, depth, terms,
                                           series=series)
        assert not direct.is_zero
        assert direct.agrees_with(recursive)
    report(11, "direct and recursive tower constructions agree to depth 3",
           t0, 60.0)
