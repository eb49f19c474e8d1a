"""Tests for eta-quotient validity, cusp orders, expansions, and search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cusp_ledger.curves import divisors, enumerate_cusps
from cusp_ledger.errors import EtaError, TruncationError
from cusp_ledger.eta import (
    EtaQuotient,
    OrderConstraint,
    cusp_order_vector,
    expand_at_infinity,
    expand_at_zero,
    localizer_constraints,
    order_at_cusp,
    parse_constraints,
    search_eta_quotients,
    validate_on_gamma0,
)

from oracles import (
    distinct_partition_counts,
    eta_gamma0_verdict,
    eta_search_by_brute_force,
    partition_counts,
)

LEVEL5_HAUPTMODUL = EtaQuotient(5, {5: 6, 1: -6})


def test_validate_level5_hauptmodul():
    v = validate_on_gamma0(LEVEL5_HAUPTMODUL, 5)
    assert v.weight_zero
    assert v.infinity_order_integral
    assert v.zero_order_integral
    assert v.product_is_square
    assert v.valid


def test_validate_rejects_nonzero_weight():
    v = validate_on_gamma0(EtaQuotient(1, {1: -1}), 1)
    assert not v.weight_zero
    assert not v.valid


def test_validate_mod24_failure():
    # eta(2t)/eta(t) on N=2: sum delta*r = 1, not 0 mod 24
    v = validate_on_gamma0(EtaQuotient(2, {2: 1, 1: -1}), 2)
    assert v.weight_zero
    assert not v.infinity_order_integral
    assert not v.valid


def test_validate_level_divisibility():
    with pytest.raises(EtaError):
        validate_on_gamma0(EtaQuotient(4, {4: 1, 1: -1}), 6)


def test_order_at_cusp_level5():
    assert order_at_cusp(LEVEL5_HAUPTMODUL, 5, 5) == 1
    assert order_at_cusp(LEVEL5_HAUPTMODUL, 5, 1) == -1


def test_order_of_trivial_quotient():
    assert order_at_cusp(EtaQuotient(10, {}), 10, 2) == 0


def test_order_rejects_non_divisor():
    with pytest.raises(EtaError):
        order_at_cusp(LEVEL5_HAUPTMODUL, 5, 3)


def test_valence_sum_vanishes_for_valid_quotients():
    for N in (5, 10, 14, 20):
        cons = []  # every valid weight-0 quotient, small bound
        for f in search_eta_quotients(N, cons, bound=3):
            assert cusp_order_vector(f, N).valence_sum() == 0


def test_expand_at_infinity_partition_series():
    f = EtaQuotient(1, {1: -1})
    s = expand_at_infinity(f, 24 * 30)
    assert s.offset24 == -1
    p = partition_counts(25)
    for n in range(25):
        assert s.coeff24(24 * n - 1) == p[n]


def test_expand_at_infinity_distinct_parts():
    f = EtaQuotient(2, {2: 1, 1: -1})
    s = expand_at_infinity(f, 24 * 30)
    assert s.offset24 == 1
    pd = distinct_partition_counts(25)
    for n in range(25):
        assert s.coeff24(24 * n + 1) == pd[n]


def test_expand_trivial_quotient():
    s = expand_at_infinity(EtaQuotient(7, {}), 24)
    assert s.coeff_q(0) == 1
    assert len(s.support()) == 1


def test_expand_truncation_guard():
    with pytest.raises(TruncationError):
        expand_at_infinity(LEVEL5_HAUPTMODUL, 10)  # leading exponent is 24


def test_expand_at_zero_level5_hauptmodul():
    scale, series = expand_at_zero(LEVEL5_HAUPTMODUL, 5, 24 * 10)
    assert scale == Fraction(1, 125)
    assert series.offset24 == -24  # simple pole
    # the series is the conjugate quotient (eta(t)/eta(5t))^6
    conj = expand_at_infinity(EtaQuotient(5, {1: 6, 5: -6}), 24 * 10)
    assert series == conj


def test_expand_at_zero_trivial():
    scale, series = expand_at_zero(EtaQuotient(3, {}), 3, 24)
    assert scale == 1
    assert series.coeff_q(0) == 1


def test_expand_at_zero_rejects_invalid():
    with pytest.raises(EtaError):
        expand_at_zero(EtaQuotient(2, {2: 1, 1: -1}), 2, 24 * 5)


def test_expand_at_zero_matches_ligozat_order():
    for N in (5, 10, 14):
        for f in search_eta_quotients(N, [], bound=2)[:6]:
            if f.is_trivial():
                continue
            _, series = expand_at_zero(f, N, 24 * 8)
            assert series.offset24 == 24 * order_at_cusp(f, N, 1)


def test_order_at_infinity_matches_expansion():
    for N in (5, 10, 14):
        for f in search_eta_quotients(N, [], bound=2)[:6]:
            if f.is_trivial():
                continue
            s = expand_at_infinity(f, abs(f.degree24) + 24 * 4)
            assert Fraction(s.offset24, 24) == order_at_cusp(f, N, N)


def test_search_rediscovers_level5_hauptmodul():
    cons = [OrderConstraint(1, "==", Fraction(-1)),
            OrderConstraint(5, ">=", Fraction(1))]
    out = search_eta_quotients(5, cons, bound=6)
    assert LEVEL5_HAUPTMODUL in out
    assert out[0] == LEVEL5_HAUPTMODUL  # simplest first


def test_search_positive_everywhere_is_empty():
    # a nonconstant function with positive order at every cusp cannot exist
    for N in (5, 10):
        cons = [OrderConstraint(c, ">=", Fraction(1)) for c in divisors(N)]
        assert search_eta_quotients(N, cons, bound=4) == []


def test_search_pole_only_at_zero_level10():
    # pole only at c=1, holomorphic elsewhere: non-empty at bound 6
    cons = [OrderConstraint(1, "<", Fraction(0))] + [
        OrderConstraint(c, ">=", Fraction(0)) for c in (2, 5, 10)]
    out = search_eta_quotients(10, cons, bound=6)
    assert out
    for z in out:
        vec = cusp_order_vector(z, 10)
        assert vec.order(1) < 0
        for c in (2, 5, 10):
            assert vec.order(c) >= 0


def test_search_strict_localizer_level10():
    out = search_eta_quotients(10, localizer_constraints(10), bound=12)
    assert EtaQuotient(10, {1: -12, 2: 8, 5: 4}) in out
    for z in out:
        vec = cusp_order_vector(z, 10)
        assert vec.order(1) < 0
        for c in (2, 5, 10):
            assert vec.order(c) >= 1


def test_search_results_meet_constraints_exactly():
    cons = parse_constraints("1<0,10>=1")
    for f in search_eta_quotients(10, cons, bound=4):
        assert validate_on_gamma0(f, 10).valid
        assert order_at_cusp(f, 10, 1) < 0
        assert order_at_cusp(f, 10, 10) >= 1


def test_parse_constraints_round_trip():
    cons = parse_constraints("1==-1, 5>=1")
    assert cons == [OrderConstraint(1, "==", Fraction(-1)),
                    OrderConstraint(5, ">=", Fraction(1))]
    with pytest.raises(EtaError):
        parse_constraints("5!!2")


def test_quotient_construction_guards():
    with pytest.raises(EtaError):
        EtaQuotient(6, {4: 1})
    with pytest.raises(EtaError):
        EtaQuotient(0, {})


def test_quotient_serialization_round_trip():
    f = EtaQuotient(10, {10: 2, 5: -1, 1: -1})
    assert EtaQuotient.from_json_obj(f.to_json_obj()) == f


def test_valence_of_search_output_sum_counts():
    # spot check: every valid quotient satisfies the degree-zero divisor law
    f = EtaQuotient(14, {14: 1, 2: 1, 7: -1, 1: -1})
    if validate_on_gamma0(f, 14).valid:
        counts = {c.denominator: c.count for c in enumerate_cusps(14)}
        total = sum(counts[c] * order_at_cusp(f, 14, c) for c in divisors(14))
        assert total == 0


def test_validate_refuses_nonpositive_level():
    for N in (0, -5):
        with pytest.raises(EtaError):
            validate_on_gamma0(LEVEL5_HAUPTMODUL, N)


def test_search_refuses_non_divisor_denominators():
    for c in (0, -5, 3):
        with pytest.raises(EtaError):
            search_eta_quotients(5, [OrderConstraint(c, "<", Fraction(0))], 1)


def test_search_matches_brute_force_oracle():
    for N in range(1, 41):
        ds = divisors(N)
        bound = 3 if len(ds) <= 6 else 1
        patterns = ([], [(1, "<", Fraction(0))],
                    [(1, "<", Fraction(0))]
                    + [(c, ">=", Fraction(1)) for c in ds if c != 1])
        for pattern in patterns:
            cons = [OrderConstraint(*c) for c in pattern]
            got = [f.exponents for f in search_eta_quotients(N, cons, bound)]
            assert got == eta_search_by_brute_force(N, pattern, bound), \
                (N, pattern)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_validate_matches_oracle(data):
    N = data.draw(st.integers(1, 120), label="N")
    level = data.draw(st.sampled_from(divisors(N)), label="level")
    r = {d: data.draw(st.integers(-12, 12)) for d in divisors(level)}
    if data.draw(st.booleans(), label="weight zero"):
        r[level] -= sum(r.values())
    f = EtaQuotient(level, r)
    assert validate_on_gamma0(f, N).to_json_obj() == eta_gamma0_verdict(N, r)
