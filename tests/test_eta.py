"""Tests for eta-quotient validity, cusp orders, expansions, and search."""

import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cusp_ledger import eta
from cusp_ledger.curves import divisors, enumerate_cusps
from cusp_ledger.errors import (
    EtaError,
    InternalInconsistencyError,
    TruncationError,
)
from cusp_ledger.eta import (
    EtaQuotient,
    OrderConstraint,
    cusp_order_bounds,
    cusp_order_vector,
    expand_at_infinity,
    expand_at_zero,
    newman_sums,
    order_at_cusp,
    search_eta_quotients,
    validate_on_gamma0,
)
from cusp_ledger.cli import parse_constraints
from cusp_ledger.families import _eta_from_json

from oracles import (
    distinct_partition_counts,
    eta_gamma0_verdict,
    eta_search_by_brute_force,
    ligozat_order,
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
    # the trivial quotient, first in each search, too: its expansion is 1,
    # at order 0
    for N in (5, 10, 14):
        for f in search_eta_quotients(N, [], bound=2)[:6]:
            _, series = expand_at_zero(f, N, 24 * 8)
            assert series.offset24 == 24 * order_at_cusp(f, N, 1)


def test_order_at_infinity_matches_expansion():
    for N in (5, 10, 14):
        for f in search_eta_quotients(N, [], bound=2)[:6]:
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
    # pole only at the zero cusp, order at least 1 at every other class
    constraints = [OrderConstraint(1, "<", Fraction(0))] + [
        OrderConstraint(c, ">=", Fraction(1)) for c in (2, 5, 10)]
    out = search_eta_quotients(10, constraints, bound=12)
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


def test_quotient_construction_guards():
    with pytest.raises(EtaError):
        EtaQuotient(6, {4: 1})
    with pytest.raises(EtaError):
        EtaQuotient(0, {})
    # one rule (exponent_vector) for quotients built in code and read from
    # a catalog: an exponent's type as it comes, then a divisor below 1,
    # the level and a stray divisor
    for level, r, want in (
            (5, {0: 1, 5: True}, "exponent must be an integer, got True"),
            (0, {3: 1, 0: 1}, "divisor 0 must be a positive integer"),
            (-4, {3: 1}, "level must be positive, got -4"),
            (12, {5: 1, 7: 0}, "divisor 5 does not divide level 12")):
        with pytest.raises(EtaError, match=f"^{re.escape(want)}$"):
            EtaQuotient(level, r)


def test_quotient_serialization_round_trip():
    f = EtaQuotient(10, {10: 2, 5: -1, 1: -1})
    assert _eta_from_json(f.to_json_obj(), "eta") == f


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


def _search_bound(data, N: int) -> int:
    """A drawn bound whose full box (2b+1)^(k-1) stays at or below 20k, and
    whose oracle box (2b+1)^k stays small enough to enumerate."""
    dim = len(divisors(N)) - 1
    top = max(b for b in range(1, 5) if (2 * b + 1) ** dim <= 20_000)
    return data.draw(st.integers(1, top), label="bound")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_search_matches_oracle_under_drawn_constraints(data):
    N = data.draw(st.sampled_from(
        [n for n in range(1, 61) if 3 ** (len(divisors(n)) - 1) <= 20_000]),
        label="N")
    bound = _search_bound(data, N)
    pattern = data.draw(st.lists(st.tuples(
        st.sampled_from(divisors(N)),
        st.sampled_from(["==", "<=", ">=", "<", ">"]),
        st.one_of(st.integers(-4, 4).map(Fraction),
                  st.sampled_from([Fraction(-3, 2), Fraction(1, 4),
                                   Fraction(-1, 3), Fraction(5, 2)]))),
        max_size=3), label="constraints")
    cons = [OrderConstraint(*c) for c in pattern]
    got = [f.exponents for f in search_eta_quotients(N, cons, bound)]
    assert got == eta_search_by_brute_force(N, pattern, bound)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_order_at_cusp_matches_oracle(data):
    N = data.draw(st.integers(1, 120), label="N")
    level = data.draw(st.sampled_from(divisors(N)), label="level")
    r = {d: data.draw(st.integers(-12, 12)) for d in divisors(level)}
    f = EtaQuotient(level, r)
    for c in divisors(N):
        assert order_at_cusp(f, N, c) == ligozat_order(N, r, c), c


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cusp_order_vector_matches_oracle(data):
    # the orders at every class, read off one set of Ligozat rows, for each
    # of several quotients
    N = data.draw(st.integers(1, 120), label="N")
    vectors = [{d: data.draw(st.integers(-12, 12)) for d in divisors(level)}
               for level in data.draw(st.lists(
                   st.sampled_from(divisors(N)), min_size=1, max_size=3),
                   label="levels")]
    for r in vectors:
        assert cusp_order_vector(EtaQuotient(max(r), r), N).orders == tuple(
            (c, ligozat_order(N, r, c)) for c in divisors(N))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cusp_order_bounds_are_the_least_oracle_orders(data):
    # the least order at every class over any number of quotients, fewer
    # than _PACK_FROM (one dot product each) or more (packed), each at a
    # level that divides N
    N = data.draw(st.integers(1, 120), label="N")
    vectors = [{d: data.draw(st.integers(-12, 12)) for d in divisors(level)}
               for level in data.draw(st.lists(
                   st.sampled_from(divisors(N)), max_size=2 * eta._PACK_FROM),
                   label="levels")]
    got = cusp_order_bounds([EtaQuotient(max(r), r) for r in vectors], N)
    assert got.level == N
    assert got.orders == (tuple(
        (c, min(ligozat_order(N, r, c) for r in vectors)) for c in divisors(N))
        if vectors else ())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cusp_order_numerators_match_oracle_at_every_width(data):
    # exponents of every size, so that the orders fill 8-, 16-, 32- and
    # 64-bit slots and run past the widest, for fewer quotients than
    # _PACK_FROM (one dot product each) and for more (packed)
    N = data.draw(st.integers(1, 120), label="N")
    size = data.draw(st.sampled_from([3, 6, 12, 25, 28, 55, 60, 70]),
                     label="log2 of the largest |r|")
    vectors = data.draw(st.lists(st.dictionaries(
        st.sampled_from(divisors(N)), st.integers(-2 ** size, 2 ** size),
        max_size=4), min_size=1, max_size=2 * eta._PACK_FROM),
        label="exponents")
    classes, columns = eta.cusp_order_numerators(
        [EtaQuotient(N, r) for r in vectors], N)
    assert [c for c, _ in classes] == divisors(N)
    assert [[Fraction(num, den) for num in column]
            for (_, den), column in zip(classes, columns)] == [
        [ligozat_order(N, r, c) for r in vectors] for c in divisors(N)]


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_cusp_order_numerators_at_the_edge_of_a_slot(bits, monkeypatch):
    # at level 1 the numerator is r_1 itself: |r| = 2^(W-1) - 1 is the
    # largest a W-bit slot holds, and 2^(W-1) takes the next width, or one
    # dot product per quotient past 64 bits (the only use of _over_divisors)
    dense = eta._over_divisors
    for e in (2 ** (bits - 1) - 1, 2 ** (bits - 1)):
        monkeypatch.setattr(eta, "_over_divisors",
                            dense if e == 2 ** 63 else None)
        quotients = [EtaQuotient(1, {1: e}), EtaQuotient(1, {1: -e}),
                     EtaQuotient(1, {})] * eta._PACK_FROM
        assert eta.cusp_order_numerators(quotients, 1) == (
            [(1, 24)], [[e, -e, 0] * eta._PACK_FROM])


def test_cusp_order_numerators_pack_from_the_threshold(monkeypatch):
    # one dot product per quotient below _PACK_FROM quotients, and one
    # packed sum per row from _PACK_FROM on
    quotients = [EtaQuotient(6, {1: j, 2: 1, 6: -j - 1})
                 for j in range(eta._PACK_FROM)]
    want = [[ligozat_order(6, dict(f.exponents), c) for f in quotients]
            for c in divisors(6)]

    def fractions(got):
        classes, columns = got
        return [[Fraction(num, den) for num in column]
                for (_, den), column in zip(classes, columns)]

    monkeypatch.setattr(eta, "_packed_products", None)
    assert fractions(eta.cusp_order_numerators(quotients[:-1], 6)) == [
        column[:-1] for column in want]
    monkeypatch.undo()
    monkeypatch.setattr(eta, "_over_divisors", None)
    assert fractions(eta.cusp_order_numerators(quotients, 6)) == want
    # packed quotients with no nonzero exponent: every numerator is 0
    trivial = [EtaQuotient(6, {})] * eta._PACK_FROM
    assert eta.cusp_order_numerators(trivial, 6)[1] == [
        [0] * eta._PACK_FROM] * 4


def test_cusp_order_vectors_of_no_quotient_build_no_row(monkeypatch):
    monkeypatch.setattr(eta, "_ligozat_rows", None)
    assert cusp_order_bounds([], 963761198400).orders == ()
    assert eta.cusp_order_numerators([], 963761198400) == ([], [])


def test_constrained_search_builds_only_returned_quotients(monkeypatch):
    # the constraints are tested on the raw exponent tuple; the search used
    # to build an EtaQuotient and its orders for each of the 501 valid
    # vectors here (r_7 = -r_1, a multiple of 4), to keep one.  A result is
    # built by EtaQuotient._known, without __init__'s checks; both count.
    built = []
    init, known = EtaQuotient.__init__, EtaQuotient._known

    def spy(self, level, exponents):
        built.append(level)
        init(self, level, exponents)

    def known_spy(level, exponents):
        built.append(level)
        return known(level, exponents)

    monkeypatch.setattr(EtaQuotient, "__init__", spy)
    monkeypatch.setattr(EtaQuotient, "_known", known_spy)
    found = search_eta_quotients(7, parse_constraints("1==-1"), 1000)
    assert [f.exponents for f in found] == [((1, -4), (7, 4))]
    assert built == [7]


@pytest.mark.parametrize("N", [1, 2, 5, 6, 12, 25, 30, 36])
def test_search_results_equal_checked_quotients(N):
    # results skip __init__'s checks; each must still be the quotient that
    # the checked constructor builds from its exponents, hash included
    for bound in (1, 2, 3):
        for f in search_eta_quotients(N, [], bound):
            checked = EtaQuotient(N, dict(f.exponents))
            assert f == checked and hash(f) == hash(checked)


def test_search_refuses_unknown_operator():
    with pytest.raises(EtaError, match="unknown constraint operator '=<'"):
        search_eta_quotients(5, [OrderConstraint(1, "=<", Fraction(0))], 1)


def test_search_memory_stays_flat_at_two_divisors():
    # two divisors at bound 100000: 200001 candidates, streamed, no index
    tracemalloc.start()
    try:
        found = search_eta_quotients(7, parse_constraints("1==-1"), 100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [f.exponents for f in found] == [((1, -4), (7, 4))]
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("f, N, sums", [
    (LEVEL5_HAUPTMODUL, 5, (0, 24, -24, 0)),
    (EtaQuotient(1, {1: -1}), 5, (-1, -1, -5, 0)),
    # eta(2t)/eta(t): 2 divides prod delta^r to an odd power, bit 0 at N=10
    (EtaQuotient(2, {2: 1, 1: -1}), 10, (0, 1, -5, 1)),
], ids=["level-5-hauptmodul", "weight-minus-1", "odd-power-of-2"])
def test_newman_sums(f, N, sums):
    # sum r, sum delta*r (degree24), sum (N/delta)*r (24 times the order
    # at the zero cusp) and the primes of N to an odd power, as a bitmask
    assert newman_sums(f, N) == sums


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_validate_matches_oracle(data):
    N = data.draw(st.integers(1, 120), label="N")
    level = data.draw(st.sampled_from(divisors(N)), label="level")
    r = {d: data.draw(st.integers(-12, 12)) for d in divisors(level)}
    if data.draw(st.booleans(), label="weight zero"):
        r[level] -= sum(r.values())
    f = EtaQuotient(level, r)
    verdict = validate_on_gamma0(f, N)
    assert {**vars(verdict), "valid": verdict.valid} == eta_gamma0_verdict(N, r)


@pytest.mark.parametrize("delta", [0, -1, -5])
def test_quotient_refuses_nonpositive_delta(delta):
    # validity reads only the divisors of N, so EtaQuotient(1, {-1: 1}) used
    # to pass validate_on_gamma0 at level 5 with orders -5/24 and -1/24
    with pytest.raises(EtaError, match=f"divisor {delta} must be a positive"):
        EtaQuotient(1, {delta: 1})
    with pytest.raises(EtaError):
        _eta_from_json({"M": 5, "r": {str(delta): 1, "5": -1}}, "eta")


@pytest.mark.parametrize("obj", [
    {"M": 5.0, "r": {"5": 6, "1": -6}},
    {"M": "5", "r": {"5": 6, "1": -6}},
    {"M": 5, "r": {"5": 6, "1": -6.5}},
    {"M": 5, "r": {"5": True, "1": -1}},
])
def test_quotient_from_json_needs_json_integers(obj):
    # the level is refused as a ValueError, an exponent by exponent_vector
    # as an EtaError; the loader words both alike
    with pytest.raises((ValueError, EtaError), match="must be an integer, got"):
        _eta_from_json(obj, "eta")


def test_zero_cusp_scale_disagreeing_with_square_test_is_inconsistency(
        monkeypatch):
    # the Newman square test decides that prod (N/delta)^r is a square; a
    # verdict that lets a non-square through is a bug, not bad input
    import cusp_ledger.eta as eta

    def always_valid(f, N):
        return eta.GammaValidation(N, True, True, True, True)

    monkeypatch.setattr(eta, "validate_on_gamma0", always_valid)
    with pytest.raises(InternalInconsistencyError,
                       match="prod \\(N/delta\\)\\^r = 5 is not a square"):
        expand_at_zero(EtaQuotient(5, {1: 1, 5: -1}), 5, 48)
