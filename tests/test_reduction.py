"""Tests for the module-basis reduction engine."""

import random
from fractions import Fraction

import pytest

from cusp_ledger.errors import (
    BasisError,
    ExactnessError,
    GapError,
    InternalInconsistencyError,
    ReductionError,
    SeriesError,
    TruncationError,
)
from cusp_ledger.eta import (
    CuspOrderVector,
    EtaQuotient,
    cusp_order_vector,
    expand_at_zero,
)
from cusp_ledger.reduction import (
    ModuleBasis,
    localize_reduce,
    reduce_genus0,
    reduce_module,
    valuation_table,
)
from cusp_ledger.series import QSeries

TRUNC = 24 * 60


def laurent(pole_order, tail_len, rng=None, trunc24=TRUNC):
    """Monic series with the given pole order and a fixed or random tail."""
    if rng is None:
        rng = random.Random(1000 + pole_order)
    entries = {-24 * pole_order: 1}
    for i in range(tail_len):
        entries[-24 * pole_order + 24 * (i + 1)] = rng.randint(-9, 9)
    return QSeries(entries, trunc24)


def genus1_basis(seed=101):
    rng = random.Random(seed)
    x = laurent(2, 40, rng)
    y = laurent(3, 40, rng)
    one = QSeries.constant(1, TRUNC)
    return ModuleBasis(x=x, ys=[one, y])


def level5_x_chart(trunc24=TRUNC):
    scale, series = expand_at_zero(EtaQuotient(5, {5: 6, 1: -6}), 5, trunc24)
    return series.scaled(scale)


# -- genus 0 -------------------------------------------------------------------

def test_reduce_genus0_round_trip_fixed():
    x = level5_x_chart()
    target = x ** 3 + x.scaled(2) + QSeries.constant(-7, TRUNC)
    rep = reduce_genus0(target, x)
    assert rep.polynomial() == {3: 1, 1: 2, 0: -7}
    assert rep.residual.is_zero


def test_reduce_genus0_constant():
    x = level5_x_chart()
    rep = reduce_genus0(QSeries.constant(9, TRUNC), x)
    assert rep.polynomial() == {0: 9}


def test_reduce_genus0_random_round_trips():
    rng = random.Random(23)
    x = level5_x_chart()
    powers = [QSeries.constant(1, TRUNC)]
    for _ in range(10):
        powers.append(powers[-1] * x)
    for _ in range(100):
        deg = rng.randint(0, 10)
        coeffs = {m: rng.randint(-99, 99) for m in range(deg + 1)}
        target = QSeries.zero(TRUNC)
        for m, c in coeffs.items():
            target = target + powers[m].scaled(c)
        rep = reduce_genus0(target, x)
        assert rep.polynomial() == {m: c for m, c in coeffs.items() if c}


def test_reduce_genus0_requires_simple_pole():
    with pytest.raises(BasisError):
        reduce_genus0(QSeries.constant(1, TRUNC), laurent(2, 5))


def test_reduce_genus0_rejects_alien_series():
    x = level5_x_chart()
    alien = x + QSeries.monomial(24 * 3, TRUNC)  # x plus spurious q^3
    with pytest.raises(ReductionError):
        reduce_genus0(alien, x)


def test_polynomial_view_refuses_a_companion_term():
    basis = genus1_basis()
    rep = reduce_module(basis.monomial(1, 0), basis)
    assert rep.coeffs == {(1, 0): 1}
    with pytest.raises(ReductionError, match=r"^representation is not a "
                                             r"plain polynomial in x$"):
        rep.polynomial()


def test_reduce_module_refuses_a_target_off_the_integer_grid():
    with pytest.raises(ReductionError, match=r"^reduction target must have "
                                             r"integer exponents$"):
        reduce_module(QSeries({-47: 1}, TRUNC), genus1_basis())


def test_constant_subtracted_at_the_target_truncation():
    # the constant is no basis monomial: x's own truncation, q^30, does not
    # cut the residual of a target known to q^40
    x = QSeries({-24: 1, 0: 2, 24: 3}, 24 * 30)
    rep = reduce_genus0(QSeries.constant(5, 24 * 40), x)
    assert rep.polynomial() == {0: 5}
    assert rep.residual == QSeries.zero(24 * 40)
    assert rep.residual.trunc24 == 960


def test_reduce_insufficient_truncation():
    x = level5_x_chart(trunc24=24 * 5)
    with pytest.raises(TruncationError):
        reduce_genus0(x.scaled(3), x)


def test_constant_past_every_window_refused():
    # x known below q^2 gives x^3 only below q^0: under guard 0 the
    # elimination reaches a constant term it cannot read, and refuses rather
    # than take it as 0; known one step of the 1/24 grid further, x^3 holds
    # its constant term, and it is read
    x = level5_x_chart(trunc24=48)
    with pytest.raises(TruncationError, match=r"to q\^\(0/24\)"):
        reduce_genus0(QSeries.monomial(-72, 48), x, guard=0)
    x = level5_x_chart(trunc24=49)
    rep = reduce_genus0(QSeries.monomial(-72, 49), x, guard=0)
    assert rep.coeffs[0, 0] == 24


# -- general module ------------------------------------------------------------

def test_reduce_module_round_trip_fixed():
    basis = genus1_basis()
    y, x = basis.ys[1], basis.x
    target = y * (x ** 2) + x.scaled(4) + QSeries.constant(-1, TRUNC)
    rep = reduce_module(target, basis)
    assert rep.coeffs == {(1, 2): 1, (0, 1): 4, (0, 0): -1}
    assert rep.localizer_exponent == 0


def test_faulty_elimination_is_internal_inconsistency(monkeypatch):
    # the residual is the round trip: a term left at q^0 or below can only
    # come from the elimination, never from the target
    basis = genus1_basis()
    target = (basis.ys[1] * (basis.x ** 2) + basis.x.scaled(4)
              + QSeries.constant(-1, TRUNC))
    combine = ModuleBasis.combine

    def drop_x(self, coeffs, trunc24):
        return combine(self, {km: c for km, c in coeffs.items()
                              if km != (0, 1)}, trunc24)

    monkeypatch.setattr(ModuleBasis, "combine", drop_x)
    with pytest.raises(InternalInconsistencyError,
                       match=r"^elimination left residual coefficient 4 at "
                             r"q\^\(-48/24\)$"):
        reduce_module(target, basis)

    def add_one(self, coeffs, trunc24):
        return (combine(self, coeffs, trunc24)
                + QSeries.constant(1, trunc24))

    # q^0 is the elimination's too: it reads the constant off the target
    monkeypatch.setattr(ModuleBasis, "combine", add_one)
    with pytest.raises(InternalInconsistencyError,
                       match=r"^elimination left residual coefficient -1 at "
                             r"q\^\(0/24\)$"):
        reduce_module(target, basis)


def test_reduce_module_gap_error_on_simple_pole():
    basis = genus1_basis()
    with pytest.raises(GapError) as err:
        reduce_module(laurent(1, 6), basis)
    assert err.value.pole_order == 1
    assert "Weierstrass gap" in str(err.value)


def test_reduce_module_random_round_trips():
    rng = random.Random(31)
    basis = genus1_basis()
    for _ in range(100):
        picks = {(k, m): rng.randint(-99, 99)
                 for k in (0, 1) for m in range(rng.randint(1, 6))}
        target = QSeries.zero(TRUNC)
        for (k, m), c in picks.items():
            target = target + basis.monomial(k, m).scaled(c)
        rep = reduce_module(target, basis)
        assert rep.coeffs == {km: c for km, c in picks.items() if c}


def test_reduce_module_linearity():
    rng = random.Random(37)
    basis = genus1_basis()
    f = basis.monomial(1, 2).scaled(3) + basis.monomial(0, 1).scaled(-2)
    g = basis.monomial(1, 0).scaled(5) + basis.monomial(0, 2)
    rf, rg = reduce_module(f, basis), reduce_module(g, basis)
    combo = reduce_module(f.scaled(2) + g.scaled(7), basis)
    for km in set(rf.coeffs) | set(rg.coeffs):
        assert combo.coeffs.get(km, 0) == \
            2 * rf.coeffs.get(km, 0) + 7 * rg.coeffs.get(km, 0)


def test_reduce_module_deterministic():
    basis = genus1_basis()
    target = basis.monomial(1, 3) + basis.monomial(0, 2).scaled(-5)
    assert reduce_module(target, basis).coeffs == \
        reduce_module(target, basis).coeffs


def test_gap_set_genus1():
    assert genus1_basis().gap_set() == (1,)


def test_gap_sweep_genus1():
    basis = genus1_basis()
    rejected = []
    for pole in range(1, 11):
        km = basis.monomial_for_pole_order(pole)
        if km is None:
            rejected.append(pole)
            with pytest.raises(GapError):
                reduce_module(laurent(pole, 4), basis)
        else:
            rep = reduce_module(basis.monomial(*km), basis)
            assert rep.coeffs == {km: 1}
    assert rejected == [1]


def test_window_matches_built_monomials():
    # reduce_module checks this window before it builds a monomial
    bases = [genus1_basis(), ModuleBasis(x=level5_x_chart(),
                                         ys=[QSeries.constant(1, TRUNC)]),
             ModuleBasis(x=laurent(2, 3, trunc24=24 * 8),
                         ys=[QSeries.constant(1, TRUNC), laurent(3, 50)])]
    for basis in bases:
        for k in range(len(basis.ys)):
            for m in range(8):
                assert basis.window24(k, m) == basis.monomial(k, m).trunc24


def test_given_x_powers_cut_to_their_window():
    # an x^2 built elsewhere and known further than x * x reads only as far
    # as the product built here would
    x = level5_x_chart()
    long_square = level5_x_chart(2 * TRUNC) ** 2
    assert long_square.trunc24 > (x * x).trunc24
    basis = ModuleBasis(x=x, ys=[QSeries.constant(1, TRUNC)],
                        x_powers=[long_square])
    assert basis.monomial(0, 2).trunc24 == basis.window24(0, 2)
    assert basis.monomial(0, 2) == x * x


def test_high_x_power_built_without_recursion():
    x = QSeries({-24: 1, 0: 2}, 24 * 3)
    basis = ModuleBasis(x=x, ys=[QSeries.constant(1, 24 * 3)])
    power = basis.x_power(3000)  # past the interpreter's recursion limit
    assert power.leading() == (-24 * 3000, 1)
    assert power.trunc24 == basis.window24(0, 3000)


def test_pole_past_window_refused_before_building():
    basis = ModuleBasis(x=level5_x_chart(), ys=[QSeries.constant(1, TRUNC)])
    with pytest.raises(TruncationError, match=r"y_0 \* x\^100000 known only"):
        reduce_module(QSeries.monomial(-24 * 100000, TRUNC), basis)
    assert (0, 2) not in basis._monomial_cache


def test_companion_refusals_name_the_companion():
    one = QSeries.constant(1, TRUNC)
    with pytest.raises(BasisError, match=r"^ys\[1\] must be a nonzero series$"):
        ModuleBasis(x=laurent(2, 3), ys=[one, QSeries.zero(TRUNC)])
    with pytest.raises(BasisError, match=r"^ys\[2\] must live on the "
                                         r"integer exponent grid$"):
        ModuleBasis(x=laurent(3, 3),
                    ys=[one, laurent(1, 3), QSeries({-24 * 2 + 1: 1}, TRUNC)])


@pytest.mark.parametrize("ys, message", [
    ([], r"^ys must start with the constant 1$"),
    ([QSeries.constant(2, TRUNC)], r"^ys\[0\] must be the constant series 1$"),
    ([QSeries({0: 1, 24: 1}, TRUNC)],
     r"^ys\[0\] must be the constant series 1$"),
    # a companion that is holomorphic at the zero cusp
    ([QSeries.constant(1, TRUNC), QSeries({0: 1, 24: 3}, TRUNC)],
     r"^y_1 must have a pole at the zero cusp$"),
])
def test_basis_refuses_companions_it_cannot_use(ys, message):
    with pytest.raises(BasisError, match=message):
        ModuleBasis(x=laurent(2, 3), ys=ys)


def test_order_incomplete_basis_rejected():
    one = QSeries.constant(1, TRUNC)
    # pole orders {0, 4} mod 2 collide: not order-complete
    with pytest.raises(BasisError):
        ModuleBasis(x=laurent(2, 3), ys=[one, laurent(4, 3)])
    # x alone with pole order 2 covers only one residue class
    with pytest.raises(BasisError):
        ModuleBasis(x=laurent(2, 3), ys=[one])


# -- localization ----------------------------------------------------------------

def level10_basis(trunc24=TRUNC):
    xs, xq = expand_at_zero(EtaQuotient(10, {1: -3, 2: 1, 5: -1, 10: 3}), 10, trunc24)
    z_eta = EtaQuotient(10, {1: -12, 2: 8, 5: 4})
    zs, zq = expand_at_zero(z_eta, 10, trunc24)
    one = QSeries.constant(1, trunc24)
    return ModuleBasis(x=xq.scaled(xs), ys=[one],
                       z=lambda: zq.scaled(zs),
                       z_orders=cusp_order_vector(z_eta, 10))


def test_localize_noop_when_already_in_module():
    basis = level10_basis()
    target = basis.x ** 2 + basis.x.scaled(3)
    orders = CuspOrderVector(10, ((1, Fraction(-2)), (2, Fraction(0)),
                                  (5, Fraction(0)), (10, Fraction(2))))
    rep = localize_reduce(target, basis, orders)
    assert rep.localizer_exponent == 0
    assert rep.coeffs == {(0, 2): 1, (0, 1): 3}


def test_localize_constructed_ratio():
    basis = level10_basis(24 * 80)
    # f = x / z has poles away from the zero cusp; z^1 clears them
    f = basis.x / basis.z()
    x_orders = {1: Fraction(-1), 2: Fraction(0), 5: Fraction(0), 10: Fraction(1)}
    z_orders = dict(basis.z_orders.orders)
    f_orders = CuspOrderVector(10, tuple(
        (c, x_orders[c] - z_orders[c]) for c in (1, 2, 5, 10)))
    rep = localize_reduce(f, basis, f_orders)
    assert rep.localizer_exponent == 1
    assert rep.coeffs == {(0, 1): 1}


def test_localize_requires_localizer():
    basis = genus1_basis()
    orders = CuspOrderVector(11, ((1, Fraction(-2)), (11, Fraction(1))))
    with pytest.raises(BasisError):
        localize_reduce(basis.x, basis, orders)


def test_invalid_localizer_detected():
    basis = level10_basis()
    bad_orders = CuspOrderVector(10, ((1, Fraction(-1)), (2, Fraction(0)),
                                      (5, Fraction(0)), (10, Fraction(1))))
    broken = ModuleBasis(x=basis.x, ys=basis.ys,
                         z=basis.z, z_orders=bad_orders)
    f_orders = CuspOrderVector(10, ((1, Fraction(-1)), (2, Fraction(-1)),
                                    (5, Fraction(0)), (10, Fraction(2))))
    with pytest.raises(BasisError):
        localize_reduce(basis.x, broken, f_orders)


# -- valuation tables ------------------------------------------------------------

def test_valuation_table_basic():
    basis = genus1_basis()
    target = basis.monomial(0, 0).scaled(5) + basis.monomial(0, 1).scaled(30)
    rep = reduce_module(target, basis)
    tab = valuation_table(rep, 5)
    assert tab.entries == {(0, 0): 1, (0, 1): 1}
    assert tab.min_valuation() == 1


def test_valuation_table_rejects_fractions():
    basis = genus1_basis()
    rep = reduce_module(basis.monomial(0, 1).scaled(Fraction(1, 2)), basis)
    with pytest.raises(ExactnessError):
        valuation_table(rep, 5)


def test_valuation_table_rejects_non_primes():
    basis = genus1_basis()
    rep = reduce_module(basis.monomial(0, 1).scaled(5), basis)
    for ell in (4, 1, -1, 0):
        with pytest.raises(SeriesError):
            valuation_table(rep, ell)
