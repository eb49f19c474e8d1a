"""Tests for the exact q-series core."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from cusp_ledger.errors import ExactnessError, SeriesError, TruncationError
from cusp_ledger.families import catalog_load, shipped_catalog_path
from cusp_ledger.series import (
    _SERIES,
    QSeries,
    _norm,
    _series_terms,
    _theta_factors,
    pochhammer_expansion,
    pochhammer_product,
    valuation,
)

from oracles import (
    binomial_inverse_power,
    colored_partition_counts,
    distinct_partition_counts,
    elongated_diamond_counts,
    partition_counts,
    pochhammer_by_passes,
    poly_mul,
    product_expansion,
)

T = 24 * 40  # default working truncation for small tests


def qs(coeffs, trunc_q=40, start=0):
    return QSeries({24 * (start + i): v for i, v in enumerate(coeffs)},
                   24 * trunc_q)


def substitute(f, k):
    """f(q^k): every exponent and the truncation times k."""
    return QSeries({k * e: v for e, v in f.terms()}, k * f.trunc24)


def eta_series(delta, trunc24):
    """q^(delta/24) (q^delta; q^delta)_infinity, leading exponent24 delta."""
    return pochhammer_expansion(delta, trunc24 - delta).shift(delta)


def random_series(rng, trunc_q=20, invertible=False, lo=-9, hi=9):
    coeffs = [rng.randint(lo, hi) for _ in range(trunc_q)]
    if invertible:
        while coeffs[0] == 0:
            coeffs[0] = rng.randint(lo, hi)
    return qs(coeffs, trunc_q)


# -- ring operations ---------------------------------------------------------

def test_difference_of_squares():
    one_plus = qs([1, 1])
    one_minus = qs([1, -1])
    prod = one_plus * one_minus
    assert prod.coeff_q(0) == 1
    assert prod.coeff_q(1) == 0
    assert prod.coeff_q(2) == -1


def test_additive_identity():
    a = qs([3, -2, 7])
    assert (a + QSeries.zero(24 * 40)) == a


def test_partition_times_pochhammer_is_one():
    # (sum p(n) q^n) * (q;q)_inf = 1, with p(n) from the DP oracle
    n = 60
    p = partition_counts(n)
    series = qs(p, n + 1)
    prod = series * pochhammer_expansion(1, 24 * (n + 1))
    assert prod.coeff_q(0) == 1
    for m in range(1, n):
        assert prod.coeff_q(m) == 0


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(30):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        assert (a + b).agrees_with(b + a)
        assert (a * b).agrees_with(b * a)
        assert ((a + b) + c).agrees_with(a + (b + c))
        assert ((a * b) * c).agrees_with(a * (b * c))
        assert (a * (b + c)).agrees_with(a * b + a * c)


def test_mul_truncation_propagation():
    a = QSeries({24: 1}, 24 * 5)   # q + O(q^5)
    b = QSeries({0: 1}, 24 * 3)    # 1 + O(q^3)
    prod = a * b
    assert prod.trunc24 == 24 * 4  # min(5 + 1, 3 + 1) in q-units... exactly
    assert prod.coeff_q(1) == 1
    with pytest.raises(TruncationError):
        prod.coeff_q(4)


# -- inversion / powers -------------------------------------------------------

def test_invert_pochhammer_gives_partition_numbers():
    inv = pochhammer_expansion(1, 24 * 40).invert()
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]
    assert [inv.coeff_q(n) for n in range(12)] == expected


def test_invert_one():
    one = QSeries.constant(1, T)
    assert one.invert() == one


def test_invert_geometric():
    inv = qs([1, -1]).invert()
    for n in range(30):
        assert inv.coeff_q(n) == 1


def test_invert_round_trip_random():
    rng = random.Random(11)
    for _ in range(100):
        a = random_series(rng, invertible=True)
        prod = a * a.invert()
        assert prod.coeff_q(0) == 1
        for e, v in prod.terms():
            if e != 0:
                assert v == 0


def test_invert_zero_fails():
    with pytest.raises(SeriesError):
        QSeries.zero(T).invert()


def test_pow_zero():
    a = qs([2, 5, 1])
    assert (a ** 0).coeff_q(0) == 1
    assert len((a ** 0).support()) == 1


def test_pow_exponent_bookkeeping():
    q24 = QSeries.monomial(1, 1 + 24 * 4)  # q^(1/24)
    assert (q24 ** 24).coeff_q(1) == 1


def test_pow_negative_binomial():
    got = qs([1, -1]) ** -2
    expected = binomial_inverse_power(2, 30)
    assert [got.coeff_q(n) for n in range(30)] == expected[:30]


def test_pow_negative_of_zero_fails():
    with pytest.raises(SeriesError):
        QSeries.zero(T) ** -1


# -- eta expansions -----------------------------------------------------------

def test_eta_expansion_matches_bruteforce_product():
    brute = product_expansion(500)
    eta = eta_series(1, 24 * 500)
    assert eta.offset24 == 1
    for n in range(500):
        assert eta.coeff24(1 + 24 * n) == brute[n]


def test_eta_expansion_prefix():
    eta = eta_series(1, 24 * 20)
    prefix = [eta.coeff24(1 + 24 * n) for n in range(16)]
    assert prefix == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]


def test_eta_expansion_rescale_consistency():
    e1 = eta_series(1, 24 * 30)
    e2 = eta_series(2, 24 * 60)
    assert e2.offset24 == 2
    assert substitute(e1, 2).agrees_with(e2)


def test_eta_ratio_counts_distinct_partitions():
    pd = distinct_partition_counts(40)
    ratio = eta_series(2, 24 * 42) / eta_series(1, 24 * 42)
    assert ratio.offset24 == 1
    for n in range(38):
        assert ratio.coeff24(1 + 24 * n) == pd[n]


def test_pochhammer_product_matches_oracle():
    # (q^2;q^2)^2 / (q;q)^7 generates the 2-elongated diamond counts
    series = pochhammer_product(((1, -7), (2, 2)), 24 * 60)
    assert series.trunc24 == 24 * 60
    assert [series.coeff_q(n) for n in range(60)] == elongated_diamond_counts(59)
    assert pochhammer_product((), 24 * 5) == QSeries.constant(1, 24 * 5)
    n = 300
    for exponents, want in ((((1, -1),), partition_counts(n)),
                            (((1, -5),), colored_partition_counts(n, 5)),
                            (((3, 1),), product_expansion(n, 3)),
                            (((1, -7), (2, 2)), elongated_diamond_counts(n))):
        series = pochhammer_product(exponents, 24 * (n + 1))
        assert [series.coeff_q(k) for k in range(n + 1)] == want, exponents


def reference_pochhammer_product(exponents, trunc24):
    """The previous kernel, kept as a reference: QSeries powers of the
    positive factors, then generic division by each negative power."""
    series = QSeries.constant(1, trunc24)
    for d, r in exponents:
        if r > 0:
            series = series * pochhammer_expansion(d, trunc24) ** r
    for d, r in exponents:
        for _ in range(-r):
            series = series / pochhammer_expansion(d, trunc24)
    return series


def oracle_pochhammer_coeffs(exponents, n_max):
    """a(0..n_max) of prod (q^d;q^d)^r from the DP counters of oracles.py:
    colored partitions for the negative powers, direct products for the
    positive ones, each rescaled q -> q^d."""
    out = [1] + [0] * n_max
    for d, r in exponents:
        if r > 0:
            base = product_expansion(n_max, d)
            for _ in range(r):
                out = poly_mul(out, base, n_max)
        elif r < 0:
            colored = colored_partition_counts(n_max // d, -r)
            out = poly_mul(out, [colored[n // d] if n % d == 0 else 0
                                 for n in range(n_max + 1)], n_max)
    return out


exponent_tuples = st.dictionaries(
    st.integers(1, 6), st.integers(-8, 8), max_size=4,
).map(lambda e: tuple(sorted(e.items())))

D2_7 = ((1, -7), (2, 2))
CPHI2_5 = ((1, -4), (2, 5), (4, -2))
LEVEL_5_CHART = ((1, 6), (5, -6))  # the level-5 basis x at the zero cusp
LEVEL_7_CHART = ((1, 4), (7, -4))
LEVEL_10_CHART = ((1, 3), (2, -1), (5, 1), (10, -3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(exponent_tuples,
       st.one_of(st.builds(lambda n, r: 24 * n + r,
                           st.integers(2, 120), st.integers(0, 23)),
                 st.integers(-60, 0), st.sampled_from([1, 23, 24, 25])))
@example(D2_7, 24 * 100)
@example(CPHI2_5, 24 * 90 + 11)
@example(LEVEL_5_CHART, 24 * 100 + 5)
@example(LEVEL_7_CHART, 24 * 100)
@example(LEVEL_10_CHART, 24 * 100 + 23)
@example(((1, -1), (1, 3)), 24 * 60)  # one divisor twice: a product
def test_pochhammer_product_matches_reference_kernel(exponents, trunc24):
    got = pochhammer_product(exponents, trunc24)
    if trunc24 <= 0:
        # nothing is known below a nonpositive truncation
        assert got == QSeries.zero(trunc24)
        return
    assert got == reference_pochhammer_product(exponents, trunc24)
    n_max = (trunc24 - 1) // 24
    coeffs = [got.coeff_q(n) for n in range(n_max + 1)]
    assert coeffs == pochhammer_by_passes(exponents, n_max + 1)
    assert coeffs == oracle_pochhammer_coeffs(exponents, n_max)


def _conjugate(quotient, level):
    """The quotient's exponents under delta -> N/delta: what its
    expansion at the zero cusp of X_0(N) runs through the kernel."""
    return tuple(sorted((level // d, r) for d, r in quotient.exponents))


def _kernel_shapes():
    """Every exponent vector that the shipped catalog puts through the
    kernel: generators, prefactors and multipliers, tower-identity
    quotients at both cusps, and basis quotients at the zero cusp."""
    catalog = catalog_load(shipped_catalog_path())
    shapes = set()
    for spec in catalog.families:
        shapes.add(spec.generator.exponents)
        for p in (*spec.prefactors.values(), *spec.multipliers.values()):
            shapes.add(p.exponents)
        for identity in spec.tower_identities.values():
            for term in identity:
                shapes.add(term.quotient.exponents)
                shapes.add(_conjugate(term.quotient, spec.level))
    for basis in catalog.bases:
        for source in (basis.x, *basis.ys, basis.z):
            if hasattr(source, "exponents"):
                shapes.add(_conjugate(source, basis.level))
    return sorted(shapes)


def _passes(exponents):
    return sum(abs(power) for _, _, power in _theta_factors(exponents))


def test_pochhammer_product_catalog_shapes():
    shapes = _kernel_shapes()
    for want in (LEVEL_5_CHART, LEVEL_7_CHART, LEVEL_10_CHART,
                 ((2, 4), (5, 8), (10, -12))):  # the level-10 localizer
        assert want in shapes
    for exponents in shapes:
        assert _passes(exponents) <= sum(abs(r) for _, r in exponents)
        for t in (24 * 400, 24 * 400 + 7):
            got = pochhammer_product(exponents, t)
            assert got == reference_pochhammer_product(exponents, t), exponents
            n = -(-t // 24)
            assert [got.coeff_q(k) for k in range(n)] \
                == pochhammer_by_passes(exponents, n), exponents


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(exponent_tuples)
def test_theta_factors_never_add_passes(exponents):
    # the factors multiply back to the vector, in no more passes than one
    # pentagonal pass per unit of |r|
    product = {}
    for kind, d, power in _theta_factors(exponents):
        for m, r in _SERIES[kind][0]:
            product[d * m] = product.get(d * m, 0) + power * r
    assert {d: r for d, r in product.items() if r} \
        == {d: r for d, r in exponents if r}
    assert _passes(exponents) <= sum(abs(r) for _, r in exponents)


@pytest.mark.parametrize("exponents, passes", [
    (D2_7, 3),             # one psi scatter, two Jacobi divisions (was 9)
    (CPHI2_5, 3),          # one phi scatter, two Euler divisions (was 11)
    (LEVEL_5_CHART, 4),    # two Jacobi scatters and divisions (was 12)
    (LEVEL_7_CHART, 4),    # was 8
    (LEVEL_10_CHART, 4),   # was 8
    (((1, -1),), 1),       # p-5, p-7, p-11: one Euler division
    (((1, -1), (2, 1)), 2),  # pd-5
])
def test_theta_factor_pass_counts(exponents, passes):
    assert _passes(exponents) == passes


@pytest.mark.parametrize("kind", range(len(_SERIES)))
@pytest.mark.parametrize("delta", [0, -1])
def test_series_builders_refuse_nonpositive_delta(kind, delta):
    with pytest.raises(SeriesError, match="delta must be a positive integer"):
        _series_terms(kind, delta, 10)


# -- U_ell --------------------------------------------------------------------

def test_u_operator_definition():
    a = qs([0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1])  # q^5 + q^6 + q^10
    u = a.u_operator(5)
    assert u.coeff_q(1) == 1
    assert u.coeff_q(2) == 1
    assert [e for e, _ in u.terms()] == [24, 48]


def test_u_operator_section_property():
    rng = random.Random(3)
    for ell in (2, 3, 5):
        f = random_series(rng, trunc_q=12)
        assert substitute(f, ell).u_operator(ell).agrees_with(f)


def test_u_operator_linearity_and_twist():
    # U_ell(f(q^ell) * g) = f * U_ell(g)
    rng = random.Random(5)
    for ell in (2, 5):
        f = random_series(rng, trunc_q=10)
        g = random_series(rng, trunc_q=30)
        h = random_series(rng, trunc_q=30)
        left = (substitute(f, ell) * g).u_operator(ell)
        right = f * g.u_operator(ell)
        assert left.agrees_with(right)
        lin = (g + h).u_operator(ell)
        assert lin.agrees_with(g.u_operator(ell) + h.u_operator(ell))


def test_u_operator_rejects_fractional_exponents():
    with pytest.raises(SeriesError):
        eta_series(1, 24 * 10).u_operator(5)


# -- slicing ------------------------------------------------------------------

def test_slice_partition_progression():
    p = partition_counts(60)
    series = qs(p, 61)
    sliced = series.progression_slice(24, 5, 1)
    assert [sliced.coeff_q(m) for m in range(5)] == [5, 30, 135, 490, 1575]


def test_slice_of_one_is_zero():
    one = QSeries.constant(1, T)
    assert one.progression_slice(7, 5, 1).is_zero


def test_slice_distinct_parts_progression():
    pd = distinct_partition_counts(40)
    series = qs(pd, 41)
    # 24n = -1 (mod 5)  <=>  n = 1 (mod 5)
    sliced = series.progression_slice(24, 5, 1, target=-1)
    assert [sliced.coeff_q(m) for m in range(6)] == [
        pd[1], pd[6], pd[11], pd[16], pd[21], pd[26]]


def test_slice_indexing_exhaustive():
    rng = random.Random(13)
    a = random_series(rng, trunc_q=60)
    for lam, ell, alpha, target in ((24, 5, 1, 1), (7, 3, 2, 1), (5, 2, 3, -1)):
        mod = ell ** alpha
        r = (pow(lam, -1, mod) * target) % mod
        sliced = a.progression_slice(lam, ell, alpha, target=target)
        for m in range((60 - r) // mod):
            assert sliced.coeff_q(m) == a.coeff_q(mod * m + r)


def test_slice_u_consistency_lambda_one():
    rng = random.Random(17)
    a = random_series(rng, trunc_q=60)
    for ell, alpha in ((5, 1), (3, 2)):
        # slicing on n = 1 (mod ell^alpha) equals shifting a(n) -> exponent n-1
        # and applying U_ell alpha times
        direct = a.progression_slice(1, ell, alpha)
        shifted = a.shift(-24)
        for _ in range(alpha):
            shifted = shifted.u_operator(ell)
        assert direct.agrees_with(shifted)


def test_slice_gcd_violation():
    with pytest.raises(SeriesError):
        qs([1, 1]).progression_slice(10, 5, 1)


def test_slice_matches_shifted_u_on_partition_series():
    # extracting p(5m+4) via the slice equals U_5 after shifting exponents by -4
    p = partition_counts(60)
    series = qs(p, 61)
    sliced = series.progression_slice(24, 5, 1)
    shifted = series.shift(-24 * 4).u_operator(5)
    assert sliced.agrees_with(shifted)


# -- valuations ---------------------------------------------------------------

def test_padic_valuation_rodseth_depths():
    pd = distinct_partition_counts(700)
    series = qs(pd, 701)
    # modulus 5^3 pairs with divisibility 5^1
    depth1 = series.progression_slice(24, 5, 3, target=-1).terms()
    assert depth1 and min(valuation(c, 5) for _, c in depth1) >= 1
    # modulus 5^5 pairs with divisibility 5^2 (one qualifying n = 651 here)
    depth2 = series.progression_slice(24, 5, 5, target=-1).terms()
    assert depth2 and min(valuation(c, 5) for _, c in depth2) >= 2


def test_valuation_helper():
    assert valuation(0, 5) is None
    assert valuation(1, 5) == 0 and valuation(-1, 5) == 0
    assert valuation(5 ** 3 * 7, 5) == 3
    assert valuation(-(5 ** 3) * 7, 5) == 3
    assert valuation(-7, 5) == 0


def test_valuation_refuses_units_and_zero_base():
    # ell in {1, -1} used to loop forever
    for ell in (1, -1, 0):
        with pytest.raises(SeriesError):
            valuation(5, ell)
        with pytest.raises(SeriesError):
            valuation(0, ell)


# -- bookkeeping --------------------------------------------------------------

def test_truncation_is_hard_boundary():
    a = qs([1, 2, 3], trunc_q=3)
    with pytest.raises(TruncationError):
        a.coeff_q(3)


def test_floats_rejected():
    with pytest.raises(ExactnessError):
        QSeries({0: 0.5}, T)


def test_scalar_mixing_and_normalisation():
    a = qs([4, 6]).scaled(Fraction(1, 2))
    assert a.coeff_q(0) == 2
    assert isinstance(a.coeff_q(0), int)


def test_serialization_round_trip():
    a = QSeries({-24: Fraction(3, 7), 0: 2, 25: -1}, 24 * 9)
    assert QSeries.from_json_obj(a.to_json_obj()) == a


# -- the dict-backed series, kept as a reference for the dense kernel ----------

class ReferenceSeries:
    """The previous QSeries: a dict exponent24 -> int/Fraction coefficient,
    with every ring operation in Fraction arithmetic."""

    def __init__(self, entries, trunc24):
        items = entries.items() if isinstance(entries, dict) else entries
        self.trunc24 = int(trunc24)
        self._c = {}
        for e, v in items:
            if e < self.trunc24:
                v = _norm(v)
                if v:
                    self._c[int(e)] = v

    @classmethod
    def constant(cls, value, trunc24):
        return cls({0: value}, trunc24)

    @property
    def is_zero(self):
        return not self._c

    @property
    def offset24(self):
        return min(self._c) if self._c else self.trunc24

    @property
    def is_integer_grid(self):
        return all(e % 24 == 0 for e in self._c)

    def terms(self):
        return sorted(self._c.items())

    def to_json_obj(self):
        return {"terms": [[e, str(Fraction(v).numerator),
                           str(Fraction(v).denominator)]
                          for e, v in self.terms()],
                "trunc24": self.trunc24}

    def _binop_add(self, other, sign):
        out = dict(self._c)
        for e, v in other._c.items():
            out[e] = out.get(e, 0) + sign * v
        return ReferenceSeries(out, min(self.trunc24, other.trunc24))

    def __add__(self, other):
        return self._binop_add(other, 1)

    def __sub__(self, other):
        return self._binop_add(other, -1)

    def scaled(self, factor):
        factor = _norm(factor)
        return ReferenceSeries({e: v * factor for e, v in self._c.items()},
                               self.trunc24)

    def __mul__(self, other):
        t = min(self.trunc24 + other.offset24, other.trunc24 + self.offset24)
        out = {}
        for ea, ca in self._c.items():
            for eb, cb in other._c.items():
                if ea + eb < t:
                    out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        return ReferenceSeries(out, t)

    def __truediv__(self, b):
        if b.is_zero:
            raise SeriesError("non-invertible: zero series")
        eb0, ea0 = b.offset24, self.offset24
        b0 = b._c[eb0]
        rel_out = min(self.trunc24 - ea0, b.trunc24 - eb0)
        trunc = ea0 - eb0 + rel_out
        if self.is_zero:
            return ReferenceSeries({}, trunc)
        stride = 0
        for s in [e - ea0 for e in self._c] + [e - eb0 for e in b._c]:
            stride = gcd(stride, s)
        out = {}
        for k in range(0, rel_out, stride or max(rel_out, 1)):
            acc = self._c.get(ea0 + k, 0)
            for eb, cb in b._c.items():
                if eb != eb0 and k - (eb - eb0) in out:
                    acc -= cb * out[k - (eb - eb0)]
            if acc:
                out[k] = Fraction(acc) / b0
        return ReferenceSeries({ea0 - eb0 + k: v for k, v in out.items()},
                               trunc)

    def invert(self):
        return ReferenceSeries.constant(1, self.trunc24 - self.offset24) / self

    def __pow__(self, k):
        if k == 0:
            return ReferenceSeries.constant(1, self.trunc24 - self.offset24)
        if k < 0:
            return self.invert() ** -k
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def shift(self, delta24):
        return ReferenceSeries({e + delta24: v for e, v in self._c.items()},
                               self.trunc24 + delta24)

    def truncate(self, trunc24):
        return ReferenceSeries(self._c, trunc24)

    def u_operator(self, ell):
        if not self.is_integer_grid or self.trunc24 % 24:
            raise SeriesError("U_ell needs the integer grid")
        return ReferenceSeries({24 * (e // 24 // ell): v
                                for e, v in self._c.items()
                                if (e // 24) % ell == 0},
                               24 * ((self.trunc24 // 24) // ell))

    def progression_slice(self, lam, ell, alpha, target=1):
        if not self.is_integer_grid:
            raise SeriesError("slicing requires integer exponents")
        mod = ell ** alpha
        r = (pow(lam, -1, mod) * target) % mod
        n_unknown = -((-self.trunc24) // 24)
        return ReferenceSeries({24 * ((e // 24 - r) // mod): v
                                for e, v in self._c.items()
                                if (e // 24) % mod == r},
                               24 * -(-(n_unknown - r) // mod))


def both(entries, trunc24):
    return QSeries(entries, trunc24), ReferenceSeries(entries, trunc24)


def assert_same(got, want):
    """The dense series equals the reference, field for field and byte for
    byte, and is the canonical form of the reference's terms."""
    assert isinstance(got, QSeries)
    assert got.terms() == want.terms()
    assert (got.offset24, got.trunc24) == (want.offset24, want.trunc24)
    assert got.to_json_obj() == want.to_json_obj()
    assert got == QSeries(want.terms(), want.trunc24)
    assert got.is_integer_grid == want.is_integer_grid


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (SeriesError, ExactnessError, TruncationError) as exc:
        return type(exc), str(exc)


def oracle_mul(a, b):
    """a * b by oracles.poly_mul over the 1/24 grid, from each offset."""
    t = min(a.trunc24 + b.offset24, b.trunc24 + a.offset24)
    if a.is_zero or b.is_zero:
        return {}, t
    oa, ob = a.offset24, b.offset24
    la = [0] * (a.terms()[-1][0] - oa + 1)
    lb = [0] * (b.terms()[-1][0] - ob + 1)
    for lst, s, o in ((la, a, oa), (lb, b, ob)):
        for e, v in s.terms():
            lst[e - o] = v
    prod = poly_mul(la, lb, t - oa - ob - 1)
    return {oa + ob + k: v for k, v in enumerate(prod) if v}, t


scalars = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 5, 7, 49])))


@st.composite
def series_entries(draw, max_size=7):
    """(entries, trunc24): offsets off the integer grid, residues mixed mod
    24 or shared, Fraction coefficients, zero and one-term series, and
    truncations at or below 0."""
    residues = draw(st.sampled_from([(0,), (0,), (5,), (0, 12), (1, 7, 23)]))
    exps = st.builds(lambda k, r: 24 * k + r, st.integers(-3, 8),
                     st.sampled_from(residues))
    entries = draw(st.dictionaries(exps, scalars, max_size=max_size))
    trunc24 = draw(st.one_of(
        st.integers(-30, 0),
        st.builds(lambda k, r: 24 * k + r, st.integers(1, 11),
                  st.sampled_from([0, 0, 5, 13]))))
    return entries, trunc24


hyp = settings(max_examples=150, deadline=None, derandomize=True,
               database=None)


@hyp
@given(series_entries(), series_entries())
def test_dense_ring_operations_match_reference(ea, eb):
    a, ra = both(*ea)
    b, rb = both(*eb)
    assert_same(a, ra)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(a * b, ra * rb)
    want, t = oracle_mul(ra, rb)
    assert (a * b).trunc24 == t
    assert dict((a * b).terms()) == want
    t = min(a.trunc24, b.trunc24)
    assert a.agrees_with(b) == ({e: v for e, v in ra.terms() if e < t}
                                == {e: v for e, v in rb.terms() if e < t})
    assert a.agrees_with(a + b - b)
    if not b.is_zero:
        assert_same(a / b, ra / rb)
        assert_same(b.invert(), rb.invert())


@hyp
@given(series_entries(), scalars, st.integers(-3, 4), st.integers(-40, 40),
       st.integers(0, 60))
def test_dense_unary_operations_match_reference(ea, c, k, delta, cut):
    a, ra = both(*ea)
    assert_same(a.scaled(c), ra.scaled(c))
    assert_same(-a, ra.scaled(-1))
    assert_same(a.shift(delta), ra.shift(delta))
    assert_same(a.truncate(a.trunc24 - cut), ra.truncate(ra.trunc24 - cut))
    if k >= 0 or not a.is_zero:
        assert_same(a ** k, ra ** k)
    else:
        assert outcome(a.__pow__, k)[0] is SeriesError
    assert QSeries.from_json_obj(a.to_json_obj()) == a


@hyp
@given(series_entries(), st.sampled_from([2, 3, 5, 7]), st.integers(1, 3),
       st.integers(-3, 3), st.sampled_from([1, 7, 24]))
def test_dense_slicing_and_valuation_match_reference(ea, ell, alpha, target,
                                                     lam):
    a, ra = both(*ea)
    pairs = [(outcome(a.u_operator, ell), outcome(ra.u_operator, ell))]
    if lam % ell:
        pairs.append((outcome(a.progression_slice, lam, ell, alpha, target),
                      outcome(ra.progression_slice, lam, ell, alpha, target)))
    for got, want in pairs:
        if isinstance(want, ReferenceSeries):
            assert_same(got, want)
        else:
            assert got[0] is want[0] is SeriesError


def test_dense_form_is_canonical():
    # the same series built along different routes has the same fields
    a = QSeries({-24: Fraction(3, 7), 0: 2, 25: -1}, 24 * 9)
    b = (a.scaled(14) + QSeries({25: 14}, 24 * 9)).scaled(Fraction(1, 14))
    assert b == a.truncate(24 * 9) - QSeries({25: -1}, 24 * 9)
    assert (a - a) == QSeries.zero(24 * 9)
    assert (a - a).offset24 == 24 * 9
    # cancelling the off-grid term puts the series back on a step-24 grid
    c = a + QSeries({25: 1}, 24 * 9)
    assert c.is_integer_grid and c.support() == (-24, 0)
