"""Greedy principal-part elimination over a rank-(v+1) C[x] module basis.

Functions are handled through their chart expansions at the zero cusp.  A
basis consists of x (pole order d >= 1), companions y_0 = 1, y_1, ..., y_v,
and optionally a localizer z.  Order-completeness (the pole orders of the
monomials y_k x^m hit every large enough positive integer exactly once)
makes the greedy elimination deterministic; the finitely many unreachable
pole orders form the gap set, whose size equals the genus of the curve.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from .errors import (
    BasisError,
    ExactnessError,
    GapError,
    InternalInconsistencyError,
    ReductionError,
    TruncationError,
)
from .eta import CuspOrderVector
from .series import QSeries, Scalar, _check_prime, _norm, valuation

DEFAULT_GUARD = 10  # residual must be verifiably zero this many terms past q^0


def _pole_order(series: QSeries, what: str) -> int:
    if series.is_zero:
        raise BasisError(f"{what} must be a nonzero series")
    if not series.is_integer_grid:
        raise BasisError(f"{what} must live on the integer exponent grid")
    return -(series.offset24 // 24)


class ModuleBasis:
    """Reference functions spanning the space with poles only at the zero cusp.

    ys[0] must be the constant 1; x must have a genuine pole.  The basis is
    order-complete iff the companion pole orders hit each residue class mod
    the pole order of x exactly once, which is validated on construction.
    """

    def __init__(self, x: QSeries, ys: list[QSeries], level: int | None = None,
                 z: QSeries | None = None,
                 z_orders: CuspOrderVector | None = None, label: str = ""):
        self.x = x
        self.ys = ys
        self.level = level
        self.z = z
        self.z_orders = z_orders
        self.label = label
        self.x_order = _pole_order(self.x, "x")
        if self.x_order < 1:
            raise BasisError("x must have a pole at the zero cusp")
        if not self.ys:
            raise BasisError("ys must start with the constant 1")
        y0 = self.ys[0]
        if y0.support() != (0,) or y0.coeff24(0) != 1:
            raise BasisError("ys[0] must be the constant series 1")
        self.y_orders = [0]
        for k, y in enumerate(self.ys[1:], start=1):
            p = _pole_order(y, f"ys[{k}]")
            if p < 1:
                raise BasisError(f"ys[{k}] must have a pole at the zero cusp")
            self.y_orders.append(p)
        d = self.x_order
        residues = [p % d for p in self.y_orders]
        if len(set(residues)) != len(residues):
            raise BasisError(
                "basis not order-complete: companion pole orders collide mod "
                f"{d} (orders {self.y_orders})"
            )
        if len(residues) != d:
            raise BasisError(
                "basis not order-complete: companion pole orders cover "
                f"{len(set(residues))} of {d} residue classes mod {d}"
            )
        self._monomial_cache: dict[tuple[int, int], QSeries] = {(0, 1): self.x}

    def gap_set(self) -> tuple[int, ...]:
        """Pole orders no monomial y_k x^m attains (always finite here)."""
        attainable = set()
        top = max(self.y_orders) + self.x_order
        for p in self.y_orders:
            attainable.update(range(p, top + 1, self.x_order))
        return tuple(n for n in range(1, top + 1) if n not in attainable)

    def monomial_for_pole_order(self, order: int) -> tuple[int, int] | None:
        """Unique (k, m) with pole order of y_k x^m equal to `order`, if any."""
        hits = []
        for k, p in enumerate(self.y_orders):
            m, rem = divmod(order - p, self.x_order)
            if rem == 0 and m >= 0:
                hits.append((k, m))
        if not hits:
            return None
        if len(hits) > 1:
            raise InternalInconsistencyError(
                f"order-completeness violated: pole order {order} reached by "
                f"{hits}"
            )
        return hits[0]

    def x_power(self, m: int) -> QSeries:
        """x^m for m >= 1, cached as the monomial (0, m), built up from the
        highest power already cached."""
        cache = self._monomial_cache
        j = m
        while (0, j) not in cache:
            j -= 1
        for i in range(j + 1, m + 1):
            cache[0, i] = cache[0, i - 1] * self.x
        return cache[0, m]

    def window24(self, k: int, m: int) -> int:
        """The truncation of y_k x^m, found without building it: a product
        is known as far past its leading term as its shortest factor."""
        factors = ([self.ys[k]] if k else []) + ([self.x] if m else [])
        if not factors:
            return self.x.trunc24
        past = min(s.trunc24 - s.offset24 for s in factors)
        return past - 24 * (self.y_orders[k] + m * self.x_order)

    def monomial(self, k: int, m: int) -> QSeries:
        key = (k, m)
        if key not in self._monomial_cache:
            if m == 0:
                s = self.ys[k] if k else QSeries.constant(1, self.x.trunc24)
            elif k == 0:
                s = self.x_power(m)
            else:
                s = self.ys[k] * self.x_power(m)
            self._monomial_cache[key] = s
        return self._monomial_cache[key]

    def combine(self, coeffs: dict[tuple[int, int], Scalar],
                trunc24: int) -> QSeries:
        """sum c * y_k x^m over the (k, m) -> c entries, to q^(trunc24/24)."""
        acc = QSeries.zero(trunc24)
        for (k, m), c in coeffs.items():
            if c:
                acc = acc + self.monomial(k, m).scaled(c)
        return acc


class Representation:
    """f = z^(-n) * sum s_(k,m) y_k x^m, exact to the recorded truncation."""

    def __init__(self, localizer_exponent: int,
                 coeffs: dict[tuple[int, int], Scalar], residual: QSeries):
        self.localizer_exponent = localizer_exponent
        self.coeffs = coeffs
        self.residual = residual

    def polynomial(self) -> dict[int, Scalar]:
        """Degree -> coefficient view; only valid when every k is 0."""
        if any(k for k, _ in self.coeffs):
            raise ReductionError("representation is not a plain polynomial in x")
        return {m: c for (_, m), c in self.coeffs.items()}

    def to_json_obj(self) -> dict:
        quads = [[k, m, str(Fraction(c).numerator), str(Fraction(c).denominator)]
                 for (k, m), c in sorted(self.coeffs.items())]
        return {"localizer_exponent": self.localizer_exponent,
                "coeffs": quads,
                "residual_is_zero": self.residual.is_zero}


def _check_window(trunc24: int, guard: int, what: str) -> None:
    if trunc24 < 24 * guard:
        raise TruncationError(
            f"{what} known only to q^({trunc24}/24); the residual check "
            f"needs at least q^{guard} (guard={guard})"
        )


def reduce_module(f: QSeries, basis: ModuleBasis,
                  guard: int = DEFAULT_GUARD) -> Representation:
    """Express f (chart series at the zero cusp) over the basis.

    Greedy elimination of the current most negative exponent; the matching
    monomial is unique by order-completeness.  A pole order in the gap set
    raises GapError; a nonzero residual after constant elimination raises
    ReductionError.  Both checks are exact.
    """
    if not f.is_integer_grid:
        raise ReductionError("reduction target must have integer exponents")
    _check_window(f.trunc24, guard, "reduction target")
    original = f
    coeffs: dict[tuple[int, int], Scalar] = {}
    while not f.is_zero:
        lead_e, lead_c = f.leading()
        if lead_e >= 0:
            break
        order = -(lead_e // 24)
        km = basis.monomial_for_pole_order(order)
        if km is None:
            raise GapError(order)
        # checked before the monomial is built: a pole order far past the
        # truncation would otherwise cost one product per power of x
        _check_window(basis.window24(*km), guard,
                      f"basis monomial y_{km[0]} * x^{km[1]}")
        mon = basis.monomial(*km)
        c = _norm(Fraction(lead_c) / mon.leading()[1])
        f = f - mon.scaled(c)
        coeffs[km] = coeffs.get(km, 0) + c
    # constant elimination; anything left below truncation must vanish
    const = f.coeff24(0) if f.trunc24 > 0 else 0
    if const:
        coeffs[(0, 0)] = coeffs.get((0, 0), 0) + const
        f = f - QSeries.constant(const, f.trunc24)
    if not f.is_zero:
        bad_e, bad_c = f.leading()
        raise ReductionError(
            f"target is not in the module at this truncation: residual "
            f"coefficient {bad_c} at q^({bad_e}/24)"
        )
    rep = Representation(localizer_exponent=0, coeffs=coeffs, residual=f)
    _assert_round_trip(original, basis, rep)
    return rep


def _assert_round_trip(original: QSeries, basis: ModuleBasis,
                       rep: Representation) -> None:
    recon = basis.combine(rep.coeffs, original.trunc24)
    if not recon.agrees_with(original):
        raise InternalInconsistencyError(
            "re-expansion of the representation does not reproduce the input"
        )


def reduce_genus0(f: QSeries, x: QSeries,
                  guard: int = DEFAULT_GUARD) -> Representation:
    """Genus-0 special case: x has pole order exactly 1, f becomes a
    polynomial in x."""
    if _pole_order(x, "x") != 1:
        raise BasisError("genus-0 reduction needs x with pole order exactly 1")
    basis = ModuleBasis(x=x, ys=[QSeries.constant(1, x.trunc24)])
    return reduce_module(f, basis, guard=guard)


def localize_reduce(f: QSeries, basis: ModuleBasis,
                    f_orders: CuspOrderVector,
                    guard: int = DEFAULT_GUARD) -> Representation:
    """Multiply f by the least power of the localizer that clears its poles
    away from the zero cusp, then reduce.

    The power n comes from exact cusp-order arithmetic, never from trial
    expansion: n >= -ord_f(c) / ord_z(c) at every class c != 1.
    """
    if basis.z is None or basis.z_orders is None:
        raise BasisError("basis has no localizer")
    n = 0
    for c, z_ord in basis.z_orders.orders:
        if c == 1:
            if z_ord >= 0:
                raise BasisError("invalid localizer: no pole at the zero cusp")
            continue
        f_ord = f_orders.order(c)
        if f_ord >= 0:
            continue
        if z_ord < 1:
            raise BasisError(
                f"invalid localizer: cannot cancel the pole at cusp class {c}"
            )
        n = max(n, ceil(Fraction(-f_ord) / z_ord))
    target = f if n == 0 else f * basis.z ** n
    rep = reduce_module(target, basis, guard=guard)
    return Representation(localizer_exponent=n, coeffs=rep.coeffs,
                          residual=rep.residual)


class ValuationTable:
    """ell-adic valuations of a representation's coefficients."""

    def __init__(self, prime: int, entries: dict[tuple[int, int], int | None]):
        self.prime = prime
        self.entries = entries  # None encodes +infinity

    def min_valuation(self) -> int | None:
        vals = [v for v in self.entries.values() if v is not None]
        return min(vals) if vals else None

    def to_json_obj(self) -> dict:
        return {"prime": self.prime,
                "entries": [[k, m, v] for (k, m), v in sorted(self.entries.items())],
                "min_valuation": self.min_valuation()}


def valuation_table(rep: Representation, ell: int) -> ValuationTable:
    _check_prime(ell)
    entries: dict[tuple[int, int], int | None] = {}
    for (k, m), c in rep.coeffs.items():
        if not isinstance(c, int):
            raise ExactnessError(
                f"coefficient at (k={k}, m={m}) is not an integer: {c}"
            )
        entries[(k, m)] = valuation(c, ell)
    return ValuationTable(prime=ell, entries=entries)
