"""Congruence families as data: towers, verification, classification, catalog.

A family asserts ell^beta | a(n) whenever lam*n = target (mod ell^m), where
the coefficients a(n) come from an eta-quotient generating function.  The
verification schedule maps a depth index alpha to an explicit
(modulus exponent, divisibility exponent) pair, so conventions like pairing
modulus 5^(2a+1) with divisor 5^a need no special casing.

The tower series L_j (one per slicing depth j) can be built two independent
ways: directly, by slicing the generating function and applying a recorded
prefactor, or recursively, by U_ell steps with recorded multipliers.  The two
constructions cross-validate each other.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from .curves import Record, curve_profile
from .errors import (
    SAFE_INT_DIGITS,
    CatalogError,
    CuspLedgerError,
    FamilyError,
    IdentityMismatchError,
    LongDecimal,
    SeriesError,
    check_digits,
    check_long,
    int_digits,
    shown,
)
from .eta import (
    CuspOrderVector,
    EtaQuotient,
    cusp_order_bounds,
    cusp_order_vector,
    expand_at_infinity,
    expand_at_zero,
    exponent_vector,
    newman_sums,
    require_expandable,
    require_on_gamma0,
    zero_cusp_checked,
    zero_cusp_image,
)
from .reduction import ModuleBasis, check_pole_orders, pole_order
from .series import (QSeries, combination, is_prime, numstr,
                     pochhammer_product, valuation)


def json_key(key: str, what: str) -> int:
    """An integer key of the JSON object `what` in canonical decimal form:
    ASCII digits, optionally negative, no leading zero and no '-0' (int()
    also takes '01', '+1', ' 1', '1_0'), and no more than check_digits."""
    digits = key.removeprefix("-")
    if not (digits.isdigit() and digits.isascii()) \
            or (digits[0] == "0" and key != "0"):
        raise ValueError(f"key {shown(key)} is not a canonical ASCII decimal")
    if len(digits) > SAFE_INT_DIGITS:  # its words are built only past it
        check_digits(len(digits), f"{what} keys")
    return int(key)


def json_field(value, what: str, kind: type = dict, size: int = 0):
    """A field of a JSON document of the type kind, as it stands (int()
    would truncate a float or parse a string, and type() keeps a bool from
    int), a list of `size` items where a size is given."""
    if type(value) is not kind or size and len(value) != size:
        if kind is int:
            check_long(value, what)
        name = {dict: "a JSON object", list: "a JSON list", int: "an integer",
                str: "a string"}[kind] + (f" of {size} items" if size else "")
        raise ValueError(f"{what} must be {name}, got {shown(value)}")
    return value


def json_ratio(value, what: str) -> tuple[int, int]:
    """A rational field of a JSON document, a JSON integer or an ASCII
    decimal string "p" or "p/q" (int() also reads other scripts' digits), as
    ints (p, q), q = 1 for "p", q not 0 and neither past check_digits."""
    if type(value) is int:
        return value, 1
    if type(value) is str and value.isascii():
        p, slash, q = value.partition("/")
        if (digits := p.removeprefix("-")).isdecimal() \
                and (q.isdecimal() or not slash):
            if (n := max(len(digits), len(q))) > SAFE_INT_DIGITS:
                check_digits(n, f"a {what}")
            if slash and not int(q):
                raise ValueError(
                    f"{what} has a zero denominator: {shown(value)}")
            return int(p), int(q) if slash else 1
    check_long(value, f"a {what}")
    raise ValueError(f"{what} must be an integer or an ASCII decimal string "
                     f"'p' or 'p/q', got {shown(value)}")


def _exponents(r, level: int | None = None) -> tuple[tuple[int, int], ...]:
    """An exponent map {"delta": r_delta, ...} in one pass, key by key."""
    return exponent_vector(((json_key(k, "r"), e) for k, e in
                            json_field(r, "r").items()), level)


def _eta_from_json(obj, what: str) -> EtaQuotient:
    """The eta quotient {"M": level, "r": exponent map} of the field `what`,
    its exponents read once (_exponents), not again by __init__."""
    level = json_field(json_field(obj, what)["M"], "M", int)
    return EtaQuotient._known(level, _exponents(obj["r"], level))


def _series_from_json(obj) -> QSeries:
    """The exact Laurent series {"terms": [[exponent24, numerator,
    denominator], ...], "trunc24": t} of a basis function."""
    obj, entries = json_field(obj, "series"), {}
    for term in json_field(obj["terms"], "terms", list):
        e, num, den = json_field(term, "term", list, 3)
        a, b = json_ratio(num, "numerator")
        c, d = json_ratio(den, "denominator")
        if not c:
            raise ValueError(f"denominator must be nonzero, got {shown(den)}")
        entries[json_field(e, "exponent", int)] = \
            a * d if b * c == 1 else Fraction(a * d, b * c)
    return QSeries(entries, json_field(obj["trunc24"], "trunc24", int))


class PochhammerProduct(Record):
    """q^qpow * prod (q^d; q^d)^e_d: an integer series with leading coefficient 1.

    This is the shape of tower prefactors and U-step multipliers; unlike an
    eta quotient proper it carries no fractional q-power.  exponents are
    sorted nonzero pairs ((d, e_d), ...), as eta.exponent_vector gives them.
    """

    _fields = ("qpow", "exponents")

    def is_one(self) -> bool:
        return self.qpow == 0 and not self.exponents

    def expand(self, trunc24: int) -> QSeries:
        rel = trunc24 - 24 * self.qpow
        return pochhammer_product(self.exponents, rel).shift(24 * self.qpow)

    @classmethod
    def from_json_obj(cls, obj: dict, what: str) -> "PochhammerProduct":
        # filled as read, in _fields order, as Record.__init__ would fill it
        obj, self = json_field(obj, what), cls.__new__(cls)
        self.qpow = json_field(obj.get("qpow", 0), "qpow", int)
        self.exponents = _exponents(obj.get("r", {}))
        return self


class ScheduleStep(Record):
    """One verification depth: slice modulo ell^modulus_exponent, demand
    divisibility by ell^beta."""

    _fields = ("modulus_exponent", "beta")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScheduleStep":
        obj, self = json_field(obj, "schedule entry"), cls.__new__(cls)
        self.modulus_exponent = json_field(obj["modulus"], "modulus", int)
        self.beta = json_field(obj["beta"], "beta", int)
        return self


class EtaTerm(Record):
    """scale * (eta quotient): one summand of a recorded tower identity."""

    _fields = ("scale", "quotient")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EtaTerm":
        obj, self = json_field(obj, "identity term"), cls.__new__(cls)
        self.scale = Fraction(*json_ratio(obj["scale"], "scale"))
        self.quotient = _eta_from_json(obj["eta"], "eta")
        return self


IDENTITY_CHECK_TERMS = 8  # q-terms of the cross-check at infinity


class FamilySpec(Record):
    """All data defining one congruence family."""

    _fields = ("name", "generator", "prime", "lam", "level", "target_residue",
               "schedule", "prefactors", "multipliers", "tower_identities")

    def validate(self) -> None:
        if not is_prime(self.prime):
            raise FamilyError(f"family {self.name}: {self.prime} is not prime")
        # the family's curve is X_0(lcm(M, ell)), read off its data
        level = lcm(self.generator.level, self.prime)
        if self.level != level:
            raise FamilyError(
                f"family {self.name}: level must be lcm(generator level "
                f"{self.generator.level}, prime {self.prime}) = {level}, "
                f"got {self.level}")
        if gcd(self.lam, self.prime) != 1:
            raise FamilyError(
                f"family {self.name}: lam {self.lam} shares a factor with "
                f"the prime {self.prime}")
        for a, step in self.schedule.items():
            if a < 1 or step.modulus_exponent < 1 or step.beta < 1:
                raise FamilyError(
                    f"family {self.name}: bad schedule entry at depth {a}")
        for a, terms in self.tower_identities.items():
            for t in terms:
                weight, degree24, zero, odd = newman_sums(t.quotient,
                                                          self.level)
                if self.level % t.quotient.level or weight or degree24 % 24 \
                        or zero % 24 or odd:
                    raise FamilyError(
                        f"family {self.name}: depth-{a} identity term "
                        f"{t.quotient} is not a function on X_0({self.level})")
                if degree24 >= 24 * IDENTITY_CHECK_TERMS:
                    raise FamilyError(
                        f"family {self.name}: depth-{a} identity term "
                        f"{t.quotient} starts at q^({degree24}/24), "
                        f"past the {IDENTITY_CHECK_TERMS}-term check at infinity")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

CLASSICAL = "Classical"
LOCALIZATION = "Localization"
NO_SYSTEMATIC = "NoSystematicMethods"
SPORADIC = "Unclassified-Sporadic"


class ClassificationReport(Record):
    _fields = ("level", "prime", "cusp_count", "genus", "difficulty_class",
               "tedium_score", "sporadic_flags")


def classify(N: int, prime: int | None = None) -> ClassificationReport:
    """Difficulty from the cusp count, tedium from the genus.

    Cusp count 2 -> classical methods; 4 -> localization; 6 or more -> no
    systematic methods.  Odd cusp counts (N = 1, 4) and prime 2 fall outside
    the table and are reported as sporadic.  A given prime must divide N.
    """
    profile = curve_profile(N)
    if prime is not None:
        if not is_prime(prime):
            raise FamilyError(f"{prime} is not prime")
        if N % prime:
            raise FamilyError(f"prime {prime} does not divide level {N}")
    eps = profile.cusp_count
    flags = []
    if eps % 2 == 1:
        flags.append("odd-cusp-count")
    if N in (4, 8):
        flags.append("level-power-of-two")
    if prime == 2:
        flags.append("prime-two")
    cls = SPORADIC if eps % 2 == 1 or prime == 2 else {
        2: CLASSICAL, 4: LOCALIZATION}.get(eps, NO_SYSTEMATIC)
    return ClassificationReport(
        level=N, prime=prime, cusp_count=eps, genus=profile.genus,
        difficulty_class=cls, tedium_score=profile.genus,
        sporadic_flags=tuple(flags))


# ---------------------------------------------------------------------------
# tower construction
# ---------------------------------------------------------------------------

def coefficient_series(spec: FamilySpec, n_max: int) -> QSeries:
    """The generating sequence a(0..n_max) on the integer exponent grid.

    This is the generator's expansion at infinity with its fractional
    leading power q^(degree24/24) stripped, so exponent n carries a(n)
    exactly as the congruence reads them.
    """
    g = spec.generator
    return expand_at_infinity(g, g.degree24 + 24 * (n_max + 1)).shift(
        -g.degree24)


def _check_tower_size(depth: int, terms: int) -> None:
    if depth < 1 or terms < 1:
        raise FamilyError(f"a tower needs depth >= 1 and terms >= 1, got "
                          f"depth {depth} and terms {terms}")


def tower_series_direct(spec: FamilySpec, depth: int, terms: int) -> QSeries:
    """L_depth by the ground-truth route: slice the coefficients on
    lam*n = target (mod ell^depth), then multiply by the recorded prefactor.
    The slice is read for m < terms - qpow: the prefactor starts at q^qpow,
    so the product is known to q^terms.
    """
    _check_tower_size(depth, terms)
    phi = spec.prefactors.get(depth)
    if phi is None:
        raise FamilyError(
            f"family {spec.name}: no prefactor recorded for depth {depth}; "
            f"direct construction unavailable")
    mod = spec.prime ** depth
    r = (pow(spec.lam, -1, mod) * spec.target_residue) % mod
    series = coefficient_series(spec, mod * max(terms - phi.qpow - 1, 0) + r)
    sliced = series.progression_slice(spec.lam, spec.prime, depth,
                                      target=spec.target_residue)
    return (phi.expand(24 * terms) * sliced).truncate(24 * terms)


def tower_series_recursive(spec: FamilySpec, depth: int, terms: int) -> QSeries:
    """L_depth by the operator route: L_1 directly, then multiplier-then-U_ell
    steps.  U_ell keeps ceil(trunc/ell) terms, so L_j gets at least one and
    ell*(needed-1)+1 less the qpow + min(v, 0) terms that its product with a
    multiplier is known past it, v the lowest exponent L_j can start at: the
    chain reads a(n) no further than the direct route."""
    _check_tower_size(depth, terms)
    for j in range(depth - 1, 0, -1):
        if j not in spec.multipliers:
            raise FamilyError(
                f"family {spec.name}: no multiplier recorded for step "
                f"{j} -> {j + 1}; recursive construction unavailable")
    mults = [spec.multipliers[j] for j in range(1, depth)]
    # v: L_1 starts no lower than its prefactor, a step shifts by the
    # multiplier's qpow, and U_ell divides the exponents by ell
    lead = [phi.qpow if (phi := spec.prefactors.get(1)) else 0]
    for mult in mults[:-1]:
        lead.append(-(-(lead[-1] + mult.qpow) // spec.prime))
    needed = [terms]
    for mult, v in zip(mults[::-1], lead[::-1]):
        known = 0 if mult.is_one() else mult.qpow + min(v, 0)
        needed.append(max(spec.prime * (needed[-1] - 1) + 1 - known, 1))
    needed.reverse()  # needed[j-1] = terms required of L_j
    level = tower_series_direct(spec, 1, needed[0])
    for j in range(1, depth):
        mult = spec.multipliers[j]
        if not mult.is_one():
            level = mult.expand(level.trunc24 + 24 * mult.qpow) * level
        level = level.u_operator(spec.prime)
    return level.truncate(24 * terms)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class VerificationReport(Record):
    _fields = ("family", "alpha", "modulus_exponent", "beta", "n_max",
               "qualifying_count", "min_valuation", "passed",
               "counterexample")  # counterexample: (n, coefficient, valuation)

    def to_json_obj(self) -> dict:
        ce = None
        if self.counterexample is not None:
            n, c, v = self.counterexample
            ce = {"n": n, "coefficient": numstr(c), "valuation": v}
        return {**vars(self), "counterexample": ce}


def verify_congruence(spec: FamilySpec, alpha: int, n_max: int,
                      beta_override: int | None = None) -> VerificationReport:
    """Check ell^beta | a(n) for every qualifying n <= n_max, straight off the
    generating function's coefficients (independent of the tower machinery).
    """
    step = spec.schedule.get(alpha)
    if step is None:
        raise FamilyError(
            f"family {spec.name}: no schedule entry for depth {alpha}")
    beta = step.beta if beta_override is None else beta_override
    mod = spec.prime ** step.modulus_exponent
    r = (pow(spec.lam, -1, mod) * spec.target_residue) % mod
    qualifying = range(r, n_max + 1, mod)
    min_val: int | None = None
    counterexample = None
    terms = []  # a(r + mod*m) at q^m, as tower_series_direct reads it
    if qualifying or n_max < 0:  # coefficient_series refuses n_max < 0
        terms = coefficient_series(spec, n_max - (n_max - r) % mod) \
            .progression_slice(spec.lam, spec.prime, step.modulus_exponent,
                               target=spec.target_residue).terms()
    for e, c in terms:
        v = valuation(c, spec.prime)
        if min_val is None or v < min_val:
            min_val = v
        if v < beta and counterexample is None:
            counterexample = (r + mod * e // 24, c, v)
    passed = min_val is None or min_val >= beta
    return VerificationReport(
        family=spec.name, alpha=alpha, modulus_exponent=step.modulus_exponent,
        beta=beta, n_max=n_max, qualifying_count=len(qualifying),
        min_valuation=min_val, passed=passed, counterexample=counterexample)


# ---------------------------------------------------------------------------
# recorded tower identities (eta combinations) and their chart expansions
# ---------------------------------------------------------------------------

def _ray_multiple(f: EtaQuotient, base: EtaQuotient) -> int:
    """k >= 1 with f = base^k, every exponent k times base's; else 0."""
    k = next((dict(f.exponents).get(d, 0) // r for d, r in base.exponents), 0)
    return k if k >= 1 and f.exponents == tuple(
        (d, k * r) for d, r in base.exponents) else 0


def certified_identity_chart(spec: FamilySpec, depth: int, terms: int,
                             powers: dict | None = None
                             ) -> tuple[QSeries, CuspOrderVector]:
    """Cross-check the recorded identity against the direct tower series,
    then hand back its cusp-zero chart plus per-class order bounds (exact
    for one term; lower bounds when terms could cancel).

    Each term's chart is its scale times the expansion of its zero-cusp
    image (eta.zero_cusp_image), with every check expand_at_zero makes.
    The identities of the classical families are polynomials in one
    Hauptmodul: their terms are k*Q, k = 1, 2, ..., for the quotient Q of
    the first term.  Such a term reads a table of the powers of Q's chart:
    one kernel expansion, as far past its leading term as the highest
    power needs, then QSeries products.  Any other term is expanded by its
    own plan.  A given dict `powers` receives the table under (Q, level),
    for BasisEntry.build to read.

    A mismatch raises IdentityMismatchError: the catalog is wrong.
    """
    direct = tower_series_direct(spec, depth, IDENTITY_CHECK_TERMS)
    identity = spec.tower_identities.get(depth)
    if not identity:
        raise FamilyError(
            f"family {spec.name}: no recorded identity for depth {depth}")
    recorded = combination(
        [(term.scale, expand_at_infinity(term.quotient,
                                         24 * IDENTITY_CHECK_TERMS))
         for term in identity], 24 * IDENTITY_CHECK_TERMS)
    if not direct.agrees_with(recorded):
        raise IdentityMismatchError(
            f"family {spec.name}: recorded depth-{depth} identity disagrees "
            f"with the sliced construction")
    trunc24 = 24 * terms
    images = []
    for term in identity:
        scale, image = zero_cusp_image(term.quotient, spec.level)
        require_expandable(image, trunc24)
        images.append((scale, image))
    base, (scale, image) = identity[0].quotient, images[0]
    ks = [_ray_multiple(term.quotient, base) for term in identity]
    table = []  # table[k - 1]: the chart of k * Q, known as far as Q's
    if kmax := max(ks):
        table.append(expand_at_infinity(image, trunc24 - (kmax - 1) * min(
            image.degree24, 0)).scaled(scale))
        while len(table) < kmax:
            table.append(table[-1] * table[0])
        if powers is not None:
            powers[base, spec.level] = table
    pairs = []
    for term, (scale, image), k in zip(identity, images, ks):
        # a table entry is scaled already; another term's scale joins
        # term.scale in its coefficient
        series, scale = (table[k - 1], 1) if k \
            else (expand_at_infinity(image, trunc24), scale)
        pairs.append((scale * term.scale, zero_cusp_checked(
            term.quotient, spec.level, series)))
    return combination(pairs, trunc24), cusp_order_bounds(
        [term.quotient for term in identity], spec.level)


# ---------------------------------------------------------------------------
# catalog bases
# ---------------------------------------------------------------------------

class BasisEntry(Record):
    """Catalog description of a module basis; series are built on demand.

    Each function is an eta quotient, charted at the zero cusp, or an exact
    Laurent polynomial; the companions ys keep their catalog order.
    """

    _fields = ("name", "level", "x", "ys", "z")

    def build(self, trunc24: int, powers: dict | None = None) -> ModuleBasis:
        """The basis charted to q^(trunc24/24): x and its powers come from
        the table certified_identity_chart left in `powers` for x, if any,
        and the localizer z is expanded when a reduction first uses it."""
        def chart(source: EtaQuotient | QSeries) -> QSeries:
            if isinstance(source, QSeries):
                # an exact Laurent polynomial: any truncation is valid
                return QSeries(dict(source.terms()), trunc24)
            scale, series = expand_at_zero(source, self.level, trunc24)
            return series.scaled(scale)

        table = isinstance(self.x, EtaQuotient) \
            and (powers or {}).get((self.x, self.level))
        if table:  # certified_identity_chart checked x when it built table
            x, x_powers = table[0].truncate(trunc24), table[1:]
        else:
            x, x_powers = chart(self.x), ()
        ys = [QSeries.constant(1, trunc24)] + [chart(y) for y in self.ys]
        z = z_orders = None
        if self.z is not None:
            z = lambda: chart(self.z)
            z_orders = cusp_order_vector(self.z, self.level)
        return ModuleBasis(x=x, ys=ys, z=z, z_orders=z_orders,
                           x_powers=x_powers)


# ---------------------------------------------------------------------------
# catalog loading
# ---------------------------------------------------------------------------

class Catalog(Record):
    _fields = ("families", "bases")

    def family(self, name: str) -> FamilySpec:
        for f in self.families:
            if f.name == name:
                return f
        raise CatalogError(f"no family named {shown(name)} in catalog")

    def basis(self, name: str) -> BasisEntry:
        for b in self.bases:
            if b.name == name:
                return b
        raise CatalogError(f"no basis named {shown(name)} in catalog")


def _family_from_json(obj: dict, path: str) -> FamilySpec:
    def keyed(field):
        """obj[field], a JSON object keyed by integers, as (key, value)
        pairs: every key is read before any value."""
        items = json_field(obj.get(field, {}), field).items()
        try:
            return [(json_key(k, field), v) for k, v in items]
        except ValueError as exc:
            raise CatalogError(f"{path}.{field}: {exc}") from None

    obj, spec = json_field(obj, "family"), FamilySpec.__new__(FamilySpec)
    spec.name = json_field(obj["name"], "name", str)
    spec.generator = _eta_from_json(obj["generator"], "generator")
    spec.prime = json_field(obj["prime"], "prime", int)
    spec.lam = json_field(obj["lam"], "lam", int)
    spec.level = json_field(obj["level"], "level", int)
    spec.target_residue = json_field(obj.get("target_residue", 1),
                                     "target_residue", int)
    spec.schedule = {a: ScheduleStep.from_json_obj(s)
                     for a, s in keyed("schedule")}
    spec.prefactors = {a: PochhammerProduct.from_json_obj(p, "prefactor")
                       for a, p in keyed("prefactors")}
    spec.multipliers = {a: PochhammerProduct.from_json_obj(m, "multiplier")
                        for a, m in keyed("multipliers")}
    spec.tower_identities = {
        a: tuple([EtaTerm.from_json_obj(t)
                  for t in json_field(terms, "tower identity", list)])
        for a, terms in keyed("tower_identities")}
    spec.validate()
    return spec


def _basis_from_json(obj: dict, path: str) -> BasisEntry:
    def source(spec_obj, what):
        kind = isinstance(spec_obj, dict) and spec_obj.keys() & {"eta", "series"}
        if not kind:
            raise CatalogError(f"{path}.{what}: need a JSON object with an "
                               f"'eta' or 'series' entry")
        if "eta" in kind:
            return _eta_from_json(spec_obj["eta"], "eta")
        try:
            return _series_from_json(spec_obj["series"])
        except SeriesError:  # terms on two cosets mod 24: not all integral
            raise CatalogError(f"{path}: {what} must live on the integer "
                               f"exponent grid") from None

    def order(source, what):
        """The pole order at the zero cusp, found without an expansion:
        the offset of a Laurent series, and Ligozat's order at c = 1 of an
        eta quotient, which must be a function on the basis curve; there
        it is the integer sum (N/delta) r_delta / 24 of newman_sums."""
        if isinstance(source, QSeries):
            return pole_order(source, what)
        if level is None:
            raise CatalogError(f"{path}: {what} is an eta quotient, which "
                               f"needs the basis level")
        require_on_gamma0(source, level)
        return -newman_sums(source, level)[2] // 24

    level = json_field(obj, "basis").get("level")  # optional, never a bool
    if "level" in obj and (type(level) is not int or level < 1):
        check_long(level, "level")
        raise CatalogError(
            f"{path}.level: need an integer >= 1, got {shown(level)}")
    x = source(obj["x"], "x")
    ys = [source(y, f"ys[{i}]")
          for i, y in enumerate(json_field(obj.get("ys", []), "ys", list))]
    z = source(obj["z"], "z") if "z" in obj else None
    if isinstance(z, QSeries):
        raise CatalogError(f"{path}.z: localizers must be eta quotients "
                           f"(orders must be computable)")
    y_orders = [0] + [order(y, f"ys[{i}]") for i, y in enumerate(ys)]
    if z is not None and order(z, "z") < 1:
        raise CatalogError(f"{path}: z must have a pole at the zero cusp")
    check_pole_orders(order(x, "x"), y_orders)
    return BasisEntry(json_field(obj["name"], "name", str), level, x, ys, z)


def _parsed(path: str, parse, *args):
    """parse(*args); its KeyError, OSError, ValueError or CuspLedgerError
    on bad input is the refusal CatalogError "path: why", all else a bug."""
    try:
        return parse(*args)
    except KeyError as exc:
        raise CatalogError(f"{path}: missing field {exc}") from None
    except CatalogError:
        raise
    except (CuspLedgerError, OSError, ValueError) as exc:
        raise CatalogError(f"{path}: {exc}") from None


def catalog_loads(text: str, source: str = "<catalog>") -> Catalog:
    try:  # json refuses nesting too deep for it with a RecursionError
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:  # an integer int() cannot read: read again,
            # each one past the limit a LongDecimal for its reader to refuse
            doc = json.loads(text, parse_int=lambda s, most=int_digits():
                             LongDecimal(s) if len(s.lstrip("-")) > most
                             else int(s))
    except (RecursionError, ValueError) as exc:
        raise CatalogError(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "families" not in doc:
        raise CatalogError(f"{source}: top level must contain 'families'")
    version = _parsed(source, json_field, doc.get("schema_version", 1),
                      "schema_version", int)
    if version != 1:
        raise CatalogError(f"{source}: schema_version {version} is not "
                           f"supported (want 1)")
    families, bases = [_parsed(source, json_field, doc.get(k, []), repr(k),
                               list) for k in ("families", "bases")]
    families = [_parsed(path, _family_from_json, obj, path)
                for i, obj in enumerate(families)
                for path in [f"{source}:families[{i}]"]]
    bases = [_parsed(path, _basis_from_json, obj, path)
             for i, obj in enumerate(bases)
             for path in [f"{source}:bases[{i}]"]]
    for key, entries in (("family", families), ("basis", bases)):
        if len({e.name for e in entries}) != len(entries):
            raise CatalogError(f"{source}: duplicate {key} names")
    return Catalog(families, bases)


def catalog_load(path: str | Path) -> Catalog:
    """The catalog in a file, read as UTF-8 (RFC 8259) and named in every
    refusal as the path is given: open() keeps it as given in an OSError
    too, where pathlib would respell it."""
    def read():
        with open(path, encoding="utf-8") as file:
            return file.read()

    return catalog_loads(_parsed(f"cannot read catalog {path}", read),
                         source=str(path))


def shipped_catalog_path() -> Path:
    return Path(__file__).parent / "data" / "catalog.json"
