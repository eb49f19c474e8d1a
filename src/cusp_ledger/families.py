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
from math import gcd
from pathlib import Path

from .curves import curve_profile
from .errors import (
    CatalogError,
    CuspLedgerError,
    ExactnessError,
    FamilyError,
    InternalInconsistencyError,
    TruncationError,
)
from .eta import (
    CuspOrderVector,
    EtaQuotient,
    cusp_order_vector,
    expand_at_infinity,
    expand_at_zero,
    exponent_vector,
    validate_on_gamma0,
)
from .reduction import ModuleBasis
from .series import (QSeries, is_prime, json_int, json_key, json_ratio,
                     json_str, pochhammer_product, valuation)


class PochhammerProduct:
    """q^qpow * prod (q^d; q^d)^e_d: an integer series with leading coefficient 1.

    This is the shape of tower prefactors and U-step multipliers; unlike an
    eta quotient proper it carries no fractional q-power.
    """

    def __init__(self, qpow: int, exponents):
        self.qpow = qpow
        self.exponents = exponent_vector(dict(exponents))

    def is_one(self) -> bool:
        return self.qpow == 0 and not self.exponents

    def expand(self, trunc24: int) -> QSeries:
        rel = trunc24 - 24 * self.qpow
        return pochhammer_product(self.exponents, rel).shift(24 * self.qpow)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PochhammerProduct":
        return cls(json_int(obj.get("qpow", 0), "qpow"),
                   {json_key(d): json_int(r, "exponent")
                    for d, r in obj.get("r", {}).items()})


class ScheduleStep:
    """One verification depth: slice modulo ell^modulus_exponent, demand
    divisibility by ell^beta."""

    def __init__(self, modulus_exponent: int, beta: int):
        self.modulus_exponent = modulus_exponent
        self.beta = beta


class EtaTerm:
    """scale * (eta quotient): one summand of a recorded tower identity."""

    def __init__(self, scale: Fraction, quotient: EtaQuotient):
        self.scale = scale
        self.quotient = quotient


class FamilySpec:
    """All data defining one congruence family."""

    def __init__(self, name: str, generator: EtaQuotient, prime: int,
                 lam: int, level: int, target_residue: int = 1,
                 schedule: dict[int, ScheduleStep] | None = None,
                 prefactors: dict[int, PochhammerProduct] | None = None,
                 multipliers: dict[int, PochhammerProduct] | None = None,
                 tower_identities: dict[int, tuple[EtaTerm, ...]] | None = None,
                 basis_name: str | None = None):
        self.name = name
        self.generator = generator
        self.prime = prime
        self.lam = lam
        self.level = level
        self.target_residue = target_residue
        self.schedule = {} if schedule is None else schedule
        self.prefactors = {} if prefactors is None else prefactors
        self.multipliers = {} if multipliers is None else multipliers
        self.tower_identities = {} if tower_identities is None \
            else tower_identities
        self.basis_name = basis_name

    def validate(self) -> None:
        if not is_prime(self.prime):
            raise FamilyError(f"family {self.name}: {self.prime} is not prime")
        if self.level % self.prime != 0:
            raise FamilyError(
                f"family {self.name}: prime {self.prime} does not divide "
                f"level {self.level}")
        if gcd(self.lam, self.prime) != 1:
            raise FamilyError(
                f"family {self.name}: lam {self.lam} shares a factor with "
                f"the prime {self.prime}")
        if self.level % self.generator.level != 0:
            raise FamilyError(
                f"family {self.name}: generator level {self.generator.level} "
                f"does not divide curve level {self.level}")
        for a, step in self.schedule.items():
            if a < 1 or step.modulus_exponent < 1 or step.beta < 1:
                raise FamilyError(
                    f"family {self.name}: bad schedule entry at depth {a}")
        for a, terms in self.tower_identities.items():
            for t in terms:
                if self.level % t.quotient.level \
                        or not validate_on_gamma0(t.quotient, self.level).valid:
                    raise FamilyError(
                        f"family {self.name}: depth-{a} identity term "
                        f"{t.quotient} is not a function on X_0({self.level})")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

CLASSICAL = "Classical"
LOCALIZATION = "Localization"
NO_SYSTEMATIC = "NoSystematicMethods"
SPORADIC = "Unclassified-Sporadic"


class ClassificationReport:
    def __init__(self, level: int, prime: int | None, cusp_count: int,
                 genus: int, difficulty_class: str, tedium_score: int,
                 sporadic_flags: tuple[str, ...]):
        self.level = level
        self.prime = prime
        self.cusp_count = cusp_count
        self.genus = genus
        self.difficulty_class = difficulty_class
        self.tedium_score = tedium_score
        self.sporadic_flags = sporadic_flags

    def to_json_obj(self) -> dict:
        return {**vars(self), "sporadic_flags": list(self.sporadic_flags)}


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
    if eps % 2 == 1 or prime == 2:
        cls = SPORADIC
    elif eps == 2:
        cls = CLASSICAL
    elif eps == 4:
        cls = LOCALIZATION
    else:
        cls = NO_SYSTEMATIC
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
    if n_max < 0:
        raise TruncationError(
            "truncation too small to hold one term of the expansion")
    return pochhammer_product(spec.generator.exponents, 24 * (n_max + 1))


def tower_series_direct(spec: FamilySpec, depth: int, terms: int,
                        series: QSeries | None = None) -> QSeries:
    """L_depth by the ground-truth route: slice the coefficients on
    lam*n = target (mod ell^depth), then multiply by the recorded prefactor.
    """
    if depth < 1:
        raise FamilyError("tower depth must be >= 1")
    phi = spec.prefactors.get(depth)
    if phi is None:
        raise FamilyError(
            f"family {spec.name}: no prefactor recorded for depth {depth}; "
            f"direct construction unavailable")
    mod = spec.prime ** depth
    r = (pow(spec.lam, -1, mod) * spec.target_residue) % mod
    if series is None:
        series = coefficient_series(spec, mod * (terms + 1) + r)
    sliced = series.progression_slice(spec.lam, spec.prime, depth,
                                      target=spec.target_residue)
    out = phi.expand(24 * (terms + 1)) * sliced
    if out.trunc24 < 24 * terms:
        raise FamilyError(
            f"family {spec.name}: depth-{depth} tower series known only to "
            f"{out.trunc24 // 24} of the requested {terms} terms")
    return out.truncate(24 * terms)


def tower_series_recursive(spec: FamilySpec, depth: int, terms: int,
                           series: QSeries | None = None) -> QSeries:
    """L_depth by the operator route: L_1 directly, then repeated
    multiplier-then-U_ell steps.  Truncation shrinks by a factor of ell per
    step, so the depth-1 start is built proportionally longer.
    """
    if depth < 1:
        raise FamilyError("tower depth must be >= 1")
    needed = [terms]
    for j in range(depth - 1, 0, -1):
        mult = spec.multipliers.get(j)
        if mult is None:
            raise FamilyError(
                f"family {spec.name}: no multiplier recorded for step "
                f"{j} -> {j + 1}; recursive construction unavailable")
        needed.append(needed[-1] * spec.prime + mult.qpow + 1)
    needed.reverse()  # needed[j-1] = terms required of L_j
    if needed[0] < 1:
        raise FamilyError("truncation exhausted before depth 1")
    level = tower_series_direct(spec, 1, needed[0], series=series)
    for j in range(1, depth):
        mult = spec.multipliers[j]
        if not mult.is_one():
            level = mult.expand(level.trunc24 + 24 * mult.qpow) * level
        level = level.u_operator(spec.prime)
    if level.trunc24 < 24 * terms:
        raise FamilyError(
            f"family {spec.name}: recursive tower at depth {depth} ran out "
            f"of truncation")
    return level.truncate(24 * terms)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class VerificationReport:
    def __init__(self, family: str, alpha: int, modulus_exponent: int,
                 beta: int, n_max: int, qualifying_count: int,
                 min_valuation: int | None, passed: bool,
                 counterexample: tuple[int, int, int] | None):
        self.family = family
        self.alpha = alpha
        self.modulus_exponent = modulus_exponent
        self.beta = beta
        self.n_max = n_max
        self.qualifying_count = qualifying_count
        self.min_valuation = min_valuation
        self.passed = passed
        self.counterexample = counterexample  # (n, coefficient, valuation)

    def to_json_obj(self) -> dict:
        ce = None
        if self.counterexample is not None:
            n, c, v = self.counterexample
            ce = {"n": n, "coefficient": str(c), "valuation": v}
        return {**vars(self), "counterexample": ce}


def verify_congruence(spec: FamilySpec, alpha: int, n_max: int,
                      beta_override: int | None = None,
                      series: QSeries | None = None) -> VerificationReport:
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
    if series is None:
        series = coefficient_series(spec, n_max)
    count = 0
    min_val: int | None = None
    counterexample = None
    for n in range(r, n_max + 1, mod):
        c = series.coeff_q(n)
        if not isinstance(c, int):
            raise ExactnessError(
                f"family {spec.name}: coefficient a({n}) is not an integer")
        count += 1
        v = valuation(c, spec.prime)
        if v is None:
            continue
        if min_val is None or v < min_val:
            min_val = v
        if v < beta and counterexample is None:
            counterexample = (n, c, v)
    passed = min_val is None or min_val >= beta
    return VerificationReport(
        family=spec.name, alpha=alpha, modulus_exponent=step.modulus_exponent,
        beta=beta, n_max=n_max, qualifying_count=count, min_valuation=min_val,
        passed=passed, counterexample=counterexample)


# ---------------------------------------------------------------------------
# recorded tower identities (eta combinations) and their chart expansions
# ---------------------------------------------------------------------------

IDENTITY_CHECK_TERMS = 8  # q-terms of the cross-check at infinity


def certified_identity_chart(spec: FamilySpec, depth: int, terms: int
                             ) -> tuple[QSeries, CuspOrderVector]:
    """Cross-check the recorded identity against the direct tower series,
    then hand back its cusp-zero chart plus per-class order bounds (exact
    for one term; lower bounds when terms could cancel).

    A mismatch means the shipped catalog is wrong, which is an internal
    inconsistency, not a user error.
    """
    direct = tower_series_direct(spec, depth, IDENTITY_CHECK_TERMS)
    identity = spec.tower_identities.get(depth)
    if not identity:
        raise FamilyError(
            f"family {spec.name}: no recorded identity for depth {depth}")
    recorded = QSeries.zero(24 * IDENTITY_CHECK_TERMS)
    for term in identity:
        recorded = recorded + expand_at_infinity(
            term.quotient, 24 * IDENTITY_CHECK_TERMS).scaled(term.scale)
    if not direct.agrees_with(recorded):
        raise InternalInconsistencyError(
            f"family {spec.name}: recorded depth-{depth} identity disagrees "
            f"with the sliced construction")
    chart = QSeries.zero(24 * terms)
    bounds: dict[int, Fraction] = {}
    for term in identity:
        scale, series = expand_at_zero(term.quotient, spec.level, 24 * terms)
        chart = chart + series.scaled(scale * term.scale)
        for c, o in cusp_order_vector(term.quotient, spec.level).orders:
            bounds[c] = o if c not in bounds else min(bounds[c], o)
    return chart, CuspOrderVector(spec.level, tuple(sorted(bounds.items())))


# ---------------------------------------------------------------------------
# catalog bases
# ---------------------------------------------------------------------------

class BasisEntry:
    """Catalog description of a module basis; series are built on demand.

    Each function is an eta quotient, charted at the zero cusp, or an exact
    Laurent polynomial; the companions ys keep their catalog order.
    """

    def __init__(self, name: str, level: int | None,
                 x: EtaQuotient | QSeries | None = None,
                 ys: list[EtaQuotient | QSeries] | None = None,
                 z: EtaQuotient | None = None):
        self.name = name
        self.level = level
        self.x = x
        self.ys = [] if ys is None else ys
        self.z = z

    def build(self, trunc24: int) -> ModuleBasis:
        def chart(source: EtaQuotient | QSeries) -> QSeries:
            if isinstance(source, QSeries):
                # an exact Laurent polynomial: any truncation is valid
                return QSeries(dict(source.terms()), trunc24)
            scale, series = expand_at_zero(source, self.level, trunc24)
            return series.scaled(scale)

        if self.x is None:
            raise CatalogError(f"basis {self.name}: no x recorded")
        x = chart(self.x)
        ys = [QSeries.constant(1, trunc24)] + [chart(y) for y in self.ys]
        z = z_orders = None
        if self.z is not None:
            z = chart(self.z)
            z_orders = cusp_order_vector(self.z, self.level)
        return ModuleBasis(x=x, ys=ys, level=self.level, z=z,
                           z_orders=z_orders, label=self.name)


# ---------------------------------------------------------------------------
# catalog loading
# ---------------------------------------------------------------------------

class Catalog:
    def __init__(self, families: list[FamilySpec], bases: list[BasisEntry]):
        self.families = families
        self.bases = bases

    def family(self, name: str) -> FamilySpec:
        for f in self.families:
            if f.name == name:
                return f
        raise CatalogError(f"no family named {name!r} in catalog")

    def basis(self, name: str) -> BasisEntry:
        for b in self.bases:
            if b.name == name:
                return b
        raise CatalogError(f"no basis named {name!r} in catalog")


def _family_from_json(obj: dict, path: str) -> FamilySpec:
    def keyed(field, parse):
        """obj[field], a JSON object keyed by integers; parse reads a value."""
        try:
            items = [(json_key(k), v) for k, v in obj.get(field, {}).items()]
        except ValueError as exc:
            raise CatalogError(f"{path}.{field}: {exc}") from None
        return {a: parse(v) for a, v in items}

    spec = FamilySpec(
        name=json_str(obj["name"], "name"),
        generator=EtaQuotient.from_json_obj(obj["generator"]),
        prime=json_int(obj["prime"], "prime"),
        lam=json_int(obj["lam"], "lam"),
        level=json_int(obj["level"], "level"),
        target_residue=json_int(obj.get("target_residue", 1), "target_residue"),
        schedule=keyed("schedule", lambda s: ScheduleStep(
            json_int(s["modulus"], "modulus"), json_int(s["beta"], "beta"))),
        prefactors=keyed("prefactors", PochhammerProduct.from_json_obj),
        multipliers=keyed("multipliers", PochhammerProduct.from_json_obj),
        tower_identities=keyed("tower_identities", lambda terms: tuple(
            EtaTerm(Fraction(*json_ratio(t["scale"], "scale")),
                    EtaQuotient.from_json_obj(t["eta"])) for t in terms)),
        basis_name=(json_str(obj["basis"], "basis") if "basis" in obj
                    else None),
    )
    spec.validate()
    return spec


def _basis_from_json(obj: dict, path: str) -> BasisEntry:
    def source(spec_obj, what):
        kind = isinstance(spec_obj, dict) and spec_obj.keys() & {"eta", "series"}
        if not kind:
            raise CatalogError(f"{path}.{what}: need a JSON object with an "
                               f"'eta' or 'series' entry")
        if "eta" in kind:
            return EtaQuotient.from_json_obj(spec_obj["eta"])
        series = QSeries.from_json_obj(spec_obj["series"])
        if not series.is_integer_grid:
            raise CatalogError(
                f"{path}: {what} must live on the integer exponent grid")
        return series

    level = obj.get("level")  # optional; a bool is no level
    if "level" in obj and (type(level) is not int or level < 1):
        raise CatalogError(f"{path}.level: need an integer >= 1, got {level!r}")
    x = source(obj["x"], "x") if "x" in obj else None
    ys = [source(y, f"ys[{i}]") for i, y in enumerate(obj.get("ys", []))]
    z = source(obj["z"], "z") if "z" in obj else None
    if isinstance(z, QSeries):
        raise CatalogError(f"{path}.z: localizers must be eta quotients "
                           f"(orders must be computable)")
    return BasisEntry(name=json_str(obj["name"], "name"), level=level, x=x,
                      ys=ys, z=z)


def _parsed(path: str, parse, *args):
    """parse(*args); the one place where a Python exception raised by bad
    catalog input (unreadable file, broken JSON, missing key, wrong shape or
    number, a refusal such as a failed FamilySpec.validate) becomes
    CatalogError "path: why"; a CatalogError already names its entry."""
    try:
        return parse(*args)
    except KeyError as exc:
        raise CatalogError(f"{path}: missing field {exc}") from None
    except CatalogError:
        raise
    except (AttributeError, CuspLedgerError, OSError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise CatalogError(f"{path}: {exc}") from None


def _entry(parse, obj, path: str):
    """One entry of the catalog's families or bases list."""
    if not isinstance(obj, dict):
        raise CatalogError(f"{path}: need a JSON object, got {obj!r}")
    return _parsed(path, parse, obj, path)


def catalog_loads(text: str, source: str = "<catalog>") -> Catalog:
    doc = _parsed(f"{source}: not valid JSON", json.loads, text)
    if not isinstance(doc, dict) or "families" not in doc:
        raise CatalogError(f"{source}: top level must contain 'families'")
    version = _parsed(source, json_int, doc.get("schema_version", 1),
                      "schema_version")
    if version != 1:
        raise CatalogError(f"{source}: schema_version {version} is not "
                           f"supported (want 1)")
    for key in ("families", "bases"):
        if not isinstance(doc.get(key, []), list):
            raise CatalogError(f"{source}: {key!r} must be a JSON list")
    families = [_entry(_family_from_json, obj, f"{source}:families[{i}]")
                for i, obj in enumerate(doc["families"])]
    bases = [_entry(_basis_from_json, obj, f"{source}:bases[{i}]")
             for i, obj in enumerate(doc.get("bases", []))]
    for key, entries in (("family", families), ("basis", bases)):
        names = [e.name for e in entries]
        if len(set(names)) != len(names):
            raise CatalogError(f"{source}: duplicate {key} names")
    for f in families:
        if f.basis_name is not None \
                and f.basis_name not in {b.name for b in bases}:
            raise CatalogError(
                f"{source}: family {f.name} references unknown basis "
                f"{f.basis_name!r}")
    return Catalog(families=families, bases=bases)


def catalog_load(path: str | Path) -> Catalog:
    path = Path(path)
    text = _parsed(f"cannot read catalog {path}", path.read_text)
    return catalog_loads(text, source=str(path))


def shipped_catalog_path() -> Path:
    return Path(__file__).parent / "data" / "catalog.json"
