"""cusp-ledger: exact workbench for modular congruence families.

Classifies congruence families by the topology (cusp count, genus) of the
associated modular curve X_0(N), and mechanically exercises the standard
proof scaffolding at desk scale: exact eta-quotient q-expansions, U_ell and
progression slicing, module-basis reduction with localization, and ell-adic
valuation checks.
"""

from .curves import (
    CuspClass,
    CurveProfile,
    cusp_count,
    curve_profile,
    divisors,
    elliptic_counts,
    enumerate_cusps,
    euler_phi,
    index_mu,
)
from .errors import (
    BasisError,
    CatalogError,
    CuspLedgerError,
    EtaError,
    ExactnessError,
    FamilyError,
    GapError,
    InternalInconsistencyError,
    ReductionError,
    SeriesError,
    TruncationError,
)
from .eta import (
    CuspOrderVector,
    EtaQuotient,
    GammaValidation,
    OrderConstraint,
    cusp_order_vector,
    expand_at_infinity,
    expand_at_zero,
    order_at_cusp,
    parse_constraints,
    search_eta_quotients,
    validate_on_gamma0,
)
from .families import (
    BasisEntry,
    Catalog,
    ClassificationReport,
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
    shipped_catalog_path,
    tower_series_direct,
    tower_series_recursive,
    verify_congruence,
)
from .reduction import (
    ModuleBasis,
    Representation,
    ValuationTable,
    localize_reduce,
    reduce_genus0,
    reduce_module,
    valuation_table,
)
from .series import QSeries, pochhammer_expansion

__version__ = "0.1.0"
