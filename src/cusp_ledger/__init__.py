"""cusp-ledger: exact workbench for modular congruence families.

Classifies congruence families by the topology (cusp count, genus) of the
associated modular curve X_0(N), and mechanically exercises the standard
proof scaffolding at desk scale: exact eta-quotient q-expansions, U_ell and
progression slicing, module-basis reduction with localization, and ell-adic
valuation checks.
"""

__version__ = "0.1.0"
