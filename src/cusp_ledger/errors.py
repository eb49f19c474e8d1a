"""Exception hierarchy for the workbench.

Every failure mode is a subclass of CuspLedgerError so callers (notably the
CLI) can map errors onto exit codes without string matching.
"""

import sys

ECHO_LIMIT = 40  # the longest input value an error message repeats in full
# what int() reads: the interpreter's limit (PYTHONINTMAXSTRDIGITS) up to
# 4300, and 4300 where it has none (0, or 3.10.0-3.10.6)
MAX_INT_DIGITS = min(4_300, getattr(sys, "get_int_max_str_digits",
                                    lambda: 0)() or 4_300)


def shown(value) -> str:
    """value as an error message repeats it: its repr, or, past ECHO_LIMIT
    characters of a string or else of its repr, the start and the length."""
    text = value if type(value) is str else repr(value)
    if len(text) <= ECHO_LIMIT:
        return repr(value)
    head = repr(text[:ECHO_LIMIT]) if text is value else text[:ECHO_LIMIT]
    return f"{head}... ({len(text)} characters)"


def check_digits(digits: int, want: str, counted: bool = True) -> None:
    """Refuse, with a ValueError in the program's words, a decimal of more
    than MAX_INT_DIGITS digits, which int() refuses in Python's: 'too large:
    want <want> of at most <MAX_INT_DIGITS> digits[, got <digits> digits if
    counted]'."""
    if digits > MAX_INT_DIGITS:
        got = f", got {digits} digits" if counted else ""
        raise ValueError(f"too large: want {want} of at most "
                         f"{MAX_INT_DIGITS} digits{got}")


class LongDecimal(str):
    """A JSON integer of more than MAX_INT_DIGITS digits, kept as its text:
    catalog_loads reads one only where json.loads refused the document, and
    the reader of its field refuses it by check_long, naming the field."""

    __repr__ = str.__str__


def check_long(value, want: str) -> None:
    """check_digits on a LongDecimal; nothing on any other value."""
    if type(value) is LongDecimal:
        check_digits(len(value.removeprefix("-")), want)


class CuspLedgerError(Exception):
    """Base class for all workbench errors."""


class ExactnessError(CuspLedgerError):
    """A value failed an exactness requirement (float, or fraction where an
    integer is demanded)."""


class TruncationError(CuspLedgerError):
    """A coefficient beyond the known truncation was requested, or an
    operation was attempted with too few known terms."""


class SeriesError(CuspLedgerError):
    """Algebraic misuse of a series (inverting zero, fractional exponents
    where an integer grid is required, bad slicing parameters)."""


class EtaError(CuspLedgerError):
    """Invalid eta-quotient data or an operation outside its preconditions."""


class BasisError(CuspLedgerError):
    """A module basis violates order-completeness or lacks a valid localizer."""


class GapError(CuspLedgerError):
    """Reduction hit a Weierstrass gap: no basis monomial attains the
    required pole order."""

    def __init__(self, pole_order: int):
        self.pole_order = pole_order
        super().__init__(f"Weierstrass gap hit at pole order {pole_order}")


class ReductionError(CuspLedgerError):
    """The target is not in the span of the basis at this truncation."""


class FamilyError(CuspLedgerError):
    """A congruence-family operation was invoked with inconsistent data."""


class CatalogError(CuspLedgerError):
    """A catalog file failed schema or invariant validation."""


class InternalInconsistencyError(CuspLedgerError):
    """Two code paths that must agree did not; signals a bug, never bad input."""


class IdentityMismatchError(InternalInconsistencyError):
    """A recorded tower identity disagrees with the sliced construction: a
    bug in the shipped catalog, bad input in one the user names."""
