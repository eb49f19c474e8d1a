"""Exception hierarchy for the workbench.

Every failure mode is a subclass of CuspLedgerError so callers (notably the
CLI) can map errors onto exit codes without string matching.
"""

import sys

ECHO_LIMIT = 40  # the longest input value an error message repeats in full
# the most digits of a decimal the program reads, and fewer under a lower
# limit of the interpreter's (int_digits); one is 0 (none) or at least
# SAFE_INT_DIGITS, so that many int() reads under any limit
MAX_INT_DIGITS = 4_300
SAFE_INT_DIGITS = getattr(sys.int_info, "str_digits_check_threshold", 640)
_int_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def int_digits() -> int:
    """The most digits int() reads now: the interpreter's limit, which
    sys.set_int_max_str_digits moves at any time, up to MAX_INT_DIGITS, and
    MAX_INT_DIGITS where it has none (0, or 3.10.0-3.10.6)."""
    return min(MAX_INT_DIGITS, _int_limit() or MAX_INT_DIGITS)


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
    than int_digits() digits, which int() refuses in Python's: 'too large:
    want <want> of at most <int_digits()> digits[, got <digits> digits if
    counted]'.  The limit is read only past SAFE_INT_DIGITS."""
    if digits > SAFE_INT_DIGITS and digits > (most := int_digits()):
        got = f", got {digits} digits" if counted else ""
        raise ValueError(f"too large: want {want} of at most {most} "
                         f"digits{got}")


class LongDecimal(str):
    """A JSON integer of more than int_digits() digits, kept as its text:
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
