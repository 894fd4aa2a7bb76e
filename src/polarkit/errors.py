"""Exception types, and the input refusals that the package shares."""

import operator

#: master seeds and trial ids are Philox key words: integers in [0, 2**64)
_SEED_LIMIT = 1 << 64


class KernelFormatError(ValueError):
    """Raised when a kernel descriptor or bit vector cannot be parsed."""


class BudgetExceededError(ValueError):
    """Raised when a requested computation exceeds its configured size budget."""


class DecodingIntegrityError(RuntimeError):
    """Raised when non-erased observations are mutually inconsistent.

    This cannot happen when decoding honest channel output with the matching
    code; it signals a decoder bug or corrupted symbols (e.g. bit flips fed
    into an erasure-only decoder).
    """


def check_unit_interval(value: float, what: str) -> None:
    """Refuse a rate outside [0, 1], NaN included."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {value}")


def check_key_word(value, what: str) -> int:
    """`value` as a Philox key word; a non-integer (a float too) raises
    TypeError, an integer outside [0, 2**64) ValueError."""
    try:
        word = operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None
    if not 0 <= word < _SEED_LIMIT:
        raise ValueError(f"{what} must be in [0, 2**64), got {word}")
    return word
