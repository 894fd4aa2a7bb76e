"""Exception types, and the one check of each input rule: integers (sizes,
depths, K, trial counts), Philox key words and rates. Where an integer is
due, a bool or a non-integer raises TypeError and a numpy integer comes back
as an int; a value out of range raises ValueError, naming the argument."""

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


def _as_int(value, what: str) -> int:
    """`value` as an int; a bool or a non-integer (a float too) is refused."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def check_integer(
    value, what: str, minimum: int = 0, maximum: int | None = None
) -> int:
    """`value` as an int of at least `minimum` (and at most `maximum`, when
    given); a bool or a non-integer raises TypeError, an integer out of range
    ValueError."""
    number = _as_int(value, what)
    if number < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {number}")
    if maximum is not None and number > maximum:
        raise ValueError(f"{what} must be in [{minimum}, {maximum}], got {number}")
    return number


def check_key_word(value, what: str) -> int:
    """`value` as a Philox key word; a bool or a non-integer raises
    TypeError, an integer outside [0, 2**64) ValueError."""
    word = _as_int(value, what)
    if not 0 <= word < _SEED_LIMIT:
        raise ValueError(f"{what} must be in [0, 2**64), got {word}")
    return word
