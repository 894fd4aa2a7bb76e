"""Exception types, and the one check of each input rule:

- integers (sizes, depths, K, trial counts, indices): `check_integer`;
- Philox key words (seeds, trial ids): `check_key_word`;
- rates in [0, 1] (erasure probabilities, code rates): `check_unit_interval`;
- design rates, which normalise the polarisation distance: in (0, 1] with a
  normal square, `check_design_rate`;
- kernels a polar code can use, the invertible ones: `check_invertible`.

Where an integer is due, a bool or a non-integer raises TypeError and a
numpy integer comes back as an int; where a rate is due, a bool or a
non-number (a string too) raises TypeError and the rate comes back as a
float. A value out of range raises ValueError. Each refusal names the
argument."""

import math
import numbers
import operator
import sys

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


def _as_float(value, what: str) -> float:
    """`value` as a float; a bool or a non-number (a string too) is refused.
    A number beyond the float range becomes an infinity of its sign."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_unit_interval(value, what: str) -> float:
    """`value` as a float in [0, 1]; NaN is refused."""
    rate = _as_float(value, what)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {rate}")
    return rate


def _normalisable(eps0: float) -> bool:
    """Whether eps0 * eps0, the polarisation distance's normalisation, is a
    normal float (False for NaN).

    A square that underflows to 0 leaves the distance undefined, and a
    subnormal one loses precision enough to change a survey's grouping.
    """
    return eps0 * eps0 >= sys.float_info.min


def check_design_rate(value, what: str) -> float:
    """`value` as a float in (0, 1] whose square is a normal float."""
    rate = _as_float(value, what)
    if not 0.0 < rate <= 1.0 or not _normalisable(rate):
        raise ValueError(
            f"{what} must be in (0, 1], and not one that squares to 0 or to "
            f"a subnormal float, got {rate}"
        )
    return rate


def check_invertible(kernel) -> None:
    """Refuse a kernel whose `invertible` flag is false."""
    if not kernel.invertible:
        raise ValueError(f"polar codes require an invertible kernel, got {kernel!r}")


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
