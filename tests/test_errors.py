"""The shared input checks and the argument rules routed through them."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import polarkit
from polarkit import (
    BecChannel,
    Kernel,
    PolarCode,
    Spectrum,
    StopRule,
    bound_curve,
    evaluate_erasure,
    evolve_spectrum,
    exhaustive_split_oracle,
    family_rows,
    group_survey,
    kernel_step_decide,
    kronecker_generator,
    one_step_profile,
    parse_kernel,
    polarisation_distance,
    run_monte_carlo,
    select_information_set,
    signature,
    stride_permutation,
    survey_family,
)
from polarkit.errors import check_design_rate, check_integer, check_unit_interval

G2 = parse_kernel("10,11")


def test_check_integer_returns_a_plain_int():
    for value in (3, np.int64(3), np.uint8(3)):
        got = check_integer(value, "n", 1)
        assert got == 3 and type(got) is int


@pytest.mark.parametrize(
    "value",
    [True, False, 2.0, "2", None, np.float64(2)],
    ids=["True", "False", "float", "str", "None", "numpy-float"],
)
def test_check_integer_refuses_bools_and_non_integers(value):
    with pytest.raises(TypeError, match=r"^width must be an integer, got "):
        check_integer(value, "width")


def test_check_integer_refuses_values_below_the_minimum():
    with pytest.raises(ValueError, match=r"^width must be >= 2, got 1$"):
        check_integer(1, "width", 2)
    with pytest.raises(ValueError, match=r"^width must be >= 0, got -1$"):
        check_integer(np.int64(-1), "width")


@pytest.mark.parametrize(
    "call",
    [
        lambda: PolarCode(
            kernel=G2, depth=True, frozen_mask=[1, 0], frozen_values=[0, 0]
        ),
        lambda: evolve_spectrum(G2, 0.5, True),
        lambda: survey_family(2, "all", 0.5, True),
        lambda: signature(G2, 0.5, True),
        lambda: kronecker_generator(G2, True),
    ],
    ids=["PolarCode", "evolve_spectrum", "survey_family", "signature",
         "kronecker_generator"],
)
def test_a_bool_depth_is_refused(call):
    # True would otherwise run as depth 1.
    with pytest.raises(TypeError, match="depth must be an integer, got True"):
        call()


def test_a_float_depth_is_refused_by_name():
    with pytest.raises(TypeError, match="depth must be an integer, got 2.0"):
        evolve_spectrum(G2, 0.5, 2.0)


def test_a_float_information_size_is_refused():
    spectrum = evolve_spectrum(G2, 0.5, 2)
    with pytest.raises(TypeError, match="K must be an integer, got 2.0"):
        select_information_set(spectrum, 2.0)
    assert select_information_set(spectrum, np.int64(2)).tolist() == [2, 3]


def test_family_rows_takes_a_numpy_integer_size():
    assert np.array_equal(family_rows(np.int64(3)), family_rows(3))


def test_only_check_size_budget_raises_budget_exceeded():
    # Every size budget is refused by kernels.check_size_budget, so each
    # refusal has one overflow-safe check and one message form.
    sites = []
    for path in sorted(Path(polarkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name != "BudgetExceededError":
                continue
            owners = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            sites.append((path.name, owners[-1] if owners else None))
    assert sites == [("kernels.py", "check_size_budget")]


def _code():
    return PolarCode.construct(G2, 2, 2)


# (the entry point, called with the value under test; the argument's name)
_RATE_ARGUMENTS = {
    "evolve_spectrum": (lambda v: evolve_spectrum(G2, v, 2), "design erasure rate"),
    "evaluate_erasure": (
        lambda v: evaluate_erasure(one_step_profile(G2), 0, v), "erasure rate"
    ),
    "bound_curve": (lambda v: bound_curve(evolve_spectrum(G2, 0.5, 2), [v]), "rate"),
    "exhaustive_split_oracle": (
        lambda v: exhaustive_split_oracle(G2, 1, v, 0), "erasure rate"
    ),
    "PolarCode": (
        lambda v: PolarCode(
            kernel=G2, depth=1, frozen_mask=[1, 0], frozen_values=[0, 0],
            design_eps=v,
        ),
        "design erasure rate",
    ),
    "PolarCode.construct": (
        lambda v: PolarCode.construct(G2, 2, 2, v), "design erasure rate"
    ),
    "BecChannel": (lambda v: BecChannel(v), "erasure probability"),
    "run_monte_carlo": (
        lambda v: run_monte_carlo(_code(), v, StopRule(1, 64), 0),
        "erasure probability",
    ),
    "signature": (lambda v: signature(G2, v, 2), "design erasure rate"),
    "group_survey": (lambda v: group_survey([G2], v, 2), "design erasure rate"),
    "survey_family": (lambda v: survey_family(2, "all", v, 2), "design erasure rate"),
    "polarisation_distance": (
        lambda v: polarisation_distance(
            Spectrum(kernel=G2, depth=1, z=np.array([0.75, 0.25]), design_eps=v)
        ),
        "design erasure rate",
    ),
}

_INDEX_ARGUMENTS = {
    "evaluate_erasure": (
        lambda v: evaluate_erasure(one_step_profile(G2), v, 0.3), "channel index"
    ),
    "exhaustive_split_oracle": (
        lambda v: exhaustive_split_oracle(G2, 1, 0.3, v), "channel index"
    ),
    "kernel_step_decide": (
        lambda v: kernel_step_decide(G2, v, [1], [0, 1]), "position"
    ),
    "stride_permutation_N": (lambda v: stride_permutation(v, 1), "N"),
    "stride_permutation_l": (lambda v: stride_permutation(4, v), "l"),
    "Kernel.from_json_dict": (
        lambda v: Kernel.from_json_dict({"l": v, "rows": ["10", "11"]}),
        "kernel 'l' field",
    ),
}

_NOT_NUMBERS = {"True": True, "False": False, "str": "1"}


def _cases(arguments, kind):
    return [
        pytest.param(call, f"{name} must be {kind}, got {value!r}", value,
                     id=f"{entry}-{vid}")
        for entry, (call, name) in arguments.items()
        for vid, value in _NOT_NUMBERS.items()
    ]


@pytest.mark.parametrize(
    "call,message,value",
    _cases(_RATE_ARGUMENTS, "a number") + _cases(_INDEX_ARGUMENTS, "an integer"),
)
def test_a_bool_or_a_string_is_refused_by_name(call, message, value):
    # True would otherwise run as eps 1 or as index 1, and a string failed
    # with an error that named no argument.
    with pytest.raises(TypeError, match="^" + re.escape(message) + "$"):
        call(value)


def test_a_checked_rate_is_a_plain_float():
    for check in (check_unit_interval, check_design_rate):
        for value in (0.25, np.float64(0.25), np.float32(0.25), 1):
            got = check(value, "eps")
            assert type(got) is float and got == float(value)
    code = PolarCode(
        kernel=G2, depth=1, frozen_mask=[1, 0], frozen_values=[0, 0],
        design_eps=np.float32(0.25),
    )
    assert type(code.design_eps) is float
    report = run_monte_carlo(_code(), np.float64(0.5), StopRule(1, 64), 0)
    assert type(report.eps) is float


def test_a_rate_beyond_the_float_range_is_out_of_range():
    # float(10**400) overflows; the refusal is the range check's.
    with pytest.raises(ValueError, match=r"^eps must be in \[0, 1\], got inf$"):
        check_unit_interval(10**400, "eps")
    with pytest.raises(ValueError, match=r"^eps must be in \(0, 1\], .* got -inf$"):
        check_design_rate(-(10**400), "eps")


def test_one_text_for_every_singular_kernel_refusal():
    singular = parse_kernel("11,11")
    for call in (
        lambda: PolarCode.construct(singular, 1, 1),
        lambda: polarkit.partial_distances(singular),
        lambda: polarkit.rate_exponent_table([G2, singular]),
    ):
        with pytest.raises(
            ValueError, match=r"^polar codes require an invertible kernel, "
            r"got Kernel\('11,11'\)$"
        ):
            call()
