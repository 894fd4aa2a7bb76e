"""The shared integer check and the argument rules routed through it."""

import ast
from pathlib import Path

import numpy as np
import pytest

import polarkit
from polarkit import (
    PolarCode,
    evolve_spectrum,
    family_rows,
    kronecker_generator,
    parse_kernel,
    select_information_set,
    signature,
    survey_family,
)
from polarkit.errors import check_integer

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
