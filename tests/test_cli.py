import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import polarkit
from polarkit import BudgetExceededError
from polarkit.cli import main, parse_args


def run(argv):
    return main(argv)


def test_parse_args_analyze():
    ns = parse_args(
        ["analyze", "--kernel", "100,110,011", "--eps", "0.5", "--depth", "7",
         "--out", "spectrum.csv"]
    )
    assert ns.command == "analyze"
    assert ns.depth == 7


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args(["analyze", "--kernel", "10,11", "--depth", "2", "--bogus"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args([])
    assert exc.value.code == 2


def test_bad_kernel_text_exits_2(capsys):
    assert run(["analyze", "--kernel", "10,1X", "--depth", "2"]) == 2


def test_bad_eps_exits_2():
    assert run(["analyze", "--kernel", "10,11", "--eps", "1.5", "--depth", "2"]) == 2


def test_budget_exceeded_exits_3():
    assert run(["analyze", "--kernel", "10,11", "--depth", "60"]) == 3


def test_analyze_writes_spectrum(tmp_path, capsys):
    out = tmp_path / "spectrum.csv"
    assert run(
        ["analyze", "--kernel", "100,110,011", "--eps", "0.5", "--depth", "7",
         "--out", str(out)]
    ) == 0
    assert "N=2187" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,erasure_prob,capacity"
    assert len(lines) == 2188
    idx, z, cap = lines[1].split(",")
    assert idx == "0"
    assert float(z) + float(cap) == pytest.approx(1.0, abs=1e-12)


def test_survey_small_family(tmp_path, capsys):
    out = tmp_path / "survey.csv"
    assert run(
        ["survey", "--size", "3", "--family", "lower_triangular_unit_diagonal",
         "--eps", "0.5", "--depth", "7", "--out", str(out)]
    ) == 0
    assert "groups=3" in capsys.readouterr().out
    assert len(out.read_text().strip().split("\n")) == 9


def test_exponent_command(capsys):
    assert run(["exponent", "--kernel", "100,110,011", "--kernel", "10,10"]) == 0
    out = capsys.readouterr().out
    assert "exponent=0.420619835714" in out
    assert "singular" in out


def test_bound_command(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run(
        ["bound", "--kernel", "10,11", "--eps", "0.5", "--depth", "10",
         "--rates", "0.1,0.2,0.3,0.4,0.5", "--out", str(out)]
    ) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "rate,K,bound"
    assert len(lines) == 6
    assert lines[1].split(",")[1] == "102"  # K = round(0.1 * 1024)


def test_construct_and_simulate_round_trip(tmp_path, capsys):
    code_path = tmp_path / "code.json"
    assert run(
        ["construct", "--kernel", "1000,1001,0101,1111", "--depth", "2",
         "--rate", "0.25", "--eps", "0.5", "--out", str(code_path)]
    ) == 0
    doc = json.loads(code_path.read_text())
    assert doc["depth"] == 2
    assert doc["frozen_mask"].count("0") == 4
    sim_path = tmp_path / "sim.csv"
    assert run(
        ["simulate", "--code", str(code_path), "--eps", "0.5,0.4",
         "--seed", "9", "--min-frame-errors", "10", "--max-trials", "500",
         "--out", str(sim_path)]
    ) == 0
    lines = sim_path.read_text().strip().split("\n")
    assert len(lines) == 3


def test_simulate_reproducible_csv(tmp_path):
    args = ["simulate", "--kernel", "10,11", "--depth", "5", "--rate", "0.5",
            "--eps", "0.5", "--seed", "31", "--min-frame-errors", "20",
            "--max-trials", "400"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_requires_code_or_kernel():
    assert run(["simulate", "--eps", "0.5"]) == 2


def test_simulate_missing_code_file(tmp_path):
    assert run(["simulate", "--code", str(tmp_path / "nope.json"),
                "--eps", "0.5"]) == 2


def test_oracle_check_ok(capsys):
    assert run(["oracle-check", "--kernel", "100,110,011"]) == 0
    assert "ok" in capsys.readouterr().out


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POLARKIT_OUT_DIR", str(tmp_path))
    assert run(["bound", "--kernel", "10,11", "--depth", "3",
                "--rates", "0.5", "--out", "rel.csv"]) == 0
    assert (tmp_path / "rel.csv").exists()


def test_out_dir_env_var_leaves_the_code_input_path_alone(
    tmp_path, monkeypatch, capsys
):
    # Only output paths resolve under $POLARKIT_OUT_DIR: a relative --code is
    # read from the working directory, and the CSV lands under the out dir.
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.chdir(tmp_path)
    assert run(["construct", "--kernel", "10,11", "--depth", "3", "--rate",
                "0.5", "--out", "c.json"]) == 0
    monkeypatch.setenv("POLARKIT_OUT_DIR", str(out_dir))
    assert run(["simulate", "--code", "c.json", "--eps", "0.3",
                "--max-trials", "64", "--out", "sim.csv"]) == 0
    assert "error" not in capsys.readouterr().err
    assert (out_dir / "sim.csv").exists()
    assert not (out_dir / "c.json").exists()


def test_construct_rejects_singular_kernel(tmp_path):
    assert run(["construct", "--kernel", "10,10", "--depth", "2",
                "--rate", "0.5", "--out", str(tmp_path / "c.json")]) == 2


def test_no_partial_file_on_failed_write(tmp_path):
    target_dir = tmp_path / "ro"
    target_dir.mkdir()
    blocker = target_dir / "bounds.csv"
    blocker.mkdir()  # directory at the target path forces the rename to fail
    rc = run(["bound", "--kernel", "10,11", "--depth", "3", "--rates", "0.5",
              "--out", str(blocker)])
    assert rc == 3
    assert not any(p.is_file() for p in target_dir.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--size", "6"],
        ["exponent", "--size", "6", "--family", "all"],
        ["survey", "--size", "5", "--family", "all"],
    ],
)
def test_oversized_family_refused_with_exit_3(argv, capsys):
    assert run(argv) == 3
    assert "family budget of 65536" in capsys.readouterr().err


def _write_code(tmp_path, **changes):
    path = tmp_path / "code.json"
    assert run(["construct", "--kernel", "10,11", "--depth", "2", "--rate", "0.5",
                "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "changes",
    [{"depth": None}, {"frozen_mask": "0120"}, {"index_base": 1},
     {"frozen_mask": " 01"},
     # Arabic-Indic digits, which int() reads as 0 and 1
     {"frozen_mask": "\u0660\u0661"}, {"frozen_mask": "\u0660\u0661\u0660\u0661"},
     {"frozen_mask": [1, 1, 0, 0]}, {"frozen_values": [0, 0, 0, 0]},
     # a 400-digit integer, which float() cannot hold
     {"design_eps": 10**400}],
    ids=["depth_null", "non_binary_mask", "index_base_1", "mask_with_space",
         "mask_arabic_indic", "mask_arabic_indic_full_length", "mask_list",
         "values_list", "design_eps_400_digits"],
)
def test_malformed_code_descriptor_exits_2(tmp_path, capsys, changes):
    path = _write_code(tmp_path, **changes)
    capsys.readouterr()
    assert run(["simulate", "--code", str(path), "--eps", "0.5",
                "--max-trials", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: bad code descriptor")


@pytest.mark.parametrize("design_eps", ["0.5", True], ids=["string", "true"])
def test_code_descriptor_with_a_non_number_design_rate_exits_2(
    tmp_path, capsys, design_eps
):
    # Both loaded as rates: float("0.5") is 0.5 and float(True) is 1.0.
    path = _write_code(tmp_path, design_eps=design_eps)
    out = tmp_path / "sim.csv"
    capsys.readouterr()
    assert run(["simulate", "--code", str(path), "--eps", "0.5",
                "--max-trials", "10", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [
        "error: bad code descriptor: design erasure rate must be a number, "
        f"got {design_eps!r}"
    ]


def test_deeply_nested_code_file_exits_2(tmp_path, capsys):
    # json.load recurses once per array level and runs out of stack
    path = tmp_path / "code.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert run(["simulate", "--code", str(path), "--eps", "0.5",
                "--max-trials", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: bad code descriptor")


def test_bound_negative_depth_exits_2(capsys):
    assert run(["bound", "--kernel", "10,11", "--depth", "-1",
                "--rates", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_survey_4x4_csv_matches_published_census(tmp_path, capsys):
    out = tmp_path / "survey.csv"
    assert run(["survey", "--size", "4", "--family", "all", "--eps", "0.5",
                "--depth", "5", "--out", str(out)]) == 0
    assert "invertible_curves=11 best_group_size=192" in capsys.readouterr().out
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == (
        "390db381d7d5f10f1f6ede3d6edf4ad46c37c853c6d6195fa481416f4ad8bdd3"
    )


def test_exponent_size_below_two_exits_2():
    assert run(["exponent", "--size", "1"]) == 2


def test_exponent_size_output_matches_scalar_partial_distances(capsys):
    from polarkit import enumerate_kernels, partial_distances

    assert run(["exponent", "--size", "3", "--family", "all"]) == 0
    want = []
    for k in enumerate_kernels(3, "all"):
        if not k.invertible:
            want.append(f"{k.descriptor()}  singular")
            continue
        pd = partial_distances(k)
        d = ",".join(str(x) for x in pd.d)
        want.append(f"{k.descriptor()}  d=({d})  exponent={pd.exponent:.12g}")
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_exponent_oversized_kernel_exits_3(capsys):
    rows = ",".join("1" * 21 for _ in range(21))
    assert run(["exponent", "--kernel", "10,11", "--kernel", rows]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "span-member budget" in captured.err


_SIM_SMALL = ["simulate", "--kernel", "10,11", "--depth", "4", "--rate", "0.5",
              "--eps", "0.5", "--min-frame-errors", "5", "--max-trials", "200"]


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["below", "above"])
def test_simulate_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    out = tmp_path / "sim.csv"
    assert run(_SIM_SMALL + ["--seed", str(seed), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --seed must be in [0, 2**64)")
    assert not out.exists()


@pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["lowest", "highest"])
def test_simulate_seed_at_either_end_of_range_runs(tmp_path, seed):
    out = tmp_path / "sim.csv"
    assert run(_SIM_SMALL + ["--seed", str(seed), "--out", str(out)]) == 0
    assert out.read_text().strip().split("\n")[1].endswith(f",{seed}")


@pytest.mark.parametrize(
    "field,literal,message",
    [
        ("design_eps", '"nan"', "design erasure rate must be a number, got 'nan'"),
        ("design_eps", "NaN", "design erasure rate must be in [0, 1], got nan"),
        ("design_eps", "1.5", "design erasure rate must be in [0, 1], got 1.5"),
        ("depth", "1" + "0" * 30, "exceeds the spectrum budget"),
        ("depth", "1" + "0" * 4999, "integer of 5000 digits is out of range"),
    ],
    ids=["eps_nan_string", "eps_nan_literal", "eps_above_1", "depth_1e30",
         "depth_5000_digits"],
)
def test_code_descriptor_out_of_range_field_exits_2(
    tmp_path, capsys, field, literal, message
):
    path = _write_code(tmp_path)
    doc = json.loads(path.read_text())
    doc[field] = "PLACEHOLDER"
    path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
    capsys.readouterr()
    assert run(["simulate", "--code", str(path), "--eps", "0.5",
                "--max-trials", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad code descriptor") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--kernel", "10,11"],
        ["bound", "--kernel", "10,11", "--rates", "0.5"],
        ["construct", "--kernel", "10,11", "--rate", "0.5", "--out", "c.json"],
        ["simulate", "--kernel", "10,11", "--rate", "0.5", "--eps", "0.5"],
    ],
    ids=["analyze", "bound", "construct", "simulate"],
)
def test_huge_depth_refused_with_exit_3(tmp_path, monkeypatch, capsys, argv):
    # 2^(10^30) must never be formed: the depth is checked against the
    # spectrum budget first.
    monkeypatch.setenv("POLARKIT_OUT_DIR", str(tmp_path))
    assert run(argv + ["--depth", str(10**30)]) == 3
    assert "exceeds the spectrum budget" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("eps", ["0", "nan", "1.5", "-0.25", "1e-170", "1.6e-162"])
def test_survey_design_rate_outside_unit_interval_exits_2(tmp_path, capsys, eps):
    out = tmp_path / "survey.csv"
    assert run(["survey", "--size", "3", "--eps", eps, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--eps must be in (0, 1]" in captured.err
    assert not out.exists()


def test_analyze_at_eps_zero_still_reports_nan_distance(capsys):
    assert run(["analyze", "--kernel", "10,11", "--eps", "0", "--depth", "2"]) == 0
    assert "d_p=nan" in capsys.readouterr().out


def test_analyze_at_eps_with_subnormal_square_reports_nan_distance(capsys):
    # 1.6e-162 squares to a subnormal double, which would make the distance
    # imprecise.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["analyze", "--kernel", "10,11", "--eps", "1.6e-162",
                    "--depth", "2"]) == 0
    assert "d_p=nan" in capsys.readouterr().out


def test_analyze_at_eps_with_zero_square_reports_nan_distance(capsys):
    # 1e-320 is a positive double whose square underflows to 0, which would
    # make the distance 0/0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["analyze", "--kernel", "10,11", "--eps", "1e-320",
                    "--depth", "2"]) == 0
    assert "d_p=nan" in capsys.readouterr().out


def test_survey_huge_depth_refused_with_exit_3(capsys):
    assert run(["survey", "--size", "3", "--depth", str(10**11)]) == 3
    assert "spectrum budget" in capsys.readouterr().err


def test_simulate_code_with_kernel_above_size_12_exits_3(tmp_path, capsys, monkeypatch):
    # The decision tables enumerate 2^l observation masks; a 13x13 kernel is
    # refused with the budget exit code, not a traceback, before any channel
    # words are drawn.
    from polarkit import PolarCode, parse_kernel, sim

    def no_channel_work(*args):
        raise AssertionError("channel words drawn for a 13x13 kernel")

    monkeypatch.setattr(sim, "_known_rows", no_channel_work)

    kernel = parse_kernel(",".join("0" * i + "1" + "0" * (12 - i) for i in range(13)))
    mask = [1] + [0] * 12
    code = PolarCode(kernel=kernel, depth=1, frozen_mask=mask, frozen_values=[0] * 13)
    path = tmp_path / "code13.json"
    path.write_text(json.dumps(code.to_json_dict()))
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--code", str(path), "--eps", "0.5",
                "--max-trials", "100", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "error: size 2^13 exceeds the decoding-table mask budget of 4096"
    )
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    # An allocation that fails in the channel sampler's helper thread reaches
    # the CLI as a MemoryError, which exits 3 without a traceback.
    import threading

    from polarkit import sim

    caller, channel_words = threading.get_ident(), sim._channel_words

    def helper_out_of_memory(*args):
        if threading.get_ident() != caller:
            raise MemoryError
        return channel_words(*args)

    monkeypatch.setattr(sim, "_channel_words", helper_out_of_memory)
    out = tmp_path / "sim.csv"
    # 256 trials of N = 1,024 at a non-dyadic eps make 4 sub-blocks.
    assert run(["simulate", "--kernel", "10,11", "--depth", "10", "--rate", "0.5",
                "--eps", "0.45", "--max-trials", "200", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: MemoryError\n"
    assert not out.exists()


_SIM_CODE = ["simulate", "--kernel", "10,11", "--depth", "4", "--rate", "0.5"]
# refused before anything is written
_CONSTRUCT = ["construct", "--kernel", "10,11", "--out", "refused.json"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_SIM_CODE + ["--eps", "0.5,x"], "bad --eps"),
        (_SIM_CODE + ["--eps", ","], "--eps must list at least one"),
        (_SIM_CODE + ["--eps", "0.5", "--min-frame-errors", "0"],
         "--min-frame-errors must be >= 1, got 0"),
        (_SIM_CODE + ["--eps", "0.5", "--max-trials", "0"],
         "--max-trials must be >= 1, got 0"),
        (_SIM_CODE + ["--eps", "0.5", "--max-trials", str(2**64 + 1)],
         "--max-trials must be <= 2**64"),
        (["survey", "--size", "3", "--depth", "0"], "--depth must be >= 1"),
        (["exponent"], "provide --kernel or --size"),
        (["bound", "--kernel", "10,11", "--depth", "3", "--rates", "x"],
         "bad --rates"),
        (["analyze", "--kernel", "10,11", "--depth", "-1"], "--depth must be >= 0"),
        (["survey", "--size", "1"], "--size must be >= 2"),
        (["bound", "--kernel", "10,11", "--depth", "3", "--rates", "0.5,1.5"],
         "--rates must be in [0, 1], got 1.5"),
        (_CONSTRUCT + ["--depth", "3", "--rate", "1.5"], "--rate must be in [0, 1]"),
        (_CONSTRUCT + ["--depth", "3"], "provide --rate or --k"),
        (_CONSTRUCT + ["--depth", "-1", "--rate", "0.5"], "--depth must be >= 0"),
        (["bound", "--kernel", "10,11", "--depth", "3", "--rates", ","],
         "--rates must list at least one rate"),
        (_SIM_CODE + ["--eps", "0.5,,0.3"], "bad --eps: empty item in '0.5,,0.3'"),
        (["bound", "--kernel", "10,11", "--depth", "3", "--rates", "0.5,"],
         "bad --rates: empty item in '0.5,'"),
        (_SIM_CODE + ["--eps", ",0.5"], "bad --eps: empty item in ',0.5'"),
        (["simulate", "--kernel", "10,11", "--depth", "3", "--eps", "0.5"],
         "error: provide --code, or --kernel with --depth and --rate\n"),
    ],
    ids=["simulate_eps_malformed", "simulate_eps_empty",
         "simulate_min_frame_errors_0", "simulate_max_trials_0",
         "simulate_max_trials_above_2_64",
         "survey_depth_0", "exponent_no_kernel",
         "bound_rates_malformed", "analyze_depth_negative", "survey_size_1",
         "bound_rate_above_1", "construct_rate_above_1",
         "construct_without_rate_or_k", "construct_depth_negative",
         "bound_rates_empty", "simulate_eps_doubled_comma",
         "bound_rates_trailing_comma", "simulate_eps_leading_comma",
         "simulate_kernel_without_rate"],
)
def test_bad_option_value_exits_2(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("module", ["polarkit", "polarkit.cli"])
def test_module_entry_points_exit_with_the_command_status(module):
    # `python -m polarkit` runs __main__.py, `python -m polarkit.cli` the
    # module's own __main__ guard.
    env = dict(os.environ, PYTHONPATH=str(Path(polarkit.__file__).parents[1]))

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    good = python_m("oracle-check", "--kernel", "10,11")
    assert good.returncode == 0 and good.stderr == ""
    assert good.stdout.startswith("oracle-check kernel=10,11 ok")
    refused = python_m("analyze", "--kernel", "10,11", "--depth", "-1")
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr == "error: --depth must be >= 0, got -1\n"


def test_construct_k_sets_the_information_size_over_rate(tmp_path):
    path = tmp_path / "code.json"
    assert run(["construct", "--kernel", "10,11", "--depth", "3", "--rate", "0.5",
                "--k", "3", "--out", str(path)]) == 0
    assert json.loads(path.read_text())["frozen_mask"].count("0") == 3
    assert run(["construct", "--kernel", "10,11", "--depth", "3",
                "--k", "9", "--out", str(path)]) == 2


def test_oracle_check_mismatch_exits_3(monkeypatch, capsys):
    from polarkit import bec

    exact = bec.exhaustive_split_oracle
    monkeypatch.setattr(
        bec, "exhaustive_split_oracle", lambda *args: exact(*args) + 1e-9
    )
    assert run(["oracle-check", "--kernel", "100,110,011"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("oracle-check kernel=100,110,011 FAILED max|delta|=1e-09")


@pytest.mark.parametrize(
    "error, code",
    [(ValueError("refused by the library"), 2),
     (BudgetExceededError("refused by the library"), 3)],
    ids=["value_error", "budget_exceeded"],
)
def test_library_exception_type_sets_the_exit_code(monkeypatch, capsys, error, code):
    # Any ValueError refuses input, even one that no CLI check mirrors; a
    # BudgetExceededError (a ValueError too) is a resource failure.
    from polarkit import bec

    def refuse(*args):
        raise error

    monkeypatch.setattr(bec, "evolve_spectrum", refuse)
    assert run(["analyze", "--kernel", "10,11", "--depth", "2"]) == code
    assert capsys.readouterr().err == "error: refused by the library\n"


@pytest.mark.parametrize(
    "extra, named",
    [(["--kernel", "10,11", "--depth", "3", "--rate", "0.5"], "--kernel"),
     (["--depth", "3"], "--depth"),
     (["--design-eps", "0.3"], "--design-eps")],
    ids=["inline_construction", "depth", "design_eps"],
)
def test_simulate_refuses_a_code_file_with_an_inline_construction(
    tmp_path, capsys, extra, named
):
    path = _write_code(tmp_path)
    out = tmp_path / "sim.csv"
    capsys.readouterr()
    assert run(["simulate", "--code", str(path), *extra, "--eps", "0.5",
                "--max-trials", "10", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [
        f"error: --code and {named} are mutually exclusive"
    ]


def test_exponent_refuses_a_kernel_with_a_size(capsys):
    assert run(["exponent", "--kernel", "100,110,011", "--size", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: --kernel and --size are mutually exclusive"
    ]


@pytest.mark.parametrize("family", ["all", "lower_triangular_unit_diagonal"])
def test_exponent_refuses_a_kernel_with_a_family(capsys, family):
    assert run(["exponent", "--kernel", "100,110,011", "--family", family]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: --kernel and --family are mutually exclusive"
    ]


def test_exponent_family_defaults_to_lower_triangular(capsys):
    assert run(["exponent", "--size", "3"]) == 0
    default = capsys.readouterr().out
    assert run(["exponent", "--size", "3", "--family",
                "lower_triangular_unit_diagonal"]) == 0
    assert capsys.readouterr().out == default
    assert len(default.splitlines()) == 8


def test_simulate_design_eps_defaults_to_one_half(capsys):
    argv = ["simulate", "--kernel", "10,11", "--depth", "3", "--rate", "0.5",
            "--eps", "0.5", "--max-trials", "10"]
    assert run(argv) == run(argv + ["--design-eps", "0.5"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second and "design_eps=0.5 " in first
