"""Command-line front end: outputs, routing, config handling, exit codes."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fixsing
import fixsing.complete
from fixsing.cli import main


def run_csv(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text(encoding="utf-8")


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, val = line[1:].strip().split("=", 1)
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    return meta, header, np.array(rows)


def test_characteristic_profile(tmp_path):
    code, text = run_csv(tmp_path, [
        "characteristic", "--beta", "0.5", "--m0", "20", "--grid", "11"])
    assert code == 0
    meta, header, rows = parse_csv(text)
    assert header == ["x", "phi"]
    assert rows.shape == (11, 2)
    assert rows[0, 1] == 0.0 and rows[-1, 1] == 0.0
    assert float(rows[5, 1]) == pytest.approx(0.441492, abs=5e-4)
    assert float(meta["C"]) == pytest.approx(0.5, abs=1e-10)


def test_characteristic_sweep_layout(tmp_path):
    code, text = run_csv(tmp_path, [
        "characteristic", "--beta", "0.5", "--m0", "5,10,20"])
    assert code == 0
    meta, header, rows = parse_csv(text)
    assert header == ["m0", "phi_at_0.5", "phi_at_0.25", "C"]
    assert rows.shape == (3, 4)
    assert rows[2, 1] == pytest.approx(0.441492, abs=5e-4)
    assert rows[2, 2] == pytest.approx(0.371442, abs=5e-4)


def test_characteristic_zero_load(tmp_path):
    code, text = run_csv(tmp_path, [
        "characteristic", "--beta", "0.5", "--m0", "8", "--grid", "7",
        "--amplitude", "0"])
    assert code == 0
    _, _, rows = parse_csv(text)
    np.testing.assert_allclose(rows[:, 1], 0.0, atol=0)


def test_characteristic_rejects_zero_beta():
    assert main(["characteristic", "--beta", "0"]) == 2


def test_antiplane_profile_and_metadata(tmp_path):
    code, text = run_csv(tmp_path, [
        "antiplane", "--lambda", "0.5", "--N", "10", "--t1", "100",
        "--t2", "110", "--grid", "5"])
    assert code == 0
    meta, header, rows = parse_csv(text)
    assert header == ["x", "phi"]
    assert float(meta["phi_at_0.5"]) == pytest.approx(0.601814, abs=2e-3)
    assert float(meta["beta"]) == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert "t1" in meta and meta["t1"] == "100"


def test_antiplane_truncation_sweep(tmp_path):
    code, text = run_csv(tmp_path, [
        "antiplane", "--lambda", "0.5", "--N", "5,10", "--t1", "100",
        "--t2", "110"])
    assert code == 0
    _, header, rows = parse_csv(text)
    assert header == ["N", "phi_at_0.5", "C"]
    assert rows.shape == (2, 3)


def test_antiplane_without_contrast_uses_cauchy(tmp_path):
    code, text = run_csv(tmp_path, [
        "antiplane", "--lambda", "1", "--N", "8", "--grid", "5"])
    assert code == 0
    meta, _, rows = parse_csv(text)
    assert meta["solver"] == "cauchy"
    assert float(meta["phi_at_0.5"]) == pytest.approx(0.5, abs=1e-8)


def test_antiplane_rejects_bad_modulus():
    assert main(["antiplane", "--lambda", "-2"]) == 2


def test_plane_strain_profile(tmp_path):
    code, text = run_csv(tmp_path, [
        "plane-strain", "--lambda", "0.5", "--nu1", "0.3", "--nu2", "0.3",
        "--N", "10", "--grid", "5"])
    assert code == 0
    meta, _, _ = parse_csv(text)
    assert float(meta["gamma0"]) == pytest.approx(0.4254909, abs=1e-6)
    assert float(meta["beta_eff"]) == pytest.approx(-0.2319456, abs=1e-6)


def test_plane_strain_homogeneous_routes_to_cauchy(tmp_path):
    code, text = run_csv(tmp_path, [
        "plane-strain", "--lambda", "1", "--nu1", "0.3", "--nu2", "0.3",
        "--N", "8", "--grid", "5"])
    assert code == 0
    meta, _, _ = parse_csv(text)
    assert meta["solver"] == "cauchy"
    assert float(meta["gamma0"]) == pytest.approx(0.5, abs=1e-9)
    assert float(meta["phi_at_0.5"]) == pytest.approx(0.5, abs=1e-8)


def test_gamma0_single_and_grid(tmp_path):
    code, text = run_csv(tmp_path, ["gamma0", "--lambda", "1"])
    assert code == 0
    _, header, rows = parse_csv(text)
    assert header == ["lambda", "gamma0", "beta_eff"]
    assert rows[0, 1] == pytest.approx(0.5, abs=1e-9)

    code, text = run_csv(tmp_path, [
        "gamma0", "--lambda-grid", "0.1,1,10"], name="grid.csv")
    assert code == 0
    _, _, rows = parse_csv(text)
    assert rows.shape == (3, 3)
    assert np.all(np.diff(rows[:, 1]) > 0)


def test_json_output_shape(tmp_path):
    out = tmp_path / "o.json"
    code = main(["antiplane", "--lambda", "0.5", "--N", "8", "--t1", "60",
                 "--t2", "64", "--grid", "5", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert set(payload) == {"config", "columns", "rows", "diagnostics"}
    assert payload["columns"] == ["x", "phi"]
    assert len(payload["rows"]) == 5


def test_output_is_deterministic(tmp_path):
    args = ["characteristic", "--beta", "0.5", "--m0", "10", "--grid", "9"]
    _, text1 = run_csv(tmp_path, args, name="a.csv")
    _, text2 = run_csv(tmp_path, args, name="b.csv")
    assert text1 == text2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.5\nload = uniform\nN = 8\nt1 = 60\nt2 = 64\n"
                   "# comment line\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    code = main(["antiplane", "--config", str(cfg), "--t1", "80",
                 "--grid", "5", "--out", str(out)])
    assert code == 0
    meta, _, _ = parse_csv(out.read_text(encoding="utf-8"))
    assert meta["t1"] == "80"  # flag wins
    assert meta["lambda"] == "0.5"


def test_malformed_config_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda 0.5\n", encoding="utf-8")
    assert main(["antiplane", "--config", str(cfg)]) == 2


def test_numerical_failure_exit_code(monkeypatch, tmp_path):
    monkeypatch.setattr(fixsing.complete, "COND_LIMIT", 1e-3)
    out = tmp_path / "o.csv"
    code = main(["antiplane", "--lambda", "0.5", "--N", "8", "--t1", "60",
                 "--t2", "64", "--out", str(out)])
    assert code == 3


def test_antiplane_solves_at_the_ends_of_the_stiffness_range(tmp_path):
    # the reflection series cost the same at any lambda; at N = 21 the
    # reported oracle residual is near 4e-4
    for lam in ("1e-4", "1e4"):
        code, text = run_csv(tmp_path, ["antiplane", "--lambda", lam,
                                        "--N", "21"])
        assert code == 0
        meta, _, rows = parse_csv(text)
        assert np.all(np.isfinite(rows))
        assert float(meta["C"]) == pytest.approx(0.5, abs=1e-10)
        assert float(meta["equation_residual_max"]) <= 2e-3


@pytest.mark.parametrize("lam", ["1e16", "1e-17"])
def test_contrast_that_rounds_beta_to_one_is_a_numerical_failure(lam,
                                                                 capsys):
    # (lambda - 1)/(lambda + 1) rounds to +-1: a physical input the solver
    # cannot take, not a configuration error
    assert main(["antiplane", "--lambda", lam]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "|beta| -> 1" in err
    assert "beta = 0" not in err


@pytest.mark.parametrize("args", [
    ["plane-strain", "--lambda", "1e-7"],
    ["gamma0", "--lambda-grid", "1e-7"],
], ids=["plane-strain", "gamma0"])
def test_exponent_root_below_scan_is_a_numerical_failure(args, capsys):
    # Lambda(0) = 8e-7 > 0 > Lambda(1e-3): the root exists but lies below
    # the first scanned node, and the message names the scanned range
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "[1e-3, 0.999]" in err
    assert "(0, 1)" not in err


@pytest.mark.parametrize("grid", [",", ""])
def test_empty_lambda_grid_is_a_configuration_error(grid, capsys):
    assert main(["gamma0", "--lambda-grid", grid]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "lambda-grid" in err


@pytest.mark.parametrize("args", [
    ["antiplane", "--lambda", "nan"],
    ["antiplane", "--lambda", "inf"],
    ["antiplane", "--lambda", "0.5", "--amplitude", "nan"],
    ["characteristic", "--beta", "0.5", "--amplitude", "inf"],
    ["plane-strain", "--lambda", "nan"],
    ["gamma0", "--lambda-grid", "0.5,nan"],
    ["antiplane", "--G1", "1", "--G2", "0"],
], ids=["lambda-nan", "lambda-inf", "amplitude-nan", "amplitude-inf",
        "plane-strain-nan", "gamma0-grid-nan", "G2-zero"])
def test_nonfinite_inputs_are_configuration_errors(args, capsys):
    assert main(args) == 2
    assert capsys.readouterr().out == ""


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fixsing.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fixsing.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_verify_suite_filter(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "specfun", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert all(c["suite"] == "specfun" for c in report["checks"])


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "nonsense"]) == 2


@pytest.mark.parametrize("nodes", ["0", "8", "-4"])
def test_verify_rejects_a_node_budget_below_16(nodes, capsys):
    assert main(["verify", "--suite", "specfun", "--nodes", nodes]) == 2
    assert "need at least 16 nodes" in capsys.readouterr().err


def test_antiplane_without_contrast_sweeps(tmp_path):
    code, text = run_csv(tmp_path, ["antiplane", "--lambda", "1", "--N", "5,9"])
    assert code == 0
    meta, header, rows = parse_csv(text)
    assert meta["solver"] == "cauchy"
    assert header == ["N", "phi_at_0.5", "C"]
    assert rows.shape == (2, 3)
    np.testing.assert_allclose(rows[:, 0], [5, 9])
    np.testing.assert_allclose(rows[:, 1:], 0.5, atol=1e-8)


def test_infinite_integer_is_a_configuration_error(tmp_path, capsys):
    assert main(["antiplane", "--lambda", "0.5", "--N", "inf"]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.5\nt1 = 1e400\n", encoding="utf-8")
    assert main(["antiplane", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""


def _readme_commands():
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    commands = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].replace("[", "").replace("]", "")
        if line.strip():
            commands.append(line.split()[1:])  # drop the program name
    return commands


def test_readme_examples_run(tmp_path):
    commands = _readme_commands()
    assert len(commands) == 7
    for i, args in enumerate(commands):
        out = tmp_path / f"{i}.out"
        assert main(args + ["--out", str(out)]) == 0, args
        assert out.stat().st_size > 0


@pytest.mark.parametrize("args", [
    ["antiplane", "--lambda", "0.5", "--N", ","],
    ["characteristic", "--beta", "0.5", "--m0", ","],
], ids=["N", "m0"])
def test_integer_list_without_integers_is_a_configuration_error(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least one integer" in captured.err


@pytest.mark.parametrize("args", [
    ["antiplane", "--lambda", "0.5", "--beta", "0.3"],
    ["plane-strain", "--lambda", "2", "--beta", "0.3"],
    ["gamma0", "--lambda", "2", "--beta", "0.3"],
    ["characteristic", "--beta", "0.5", "--lambda", "2"],
    ["characteristic", "--beta", "0.5", "--G1", "2"],
    ["characteristic", "--beta", "0.5", "--G2", "2"],
    ["characteristic", "--beta", "0.5", "--nu1", "0.2"],
    ["characteristic", "--beta", "0.5", "--nu2", "0.2"],
    ["characteristic", "--beta", "0.5", "--N", "9"],
    ["antiplane", "--lambda", "0.5", "--nu1", "0.2"],
    ["antiplane", "--lambda", "0.5", "--m0", "9"],
    ["gamma0", "--lambda", "2", "--N", "9"],
], ids=["antiplane-beta", "plane-strain-beta", "gamma0-beta",
        "characteristic-lambda", "characteristic-G1", "characteristic-G2",
        "characteristic-nu1", "characteristic-nu2", "characteristic-N",
        "antiplane-nu1", "antiplane-m0", "gamma0-N"])
def test_flags_a_command_does_not_read_are_rejected(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_gamma0_accepts_the_load_flags(tmp_path):
    code, text = run_csv(tmp_path, [
        "gamma0", "--lambda", "2", "--load", "linear", "--amplitude", "3",
        "--format", "csv"])
    assert code == 0
    assert parse_csv(text)[2].shape == (1, 3)


def test_cauchy_route_single_run_is_diagnosed(tmp_path):
    code, text = run_csv(tmp_path, ["antiplane", "--lambda", "1"])
    assert code == 0
    meta, _, _ = parse_csv(text)
    assert meta["solver"] == "cauchy"
    assert float(meta["equation_residual_max"]) < 1e-9
    assert "regularization_constant_gap" not in meta


def test_package_exports_resolve():
    for name in fixsing.__all__:
        assert getattr(fixsing, name) is not None, name
    assert not hasattr(fixsing, "CauchySolution")
    assert not hasattr(fixsing, "SeriesSolution")


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _split_numbers(line):
    """The line with each number replaced by '#', and the numbers."""
    return _NUMBER.sub("#", line), [float(t) for t in _NUMBER.findall(line)]


def test_readme_outputs_match_the_pinned_values(tmp_path):
    # every number the README commands print stays within 1e-10 relative
    # (plus 1e-12) of tests/data/readme_outputs.json; for verify the check
    # names and pass flags are pinned
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                        "readme_outputs.json")
    with open(path, encoding="utf-8") as fh:
        pinned = json.load(fh)
    commands = _readme_commands()
    assert sorted(" ".join(args) for args in commands) == sorted(pinned)
    for i, args in enumerate(commands):
        out = tmp_path / f"{i}.out"
        assert main(args + ["--out", str(out)]) == 0, args
        text = out.read_text(encoding="utf-8")
        want = pinned[" ".join(args)]
        if args[0] == "verify":
            got = [[c["suite"], c["name"], c["passed"]]
                   for c in json.loads(text)["checks"]]
            assert got == want
            continue
        lines = text.splitlines()
        assert len(lines) == len(want), args
        for got_line, want_line in zip(lines, want):
            got_skel, got_vals = _split_numbers(got_line)
            want_skel, want_vals = _split_numbers(want_line)
            assert got_skel == want_skel, (args, got_line, want_line)
            gap = np.abs(np.subtract(got_vals, want_vals))
            assert np.all(gap <= 1e-10 * np.abs(want_vals) + 1e-12), (
                args, got_line, want_line)
