import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import accsens
from accsens.cli import main

TABLE1 = "table1.json"  # packaged preset


def run_cli(*argv) -> int:
    return main(list(argv))


class TestBoundariesCommand:
    def test_reference_roots(self, capsys):
        assert run_cli("boundaries", "--problem", TABLE1, "--eta", "1") == 0
        out = capsys.readouterr().out
        assert "3.653388" in out and "18.777381" in out

    def test_detuned_roots(self, capsys):
        assert run_cli("boundaries", "--problem", TABLE1, "--eta", "0.4603") == 0
        out = capsys.readouterr().out
        assert "1.827980" in out and "20.602790" in out

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"h0": ')
        assert run_cli("boundaries", "--problem", str(bad)) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_key_named_in_diagnostic(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(
            '{"h0": {"family": "gaussian", "params": {"mu": 0, "sigma": 9}},'
            ' "h1": {"family": "gaussian", "params": {"mu": 9, "sigma": 4}},'
            ' "p0": 0.5, "pp": 1}'
        )
        assert run_cli("boundaries", "--problem", str(f)) == 2
        assert "'pp'" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert run_cli("boundaries", "--problem", "nope_not_here.json") == 2


class TestValueCommands:
    def test_accuracy(self, capsys):
        assert run_cli("accuracy", "--problem", TABLE1, "--classifier", "ml:1.0") == 0
        assert "0.789" in capsys.readouterr().out

    def test_sensitivity(self, capsys):
        assert run_cli(
            "sensitivity", "--problem", TABLE1, "--classifier", "general:3.65,18.78", "--norm", "inf"
        ) == 0
        assert "0.0334" in capsys.readouterr().out

    def test_bad_classifier_spec(self, capsys):
        assert run_cli("accuracy", "--problem", TABLE1, "--classifier", "oops:1") == 2


class TestCheckCommand:
    def test_tied_pair_reports_a1_failure(self, capsys):
        assert run_cli("check", "--problem", "fig2c.json") == 0
        out = capsys.readouterr().out
        assert "A1: FAIL" in out and "max-magnitude" in out

    def test_reference_pair_passes(self, capsys):
        assert run_cli("check", "--problem", TABLE1) == 0
        out = capsys.readouterr().out
        assert "A1: PASS" in out and "A2: PASS" in out and "A3: PASS" in out
        assert "solver warning" not in out

    def test_solver_warnings_are_printed_and_saved(self, tmp_path, capsys):
        # the eta stencil of this one-root pair puts a root exactly on the
        # support edge, and that grid solve warns about the root parity
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "h0": {"family": "exponential", "params": {"rate": 1.0}},
            "h1": {"family": "exponential", "params": {"rate": 1.00001}},
            "p0": 0.5,
        }))
        assert run_cli("check", "--problem", str(problem), "--out", str(tmp_path)) == 0
        assert "solver warning: root count parity" in capsys.readouterr().out
        payload = json.loads((tmp_path / "check.json").read_text())
        assert len(payload["result"]["warnings"]) == 1


class TestCurveCommand:
    def test_ml_solver_warnings_are_printed_and_saved(self, tmp_path, capsys):
        # at eta = 1.00001 the ratio root of this pair sits exactly on the
        # support edge, and that solve warns about the root parity
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "h0": {"family": "exponential", "params": {"rate": 1.0}},
            "h1": {"family": "exponential", "params": {"rate": 1.00001}},
            "p0": 0.5,
        }))
        assert run_cli(
            "curve", "ml", "--problem", str(problem), "--eta-min", "1.00001",
            "--eta-max", "1.00001", "--eta-steps", "1", "--out", str(tmp_path), "--format", "json",
        ) == 0
        assert "solver warning: root count parity" in capsys.readouterr().out
        payload = json.loads((tmp_path / "curve_ml.json").read_text())
        assert len(payload["result"]["metadata"]["warnings"]) == 1

    def test_small_ml_curve_csv(self, tmp_path):
        assert run_cli(
            "curve", "ml", "--problem", TABLE1, "--eta-steps", "25",
            "--out", str(tmp_path), "--format", "csv,json,svg",
        ) == 0
        csv = (tmp_path / "curve_ml.csv").read_text()
        assert csv.startswith("# config: ")
        assert csv.splitlines()[1] == "accuracy,sensitivity,y1,y2,provenance"
        payload = json.loads((tmp_path / "curve_ml.json").read_text())
        assert payload["config"]["norm"] == "inf"
        svg = (tmp_path / "curve_ml.svg").read_text()
        assert svg.startswith("<svg") and "<desc>" in svg

    def test_small_general_curve(self, tmp_path):
        assert run_cli(
            "curve", "general", "--problem", TABLE1, "--zeta-steps", "4",
            "--out", str(tmp_path),
        ) == 0
        lines = (tmp_path / "curve_general.csv").read_text().splitlines()
        assert len(lines) == 2 + 4  # comment + header + 4 points

    def test_empty_grid_exits_2(self):
        assert run_cli("curve", "ml", "--problem", TABLE1, "--eta-steps", "0") == 2

    def test_exponential_general_curve_keeps_its_top_point(self, tmp_path, capsys):
        problem = tmp_path / "exp.json"
        problem.write_text(json.dumps({
            "h0": {"family": "exponential", "params": {"rate": 1.0}},
            "h1": {"family": "exponential", "params": {"rate": 2.0}},
        }))
        assert run_cli(
            "curve", "general", "--problem", str(problem), "--zeta-steps", "3",
            "--format", "json", "--out", str(tmp_path),
        ) == 0
        assert "3 points" in capsys.readouterr().out
        payload = json.loads((tmp_path / "curve_general.json").read_text())
        assert payload["config"]["metadata"]["failed_zetas"] == []
        top = payload["result"]["points"][-1]
        assert top["accuracy"] == pytest.approx(0.625, abs=1e-9)

    def test_non_numeric_density_parameter_exits_2(self, tmp_path, capsys):
        problem = tmp_path / "bad.json"
        problem.write_text(json.dumps({
            "h0": {"family": "gaussian", "params": {"mu": 0.0, "sigma": "wide"}},
            "h1": {"family": "gaussian", "params": {"mu": 9.0, "sigma": 4.0}},
        }))
        assert run_cli("curve", "ml", "--problem", str(problem)) == 2
        assert "'sigma'" in capsys.readouterr().err


class TestSimulateCommand:
    def test_named_scenario(self, tmp_path, capsys):
        assert run_cli(
            "simulate", "--problem", TABLE1, "--scenario", "s1", "--classifier", "ml:1.0",
            "--n-obs", "2000", "--n-trials", "5", "--seed", "42", "--out", str(tmp_path),
        ) == 0
        assert "mean accuracy" in capsys.readouterr().out
        payload = json.loads((tmp_path / "experiment.json").read_text())
        assert payload["result"]["n_trials"] == 5
        assert (tmp_path / "trials.csv").exists()

    def test_custom_perturbation_file(self, tmp_path):
        f = tmp_path / "pert.json"
        f.write_text('{"mu_bar_0": 1.0, "sigma_bar_0": 2.0}')
        assert run_cli(
            "simulate", "--problem", TABLE1, "--perturbation", str(f),
            "--n-obs", "1000", "--n-trials", "3",
        ) == 0

    def test_negative_seed_exits_2(self, capsys):
        assert run_cli(
            "simulate", "--problem", TABLE1, "--scenario", "s1", "--n-obs", "100", "--seed", "-1",
        ) == 2
        assert "base_seed" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self):
        assert run_cli("simulate", "--problem", TABLE1, "--scenario", "s9") == 2

    @pytest.mark.parametrize("text", ['{"mu_bar_0": "far"}', '{"sigma_bar_1": null}', "5"])
    def test_malformed_perturbation_file_exits_2(self, tmp_path, capsys, text):
        f = tmp_path / "pert.json"
        f.write_text(text)
        assert run_cli("simulate", "--problem", TABLE1, "--perturbation", str(f)) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_perturbation_exits_2(self, tmp_path):
        f = tmp_path / "pert.json"
        f.write_text('{"sigma_bar_1": -100.0}')
        assert run_cli("simulate", "--problem", TABLE1, "--perturbation", str(f)) == 2


class TestDesignCommand:
    def test_single_gamma(self, tmp_path, capsys):
        assert run_cli(
            "design", "--box", "fig3.json", "--gamma", "0.8", "--out", str(tmp_path),
        ) == 0
        assert "gamma=0.8000" in capsys.readouterr().out
        text = (tmp_path / "design.csv").read_text()
        assert text.splitlines()[1] == "gamma,sens_star,mu0,sigma0,mu1,sigma1"
        assert "np.float" not in text  # plain scalar formatting only

    def test_infeasible_gamma_exits_3(self, tmp_path):
        box = tmp_path / "box.json"
        box.write_text(
            '{"bounds": [[0.0, 0.0], [3.0, 4.0], [0.0, 1.0], [3.0, 4.0]], "gamma": 0.5}'
        )
        assert run_cli("design", "--box", str(box), "--gamma", "0.99") == 3

    @pytest.mark.parametrize(
        "change", [{"p0": 0}, {"bounds": [[0, 0], [0.1, "wide"], [0, 40], [0.1, 15]]}]
    )
    def test_invalid_box_exits_2(self, tmp_path, capsys, change):
        box = tmp_path / "box.json"
        spec = {
            "bounds": [[0.0, 0.0], [0.1, 15.0], [0.0, 40.0], [0.1, 15.0]],
            "gamma": 0.9, "mean_gap_max": 40.0, "ordered_sigmas": True, "p0": 0.5,
        }
        box.write_text(json.dumps({**spec, **change}))
        assert run_cli("design", "--box", str(box), "--gamma", "0.8") == 2
        assert "configuration error" in capsys.readouterr().err


class TestReproduce:
    def test_table1_target_and_determinism(self, tmp_path):
        assert run_cli("reproduce", "table1", "--out", str(tmp_path / "a"), "--seed", "7") == 0
        assert run_cli("reproduce", "table1", "--out", str(tmp_path / "b"), "--seed", "7") == 0
        dir_a, dir_b = tmp_path / "a" / "table1", tmp_path / "b" / "table1"
        names = sorted(p.name for p in dir_a.iterdir())
        assert "table1.csv" in names and "metadata.json" in names
        for name in names:
            if name == "metadata.json":
                # equal after dropping the wall-time field
                ma = json.loads((dir_a / name).read_text())
                mb = json.loads((dir_b / name).read_text())
                ma.pop("wall_time_s"), mb.pop("wall_time_s")
                assert ma == mb
            else:
                assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_table1_negative_seed_exits_2(self, tmp_path, capsys):
        assert run_cli("reproduce", "table1", "--out", str(tmp_path), "--seed", "-1") == 2
        assert "base_seed" in capsys.readouterr().err

    def test_table1_rows_match_reference(self, tmp_path):
        assert run_cli("reproduce", "table1", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "table1" / "table1.csv").read_text().splitlines()
        c1 = lines[2].split(",")
        c2 = lines[3].split(",")
        assert float(c1[2]) == pytest.approx(3.65, abs=0.01)
        assert float(c1[3]) == pytest.approx(18.78, abs=0.01)
        assert float(c2[2]) == pytest.approx(1.83, abs=0.01)
        assert float(c2[3]) == pytest.approx(20.60, abs=0.01)
        assert float(c1[6]) == pytest.approx(0.6857, abs=0.01)  # s1 attack
        assert float(c2[6]) == pytest.approx(0.6947, abs=0.01)


def test_console_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(accsens.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "accsens.cli", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "accsens" in proc.stdout
