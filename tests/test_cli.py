import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import accsens
import accsens.cli
from accsens.cli import main
from conftest import undefined_pair, warn_on_the_stencil

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

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_threshold_not_positive_and_finite_exits_2(self, value, capsys):
        # an infinite threshold would print "eta": Infinity, which is no JSON
        assert run_cli("boundaries", "--problem", TABLE1, f"--eta={value}") == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "eta must be positive and finite" in err

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

    def test_custom_family_exits_2(self, tmp_path, capsys):
        # custom densities are Python callables, which no problem file holds
        f = tmp_path / "p.json"
        f.write_text(
            '{"h0": {"family": "custom", "name": "x", "params": {"a": 1}},'
            ' "h1": {"family": "gaussian", "params": {"mu": 0, "sigma": 1}}}'
        )
        assert run_cli("boundaries", "--problem", str(f)) == 2
        assert "DensityModel.from_custom" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "spec",
        ["general:1,2:sideways", "general:left", "general:", "linear", "linear:1:3", "ml:one"],
    )
    def test_malformed_classifier_spec_values_exit_2(self, capsys, spec):
        assert run_cli("accuracy", "--problem", TABLE1, "--classifier", spec) == 2
        assert f"cannot parse classifier spec {spec!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["inf", "nan"])
    def test_ml_threshold_not_finite_exits_2(self, capsys, eta):
        assert run_cli("accuracy", "--problem", TABLE1, "--classifier", f"ml:{eta}") == 2
        assert "eta must be positive and finite" in capsys.readouterr().err


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

    def test_solver_warnings_are_printed_and_saved(self, tmp_path, capsys, monkeypatch):
        warn_on_the_stencil(monkeypatch, "log ratio undefined on the whole interval")
        assert run_cli("check", "--problem", TABLE1, "--out", str(tmp_path)) == 0
        assert "solver warning: log ratio undefined" in capsys.readouterr().out
        payload = json.loads((tmp_path / "check.json").read_text())
        assert len(payload["result"]["warnings"]) == 1


class TestCurveCommand:
    def test_ml_solver_warnings_are_printed_and_saved(self, tmp_path, capsys, monkeypatch):
        # both densities of this pair vanish on the whole default interval,
        # and the grid solve warns that the log ratio is undefined there; a
        # problem file cannot name a custom family, so the loader is replaced
        monkeypatch.setattr(accsens.cli, "_load_problem", lambda path: undefined_pair())
        assert run_cli(
            "curve", "ml", "--problem", "custom.json", "--eta-min", "1",
            "--eta-max", "1", "--eta-steps", "1", "--out", str(tmp_path), "--format", "json",
        ) == 0
        assert "solver warning: log ratio undefined" in capsys.readouterr().out
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

    @pytest.mark.parametrize("formats", ["xml", "csv,jsn"])
    def test_unknown_format_exits_2(self, tmp_path, capsys, formats):
        out = tmp_path / "d"
        assert run_cli(
            "curve", "ml", "--problem", TABLE1, "--eta-steps", "2", "--format", formats,
            "--out", str(out),
        ) == 2
        assert repr(formats.split(",")[-1]) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("formats", ["json", "svg", "csv,json"])
    def test_file_formats_without_out_exit_2(self, capsys, formats):
        # json and svg go only to files; without --out nothing would be written
        assert run_cli("curve", "ml", "--problem", TABLE1, "--eta-steps", "2", "--format", formats) == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["--eta-min", "--eta-max"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_threshold_range_not_positive_and_finite_exits_2(self, bound, value, capsys):
        assert run_cli("curve", "ml", "--problem", TABLE1, f"{bound}={value}") == 2
        assert "configuration error" in capsys.readouterr().err

    def test_threshold_range_at_the_float_limits(self):
        # geomspace over- and underflows on the way to these ends
        assert run_cli(
            "curve", "ml", "--problem", TABLE1, "--eta-min=5e-324",
            "--eta-max=1.7976931348622103e308", "--eta-steps=2",
        ) == 0

    @pytest.mark.parametrize("count", ["0", "-1", "4"])
    def test_non_positive_boundary_count_exits_2(self, count, capsys):
        assert run_cli(
            "curve", "general", "--problem", TABLE1, "--zeta-steps", "2", "--n-boundaries", count
        ) == 2
        assert "n_boundaries must be >= 1" in capsys.readouterr().err

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
        # the middle target is scanned; 0.5 and the top have closed answers
        assert payload["config"]["metadata"]["refined_minima"] > 0
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

    def test_scenario_and_perturbation_together_exit_2(self, tmp_path, capsys):
        assert run_cli(
            "simulate", "--problem", TABLE1, "--scenario", "s1",
            "--perturbation", str(tmp_path / "missing.json"),
        ) == 2
        assert "not both" in capsys.readouterr().err

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

    def test_gap_lost_to_rounding_exits_3(self, tmp_path, capsys):
        # mu0 is pinned 1e13 widths from the origin: mu0 + d sigma0 rounds
        # the gap, and the placed design misses gamma
        box = tmp_path / "box.json"
        box.write_text('{"bounds": [[10, 10], [1e-12, 1e-12], [10, 11], [1e-12, 1e-12]], "gamma": 0.9}')
        assert run_cli("design", "--box", str(box), "--gamma", "0.9") == 3
        assert "lost to rounding" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:1.7976931348623157e308:4", "-1.7976931348623157e308:1.7976931348623157e308:3"])
    def test_gamma_grid_at_the_float_limit_exits_2(self, grid, capsys):
        # the grid's steps overflow; its targets lie outside [0.5, 1]
        assert run_cli("design", "--box", "fig3.json", f"--gamma-grid={grid}") == 2
        assert "gamma must lie in" in capsys.readouterr().err

    def test_empty_gamma_grid_exits_2(self, capsys):
        assert run_cli("design", "--box", "fig3.json", "--gamma-grid", "0.6:0.7:0") == 2
        assert "at least one target" in capsys.readouterr().err

    def test_gamma_and_gamma_grid_together_exit_2(self, capsys):
        assert run_cli(
            "design", "--box", "fig3.json", "--gamma", "0.8", "--gamma-grid", "0.6:0.7:2"
        ) == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change",
        [
            {"p0": 0},
            {"bounds": [[0, 0], [0.1, "wide"], [0, 40], [0.1, 15]]},
            # beyond the solver's range: a width ratio below about 1e-154
            # would square to 0
            {"bounds": [[0, 0], [1e-320, 1], [0, 1], [1e-320, 1]]},
            {"bounds": [[0, 0], [1, 1e300], [0, 1e300], [1, 1e300]]},
        ],
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


_PROBLEM = {
    "h0": {"family": "gaussian", "params": {"mu": 0.0, "sigma": 9.0}},
    "h1": {"family": "gaussian", "params": {"mu": 9.0, "sigma": 4.0}},
    "p0": 0.5,
}
_BOX = {"bounds": [[0.0, 0.0], [0.1, 15.0], [0.0, 40.0], [0.1, 15.0]], "gamma": 0.9}


class TestStepCounts:
    """A grid's step count past the longest float array numpy makes is a
    configuration error that names its option, not numpy's ValueError.
    Every count here is one numpy refuses before it allocates."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("curve", "general", "--problem", TABLE1, f"--zeta-steps={10**20}"), "--zeta-steps"),
            (("curve", "ml", "--problem", TABLE1, f"--eta-steps={10**20}"), "--eta-steps"),
            (("curve", "linear", "--problem", TABLE1, f"--y-steps={10**20}"), "--y-steps"),
            (("design", "--box", "fig3.json", f"--gamma-grid=0.6:0.7:{10**20}"), "--gamma-grid"),
        ],
    )
    def test_count_past_the_array_limit_exits_2(self, argv, option, capsys):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and option in err

    def test_first_count_past_the_limit_exits_2(self, capsys):
        # 8 bytes a step: numpy refuses this grid's size in bytes as well
        assert run_cli("curve", "linear", "--problem", TABLE1, f"--y-steps={accsens.cli._MAX_STEPS + 1}") == 2
        assert "--y-steps" in capsys.readouterr().err


class TestNumberRule:
    """A number in any input file is a JSON int or float, not a boolean,
    inside the float range; anything else is a configuration error."""

    @pytest.mark.parametrize(
        "value", [10**400, True, "0.5", None, [0.5]], ids=["huge_int", "true", "string", "null", "list"]
    )
    @pytest.mark.parametrize(
        "argv, document, path",
        [
            (["boundaries", "--problem"], _PROBLEM, ("h0", "params", "sigma")),
            (["boundaries", "--problem"], _PROBLEM, ("p0",)),
            (["design", "--gamma", "0.8", "--box"], _BOX, ("bounds", 1, 1)),
            (
                ["simulate", "--problem", TABLE1, "--n-obs", "100", "--n-trials", "1", "--perturbation"],
                {"mu_bar_0": 1.0},
                ("mu_bar_0",),
            ),
        ],
        ids=["density_parameter", "p0", "box_bound", "shift"],
    )
    def test_anything_but_a_number_exits_2(self, tmp_path, capsys, argv, document, path, value):
        document = json.loads(json.dumps(document))
        slot = document
        for key in path[:-1]:
            slot = slot[key]
        slot[path[-1]] = value
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(document))
        assert run_cli(*argv, str(f)) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_integer_of_too_many_digits_exits_2(self, tmp_path, capsys):
        # json refuses to read an integer of more than 4300 digits
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(_PROBLEM).replace("0.5", "1" * 5000))
        assert run_cli("boundaries", "--problem", str(f)) == 2
        assert "configuration error" in capsys.readouterr().err


#: Option values inside, at and beyond the edges of every valid range.
_REALS = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "nan", "inf", "-inf", "5e-324", "1e308", "0.5", "0.7", "2"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
#: Step and sample counts, at most 8 so that a valid draw stays cheap.
_COUNTS = st.integers(-2, 8).map(str)
#: Stands for an exponential problem file, written by the test's fixture.
_EXP_PROBLEM = "<exponential problem>"
#: Magnitudes of design-box values, from subnormal to near the float limit.
_MAGNITUDES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-320, 1e-154, 1e-20, 0.1, 1.0, 15.0, 40.0, 1e20, 1e154, 1e300]),
    st.floats(1e-320, 1e300),
)


@st.composite
def design_boxes(draw):
    """Design-box file contents: bounds, mean_gap_max, ordered_sigmas and p0."""
    def bound(signs):
        return sorted(draw(_MAGNITUDES) * draw(st.sampled_from(signs)) for _ in range(2))

    means, widths = [1.0, -1.0], [1.0]
    box = {"bounds": [bound(means), bound(widths), bound(means), bound(widths)]}
    if draw(st.booleans()):
        box["mean_gap_max"] = draw(_MAGNITUDES)
    if draw(st.booleans()):
        box["ordered_sigmas"] = draw(st.booleans())
    if draw(st.booleans()):
        box["p0"] = draw(st.sampled_from([5e-324, 1e-300, 0.5, 1.0 - 2**-53]) | st.floats(0.0, 1.0))
    return box


#: Gaussian widths, from the smallest subnormal to near the float limit.
_WIDTHS = st.one_of(
    st.sampled_from([5e-324, 1e-320, 1e-300, 1e-154, 1e-6, 1.0, 1e6, 1e154, 1e300]),
    st.floats(5e-324, 1e300),
)


@st.composite
def gaussian_problems(draw):
    """Gaussian problem-file contents: means up to +-1e300, widths from
    5e-324 to 1e300, equal or within 1e-9 of each other, and p0."""
    means = st.sampled_from([0.0, 1.0, -1.0, 1e-300, 1e300, -1e300]) | st.floats(-1e300, 1e300)
    s0 = draw(_WIDTHS)
    s1 = draw(_WIDTHS | st.just(s0) | st.floats(-1e-9, 1e-9).map(lambda t: s0 * (1.0 + t)))
    mu0 = draw(means)
    mu1 = draw(means | st.floats(-1e-6, 1e-6).map(lambda t: mu0 + t * s0))
    problem = {
        "h0": {"family": "gaussian", "params": {"mu": mu0, "sigma": s0}},
        "h1": {"family": "gaussian", "params": {"mu": mu1, "sigma": s1}},
    }
    if draw(st.booleans()):
        problem["p0"] = draw(st.sampled_from([0.0, 5e-324, 0.5, 1.0 - 2**-53, 1.0]) | st.floats(0.0, 1.0))
    return problem


@st.composite
def gaussian_argvs(draw):
    problem = ["--problem", draw(gaussian_problems())]
    command = draw(st.sampled_from(["boundaries", "accuracy", "sensitivity"]))
    if command == "boundaries":
        return ["boundaries", *problem, f"--eta={draw(_REALS)}"]
    if command == "accuracy":
        return ["accuracy", *problem]
    return ["sensitivity", *problem, f"--norm={draw(st.sampled_from(['inf', 'two']))}"]


@st.composite
def perturbations(draw):
    """Perturbation-file contents: any of the four shifts."""
    keys = ("mu_bar_0", "sigma_bar_0", "mu_bar_1", "sigma_bar_1")
    return {k: draw(st.floats(-5.0, 5.0)) for k in keys if draw(st.booleans())}


#: Values that stand for no number, object or list an input file expects.
_BAD_VALUES = st.sampled_from([None, True, False, "0.5", "wide", [], [0.5], {}, 10**400, -(10**400)])


@st.composite
def malformed(draw, documents):
    """A drawn document with one fault: a non-object top, or an unknown key
    in one of its objects, or a missing or bad value at one of its keys or
    list positions."""
    doc = draw(documents)
    slots = []  # (container, key or index) of every value inside doc

    def walk(node):
        for key in node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ():
            slots.append((node, key))
            walk(node[key])

    walk(doc)
    fault = draw(st.sampled_from(["top", "unknown", "missing", "value"]))
    if fault == "top" or not slots:
        return draw(st.sampled_from([None, True, 0.5, 10**400, [], [doc]]))
    if fault == "unknown":
        draw(st.sampled_from([doc] + [n[k] for n, k in slots if isinstance(n[k], dict)]))["surprise"] = 1.0
        return doc
    node, key = draw(st.sampled_from(slots))
    if fault == "missing":
        del node[key]
    else:
        node[key] = draw(_BAD_VALUES)
    return doc


@st.composite
def file_argvs(draw):
    """A command that reads a drawn problem file, design box or perturbation
    file, well-formed or with one fault."""
    kind = draw(st.sampled_from(["problem", "box", "perturbation"]))
    if kind == "problem":
        return ["boundaries", "--problem", draw(gaussian_problems() | malformed(gaussian_problems()))]
    if kind == "box":
        return ["design", "--box", draw(design_boxes() | malformed(design_boxes())), "--gamma=0.9"]
    return [
        "simulate", "--problem", draw(st.sampled_from([TABLE1, _EXP_PROBLEM])),
        "--perturbation", draw(perturbations() | malformed(perturbations())),
        "--n-obs=100", "--n-trials=2",
    ]


@st.composite
def cli_argvs(draw):
    problem = ["--problem", draw(st.sampled_from([TABLE1, "fig2c.json", _EXP_PROBLEM]))]
    command = draw(st.sampled_from(["boundaries", "gaussian", "file", "ml", "general", "design", "simulate"]))
    if command == "file":
        return draw(file_argvs())
    if command == "boundaries":
        return ["boundaries", *problem, f"--eta={draw(_REALS)}"]
    if command == "gaussian":
        return draw(gaussian_argvs())
    if command == "ml":
        return [
            "curve", "ml", *problem, f"--eta-min={draw(_REALS)}", f"--eta-max={draw(_REALS)}",
            f"--eta-steps={draw(_COUNTS)}",
        ]
    if command == "general":
        return [
            "curve", "general", *problem, f"--zeta-steps={draw(_COUNTS)}",
            f"--n-boundaries={draw(st.integers(-1, 4))}",
        ]
    if command == "design":
        box = ["--box", draw(st.sampled_from(["fig3.json"]) | design_boxes())]
        if draw(st.booleans()):
            return ["design", *box, f"--gamma={draw(_REALS)}"]
        grid = f"{draw(_REALS)}:{draw(_REALS)}:{draw(_COUNTS)}"
        return ["design", *box, f"--gamma-grid={grid}"]
    return [
        "simulate", *problem, "--scenario", draw(st.sampled_from(["s1", "s2"])),
        f"--n-obs={draw(_COUNTS)}", f"--n-trials={draw(_COUNTS)}",
    ]


class TestCliFuzz:
    @pytest.fixture(scope="class")
    def exp_problem(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "exp.json"
        path.write_text(json.dumps({
            "h0": {"family": "exponential", "params": {"rate": 1.0}},
            "h1": {"family": "exponential", "params": {"rate": 2.0}},
        }))
        return str(path)

    @pytest.fixture(scope="class")
    def drawn_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @staticmethod
    def _exit_code(argv, exp_problem, drawn_dir):
        args = []
        for i, a in enumerate(argv):
            if not isinstance(a, str):  # drawn file contents
                path = drawn_dir / f"drawn{i}.json"
                path.write_text(json.dumps(a))
                a = str(path)
            args.append(exp_problem if a == _EXP_PROBLEM else a)
        try:
            return main(args)
        except SystemExit as exc:  # argparse rejects a malformed option with exit 2
            return exc.code

    @settings(max_examples=40, deadline=None)
    @given(argv=cli_argvs())
    def test_every_input_ends_in_a_documented_exit_code(self, exp_problem, drawn_dir, argv):
        assert self._exit_code(argv, exp_problem, drawn_dir) in (0, 2, 3)

    @settings(max_examples=150, deadline=None)
    @given(argv=gaussian_argvs())
    def test_every_gaussian_problem_ends_in_a_documented_exit_code(self, exp_problem, drawn_dir, argv):
        assert self._exit_code(argv, exp_problem, drawn_dir) in (0, 2, 3)

    @settings(max_examples=150, deadline=None)
    @given(argv=file_argvs())
    def test_every_input_file_ends_in_a_documented_exit_code(self, exp_problem, drawn_dir, argv):
        assert self._exit_code(argv, exp_problem, drawn_dir) in (0, 2, 3)


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


def _child_env() -> dict:
    # the child imports the same package as this process, installed or not
    src = str(Path(accsens.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize costs about a third of a second of every CLI start
    code = "import sys, accsens.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "accsens.cli", "--version"], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0
    assert "accsens" in proc.stdout
