"""Command-line front end.

Subcommands wrap the library one-to-one: ``boundaries``, ``accuracy``,
``sensitivity``, ``curve``, ``check``, ``simulate``, ``design``, and
``reproduce`` (which regenerates the bundled reference artifacts).  Problem
definitions are JSON files; a handful of named presets ship with the package
and are found by file name when the path does not exist locally.

Exit codes: 0 success, 2 configuration error, 3 solver failure.  CSV files
open with a ``# config:`` comment line carrying the effective configuration;
JSON outputs embed it under the ``config`` key.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, _svg
from .adversary_sim import (
    SCENARIOS,
    PerturbationSpec,
    analytic_perturbed_accuracy,
    run_experiment,
)
from .boundary_solver import ml_boundaries, optimal_linear_boundary
from .classifier import (
    BoundarySet,
    GeneralSpec,
    LinearSpec,
    MLSpec,
    Norm,
    Orientation,
    accuracy,
    sensitivity,
    spec_to_dict,
)
from .densities import HypothesisPair
from .errors import (
    AccsensError,
    CapabilityError,
    EmptyIntervalError,
    InfeasibleTargetError,
    InvalidParameterError,
    InvalidPerturbationError,
    NoRootError,
    SchemaError,
    SolverFailureError,
    UnresolvedClassifierError,
)
from .param_designer import ParamDesignProblem, gamma_sweep, sweep_csv_text
from .theory_checks import run_all_checks
from .tradeoff import default_y_grid, default_zeta_grid, general_curve, linear_curve, ml_curve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_CONFIG_ERRORS = (
    SchemaError,
    InvalidParameterError,
    EmptyIntervalError,
    InvalidPerturbationError,
    CapabilityError,
    FileNotFoundError,
)
_SOLVER_ERRORS = (
    NoRootError,
    SolverFailureError,
    InfeasibleTargetError,
    UnresolvedClassifierError,
)


def _load_json_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        candidate = resources.files("accsens").joinpath("presets", Path(path).name)
        if candidate.is_file():
            text = candidate.read_text()
        else:
            raise FileNotFoundError(f"no such file or preset: {path}")
    else:
        text = p.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from None


def _load_problem(path: str) -> HypothesisPair:
    return HypothesisPair.from_dict(_load_json_file(path))


def _parse_classifier(text: str):
    """ml:ETA | linear:Y[:ORIENT] | general:y1,y2,...[:ORIENT]"""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "ml":
            return MLSpec(float(parts[1]) if len(parts) > 1 else 1.0)
        if kind == "linear":
            orient = Orientation(parts[2]) if len(parts) > 2 else Orientation.H0_FIRST
            return LinearSpec(float(parts[1]), orient)
        if kind == "general":
            ys = tuple(float(v) for v in parts[1].split(","))
            orient = Orientation(parts[2]) if len(parts) > 2 else Orientation.H0_FIRST
            return GeneralSpec(BoundarySet(ys, orient))
    except (IndexError, ValueError) as exc:
        raise SchemaError(f"cannot parse classifier spec {text!r}: {exc}") from None
    raise SchemaError(f"unknown classifier kind {kind!r} (expected ml|linear|general)")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _csv_with_config(body: str, config: dict) -> str:
    return f"# config: {json.dumps(config, sort_keys=True)}\n{body}"


def _emit_json(obj: dict, out: Path | None, name: str) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out is not None:
        _write_text(out / name, text)
    else:
        sys.stdout.write(text)


def _curve_series(curve) -> dict:
    return {"name": curve.kind, "x": list(curve.accuracies), "y": list(curve.sensitivities)}


# ---- subcommand handlers ----


def _cmd_boundaries(args) -> int:
    if not 0.0 < args.eta < np.inf:
        raise SchemaError("--eta must be positive and finite")
    pair = _load_problem(args.problem)
    report = ml_boundaries(pair, args.eta)
    config = {"command": "boundaries", "problem": pair.to_dict(), "eta": args.eta}
    payload = {"config": config, "result": report.to_dict()}
    roots = ", ".join(f"{r:.6f}" for r in report.roots) or "(none)"
    print(f"boundaries (eta={args.eta:g}): {roots}  [{report.orientation.value}]")
    if args.out:
        _emit_json(payload, Path(args.out), "boundaries.json")
    else:
        _emit_json(payload, None, "")
    return EXIT_OK


def _cmd_accuracy(args) -> int:
    pair = _load_problem(args.problem)
    spec = _parse_classifier(args.classifier)
    value = accuracy(spec, pair)
    config = {
        "command": "accuracy",
        "problem": pair.to_dict(),
        "classifier": spec_to_dict(spec),
    }
    print(f"accuracy: {value!r}")
    if args.out:
        _emit_json({"config": config, "result": {"accuracy": value}}, Path(args.out), "accuracy.json")
    return EXIT_OK


def _cmd_sensitivity(args) -> int:
    pair = _load_problem(args.problem)
    spec = _parse_classifier(args.classifier)
    value = sensitivity(spec, pair, Norm(args.norm))
    config = {
        "command": "sensitivity",
        "problem": pair.to_dict(),
        "classifier": spec_to_dict(spec),
        "norm": args.norm,
    }
    print(f"sensitivity ({args.norm}): {value!r}")
    if args.out:
        _emit_json(
            {"config": config, "result": {"sensitivity": value}}, Path(args.out), "sensitivity.json"
        )
    return EXIT_OK


def _curve_for(kind: str, pair: HypothesisPair, args):
    norm = Norm(args.norm)
    if kind == "ml":
        if args.eta_steps < 1:
            raise SchemaError("--eta-steps must be >= 1")
        if not (0.0 < args.eta_min < np.inf and 0.0 < args.eta_max < np.inf):
            raise SchemaError("--eta-min and --eta-max must be positive and finite")
        # geomspace sets both ends exactly; at the ends of the float range
        # its powers over- or underflow on the way
        with np.errstate(over="ignore", under="ignore"):
            grid = np.geomspace(args.eta_min, args.eta_max, args.eta_steps)
        grid = np.unique(np.append(grid, 1.0))
        return ml_curve(pair, grid, norm)
    if kind == "linear":
        if args.y_steps < 1:
            raise SchemaError("--y-steps must be >= 1")
        return linear_curve(pair, default_y_grid(pair, args.y_steps), norm)
    if args.zeta_steps < 1:
        raise SchemaError("--zeta-steps must be >= 1")
    zetas = default_zeta_grid(pair, args.n_boundaries, args.zeta_steps)
    return general_curve(pair, zetas, n_boundaries=args.n_boundaries, norm=norm)


def _cmd_curve(args) -> int:
    pair = _load_problem(args.problem)
    curve = _curve_for(args.kind, pair, args)
    config = {
        "command": f"curve {args.kind}",
        "problem": pair.to_dict(),
        "norm": args.norm,
        "grids": {
            "eta": [args.eta_min, args.eta_max, args.eta_steps],
            "y_steps": args.y_steps,
            "zeta_steps": args.zeta_steps,
            "n_boundaries": args.n_boundaries,
        },
        "metadata": curve.metadata,
    }
    formats = args.format.split(",")
    out = Path(args.out) if args.out else None
    print(f"curve {args.kind}: {len(curve.points)} points ({args.norm} norm)")
    for warning in curve.metadata.get("warnings", ()):
        print(f"solver warning: {warning}")
    if out is None:
        if "csv" in formats:
            sys.stdout.write(_csv_with_config(curve.to_csv_text(), config))
        return EXIT_OK
    if "csv" in formats:
        _write_text(out / f"curve_{args.kind}.csv", _csv_with_config(curve.to_csv_text(), config))
    if "json" in formats:
        _emit_json({"config": config, "result": curve.to_dict()}, out, f"curve_{args.kind}.json")
    if "svg" in formats:
        svg = _svg.render_polylines(
            [_curve_series(curve)], "accuracy", f"sensitivity ({args.norm})",
            f"{args.kind} tradeoff curve", config,
        )
        _write_text(out / f"curve_{args.kind}.svg", svg)
    return EXIT_OK


def _cmd_check(args) -> int:
    pair = _load_problem(args.problem)
    report = run_all_checks(pair, Norm(args.norm))
    config = {"command": "check", "problem": pair.to_dict(), "norm": args.norm}
    mags = np.abs(np.asarray(report.a1.gradient))
    ties = int(np.sum(mags >= mags.max() - 1e-12))
    a1_note = f"gap={report.a1.gap:.3g}, max index {report.a1.index}"
    if not report.a1.holds and ties > 1:
        a1_note = f"{ties} max-magnitude components"
    print(f"A1: {'PASS' if report.a1.holds else 'FAIL'} ({a1_note})")
    print(f"A2: {'PASS' if report.a2.holds else 'FAIL'} (witness boundary {report.a2.witness_index}, value {report.a2.witness_value:.3g})")
    print(f"A3: {'PASS' if report.a3.holds else 'FAIL'} (inner product {report.a3.inner_product:.3g})")
    print(f"sensitivity slope at optimum: {report.witness.verdict.value} (|grad|={report.witness.gradient_norm:.3g})")
    for warning in report.warnings:
        print(f"solver warning: {warning}")
    if args.out:
        _emit_json({"config": config, "result": report.to_dict()}, Path(args.out), "check.json")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    pair = _load_problem(args.problem)
    spec = _parse_classifier(args.classifier)
    if args.scenario:
        if args.scenario not in SCENARIOS:
            raise SchemaError(f"unknown scenario {args.scenario!r} (expected s1|s2)")
        perturbation = SCENARIOS[args.scenario]
    elif args.perturbation:
        obj = _load_json_file(args.perturbation)
        if not isinstance(obj, dict):
            raise SchemaError("perturbation spec must be an object")
        known = {"mu_bar_0", "sigma_bar_0", "mu_bar_1", "sigma_bar_1"}
        unknown = set(obj) - known
        if unknown:
            raise SchemaError(f"unknown key {sorted(unknown)[0]!r} in perturbation spec")
        shifts = {}
        for key, value in obj.items():
            try:
                shifts[key] = float(value)
            except (TypeError, ValueError):
                raise SchemaError(
                    f"perturbation key {key!r} holds a non-numeric value {value!r}"
                ) from None
        perturbation = PerturbationSpec(**shifts)
    else:
        raise SchemaError("simulate needs --scenario or --perturbation")
    report = run_experiment(
        pair, spec, perturbation, n_obs=args.n_obs, n_trials=args.n_trials, base_seed=args.seed
    )
    analytic = analytic_perturbed_accuracy(pair, spec, perturbation)
    config = {
        "command": "simulate",
        "problem": pair.to_dict(),
        "classifier": spec_to_dict(spec),
        "perturbation": perturbation.to_dict(),
        "n_obs": args.n_obs,
        "n_trials": args.n_trials,
        "seed": args.seed,
    }
    print(
        f"mean accuracy: {report.mean_accuracy:.4f} (std {report.std_accuracy:.4f}, "
        f"analytic {analytic:.4f})"
    )
    if args.out:
        out = Path(args.out)
        _emit_json(
            {"config": config, "result": {**report.to_dict(), "analytic_accuracy": analytic}},
            out, "experiment.json",
        )
        _write_text(out / "trials.csv", _csv_with_config(report.trials_csv_text(), config))
    return EXIT_OK


def _cmd_design(args) -> int:
    box_obj = _load_json_file(args.box)
    norm = Norm(args.norm)
    if args.gamma_grid:
        try:
            lo, hi, n = args.gamma_grid.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError as exc:
            raise SchemaError(f"cannot parse --gamma-grid {args.gamma_grid!r}: {exc}") from None
        if not (np.isfinite(lo) and np.isfinite(hi) and n >= 1):
            raise SchemaError(
                f"--gamma-grid {args.gamma_grid!r} needs finite ends and at least one target"
            )
        # ends near the float limit overflow the steps; the design rejects
        # the inf and nan targets that result
        with np.errstate(over="ignore", invalid="ignore"):
            gammas = np.linspace(lo, hi, n)
    elif args.gamma is not None:
        gammas = [args.gamma]
    else:
        raise SchemaError("design needs --gamma or --gamma-grid")
    box = ParamDesignProblem.from_dict(box_obj, gamma=float(gammas[0]), norm=norm)
    results = gamma_sweep(box, gammas)
    config = {
        "command": "design",
        "box": box.to_dict(),
        "gammas": [float(g) for g in gammas],
        "norm": args.norm,
    }
    for r in results:
        print(
            f"gamma={r.gamma:.4f}: sens={r.sensitivity:.6g} "
            f"theta=({r.theta[0]:.4g}, {r.theta[1]:.4g}, {r.theta[2]:.4g}, {r.theta[3]:.4g})"
        )
    if args.out:
        out = Path(args.out)
        _write_text(out / "design.csv", _csv_with_config(sweep_csv_text(results), config))
        _emit_json(
            {"config": config, "result": [r.to_dict() for r in results]}, out, "design.json"
        )
    return EXIT_OK


# ---- reproduce targets ----


def _marker_points(pair: HypothesisPair, norm: Norm) -> list[dict]:
    from .classifier import _evaluate

    base = ml_boundaries(pair, 1.0)
    if not base.roots:  # no best single boundary either
        return []
    lin = optimal_linear_boundary(pair)
    acc, sens = _evaluate(pair, [(base.roots, base.orientation), ((lin.y,), lin.orientation)], norm)
    styles = (("red", "max accuracy"), ("#b30000", "best linear"))
    return [
        {"x": x, "y": y, "color": color, "name": name}
        for x, y, (color, name) in zip(acc.tolist(), sens.tolist(), styles)
    ]


def _reproduce_curves(pair: HypothesisPair, norm: Norm, out: Path, tag: str, seed: int) -> dict:
    curves = {
        "ml": ml_curve(pair, norm=norm),
        "linear": linear_curve(pair, norm=norm),
        "general": general_curve(pair, norm=norm),
    }
    config = {
        "target": tag,
        "problem": pair.to_dict(),
        "norm": norm.value,
        "seed": seed,
        "grids": {"eta_steps": 400, "y_steps": 2001, "zeta_steps": 60},
    }
    for kind, curve in curves.items():
        _write_text(
            out / f"curve_{kind}.csv",
            _csv_with_config(curve.to_csv_text(), {**config, "curve": kind}),
        )
    svg = _svg.render_polylines(
        [
            {**_curve_series(curves["general"]), "dashed": True},
            _curve_series(curves["ml"]),
            _curve_series(curves["linear"]),
        ],
        "accuracy",
        f"sensitivity ({norm.value})",
        f"{tag}: accuracy vs sensitivity",
        config,
        markers=_marker_points(pair, norm),
    )
    _write_text(out / f"{tag}.svg", svg)
    return {
        "config": config,
        "curve_metadata": {k: c.metadata for k, c in curves.items()},
    }


def _reproduce_table1(pair: HypothesisPair, out: Path, seed: int) -> dict:
    rows = []
    specs = {"c1": MLSpec(1.0), "c2": MLSpec(0.4603)}
    seeds = {}
    for i, (name, spec) in enumerate(specs.items()):
        report = ml_boundaries(pair, spec.eta)
        bset = report.boundary_set()
        nominal_acc = accuracy(spec, pair)
        nominal_sens = sensitivity(spec, pair, Norm.INF)
        row = {
            "classifier": name,
            "eta": spec.eta,
            "y1": bset.boundaries[0],
            "y2": bset.boundaries[1],
            "sensitivity": nominal_sens,
            "accuracy": nominal_acc,
        }
        for j, scenario in enumerate(("s1", "s2")):
            cell_seed = seed + 1000 * i + 100 * j
            seeds[f"{name}/{scenario}"] = cell_seed
            rep = run_experiment(pair, spec, SCENARIOS[scenario], base_seed=cell_seed)
            row[f"accuracy_{scenario}"] = rep.mean_accuracy
            row[f"analytic_{scenario}"] = analytic_perturbed_accuracy(
                pair, spec, SCENARIOS[scenario]
            )
            _write_text(
                out / f"trials_{name}_{scenario}.csv",
                _csv_with_config(
                    rep.trials_csv_text(),
                    {"target": "table1", "classifier": name, "scenario": scenario, "seed": cell_seed},
                ),
            )
        rows.append(row)
    header = [
        "classifier", "eta", "y1", "y2", "sensitivity", "accuracy",
        "accuracy_s1", "accuracy_s2", "analytic_s1", "analytic_s2",
    ]
    body = ",".join(header) + "\n"
    for row in rows:
        body += ",".join(repr(row[h]) if not isinstance(row[h], str) else row[h] for h in header) + "\n"
    config = {
        "target": "table1",
        "problem": pair.to_dict(),
        "seed": seed,
        "cell_seeds": seeds,
        "n_obs": 10000,
        "n_trials": 100,
        "scenarios": {k: v.to_dict() for k, v in SCENARIOS.items()},
    }
    _write_text(out / "table1.csv", _csv_with_config(body, config))
    print(body, end="")
    return {"config": config, "rows": rows}


def _reproduce_fig3(out: Path) -> dict:
    from .param_designer import fig3_box

    gammas = np.linspace(0.55, 0.99, 20)
    box = fig3_box(float(gammas[0]))
    results = gamma_sweep(box, gammas)
    config = {
        "target": "fig3",
        "box": box.to_dict(),
        "gammas": [float(g) for g in gammas],
    }
    _write_text(out / "fig3.csv", _csv_with_config(sweep_csv_text(results), config))
    svg = _svg.render_polylines(
        [{"name": "min sensitivity", "x": [r.gamma for r in results], "y": [r.sensitivity for r in results]}],
        "target accuracy", "minimum sensitivity", "fig3: designed sensitivity", config,
    )
    _write_text(out / "fig3_sensitivity.svg", svg)
    svg2 = _svg.render_polylines(
        [
            {"name": "mean gap", "x": [r.gamma for r in results], "y": [abs(r.theta[2] - r.theta[0]) for r in results]},
            {"name": "sigma0", "x": [r.gamma for r in results], "y": [r.theta[1] for r in results]},
            {"name": "sigma1", "x": [r.gamma for r in results], "y": [r.theta[3] for r in results]},
        ],
        "target accuracy", "optimal parameters", "fig3: designed parameters", config,
    )
    _write_text(out / "fig3_parameters.svg", svg2)
    return {"config": config, "gammas": [float(g) for g in gammas]}


def _cmd_reproduce(args) -> int:
    out = Path(args.out) / args.target
    started = time.perf_counter()
    if args.target in ("fig2a", "fig2b"):
        pair = _load_problem("table1.json")
        norm = Norm.INF if args.target == "fig2a" else Norm.TWO
        meta = _reproduce_curves(pair, norm, out, args.target, args.seed)
    elif args.target == "fig2c":
        pair = _load_problem("fig2c.json")
        meta = _reproduce_curves(pair, Norm.INF, out, "fig2c", args.seed)
        report = run_all_checks(pair)
        _emit_json({"config": meta["config"], "result": report.to_dict()}, out, "check.json")
    elif args.target == "table1":
        pair = _load_problem("table1.json")
        meta = _reproduce_table1(pair, out, args.seed)
    else:  # fig3
        meta = _reproduce_fig3(out)
    meta["wall_time_s"] = time.perf_counter() - started
    meta["version"] = __version__
    _emit_json(meta, out, "metadata.json")
    print(f"reproduced {args.target} in {meta['wall_time_s']:.1f} s -> {out}")
    return EXIT_OK


# ---- parser ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accsens",
        description="Accuracy/sensitivity analysis of boundary classifiers under "
        "adversarial parameter shifts.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"accsens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, problem=True):
        if problem:
            p.add_argument("--problem", required=True, help="problem JSON file or preset name")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("boundaries", help="likelihood-ratio decision boundaries",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    add_common(p)
    p.add_argument("--eta", type=float, default=1.0, help="ratio threshold")
    p.set_defaults(fn=_cmd_boundaries)

    p = sub.add_parser("accuracy", help="exact accuracy of a classifier",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    add_common(p)
    p.add_argument("--classifier", default="ml:1.0", help="ml:ETA | linear:Y[:ORIENT] | general:y1,y2[:ORIENT]")
    p.set_defaults(fn=_cmd_accuracy)

    p = sub.add_parser("sensitivity", help="parameter sensitivity of a classifier",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    add_common(p)
    p.add_argument("--classifier", default="ml:1.0")
    p.add_argument("--norm", choices=[n.value for n in Norm], default="inf")
    p.set_defaults(fn=_cmd_sensitivity)

    p = sub.add_parser("curve", help="trace an accuracy/sensitivity curve",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("kind", choices=["ml", "linear", "general"])
    add_common(p)
    p.add_argument("--norm", choices=[n.value for n in Norm], default="inf")
    p.add_argument("--eta-min", type=float, default=1e-3)
    p.add_argument("--eta-max", type=float, default=1e3)
    p.add_argument("--eta-steps", type=int, default=400)
    p.add_argument("--y-steps", type=int, default=2001)
    p.add_argument("--zeta-steps", type=int, default=60)
    p.add_argument("--n-boundaries", type=int, default=2, help="boundary count: 1, 2 or 3")
    p.add_argument("--format", default="csv", help="comma list of csv,json,svg")
    p.set_defaults(fn=_cmd_curve)

    p = sub.add_parser("check", help="verify the tradeoff assumptions",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    add_common(p)
    p.add_argument("--norm", choices=[n.value for n in Norm], default="inf")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("simulate", help="seeded adversarial Monte Carlo experiment",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    add_common(p)
    p.add_argument("--classifier", default="ml:1.0")
    p.add_argument("--scenario", default=None, help="named perturbation: s1 | s2")
    p.add_argument("--perturbation", default=None, help="JSON file with additive shifts")
    p.add_argument("--n-obs", type=int, default=10000)
    p.add_argument("--n-trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="base seed; trial t uses seed+t")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("design", help="minimum-sensitivity parameter design",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--box", required=True, help="design box JSON file or preset name")
    p.add_argument("--out", default=None)
    p.add_argument("--gamma", type=float, default=None, help="single target accuracy")
    p.add_argument("--gamma-grid", default=None, help="lo:hi:n sweep")
    p.add_argument("--norm", choices=[n.value for n in Norm], default="inf")
    p.set_defaults(fn=_cmd_design)

    p = sub.add_parser("reproduce", help="regenerate a bundled reference artifact",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("target", choices=["fig2a", "fig2b", "fig2c", "fig3", "table1"])
    p.add_argument("--out", default="reproduced", help="output root directory")
    p.add_argument("--seed", type=int, default=20240801)
    p.set_defaults(fn=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except AccsensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
