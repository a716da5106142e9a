"""The JSON form of every record class, pinned byte for byte.

``tests/data/record_forms.json`` holds ``json.dumps(record.to_dict(),
sort_keys=True)`` of one fixed instance of each record class (and of the
variants whose form differs: a custom density, an audit that warned).  Any
change to a written form shows here first.
"""

import dataclasses
import json
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

from accsens import (
    SCENARIOS,
    DensityModel,
    HypothesisPair,
    MLSpec,
    Norm,
    design_params,
    exponential_law,
    fig3_box,
    general_curve,
    ml_boundaries,
    optimal_linear_boundary,
    run_all_checks,
    run_experiment,
)
from accsens.classifier import BoundarySet, Orientation
from accsens.param_designer import ParamDesignProblem
from accsens.tradeoff import default_zeta_grid
from conftest import custom_exponential_pair

PINNED = json.loads((Path(__file__).parent / "data" / "record_forms.json").read_text())


def _records() -> dict:
    table1 = HypothesisPair(DensityModel.gaussian(0.0, 9.0), DensityModel.gaussian(9.0, 4.0), 0.5)
    fig2c = HypothesisPair(DensityModel.gaussian(0.0, 4.0), DensityModel.gaussian(5.0, 3.0), 0.5)
    audit = run_all_checks(table1)
    curve = general_curve(table1, default_zeta_grid(table1, 2, 5), n_boundaries=2, norm=Norm.INF)
    design = design_params(fig3_box(0.9))
    return {
        "DensityModel/gaussian": table1.h0,
        "DensityModel/custom": custom_exponential_pair(1.0, 2.0).h0,
        "HypothesisPair/table1": table1,
        "HypothesisPair/custom": custom_exponential_pair(1.0, 2.0, 0.25),
        "BoundarySet": BoundarySet((-1.5, 2.0), Orientation.H1_FIRST),
        "LikelihoodRootReport": ml_boundaries(table1, 1.0),
        "LinearOptimum": optimal_linear_boundary(table1),
        "A1Result": audit.a1,
        "A2Result": audit.a2,
        "A3Result": audit.a3,
        "WitnessResult": audit.witness,
        "AssumptionReport/table1": audit,
        "AssumptionReport/fig2c": run_all_checks(fig2c, Norm.TWO),
        "AssumptionReport/warned": dataclasses.replace(audit, warnings=("grid may be too coarse",)),
        "TradeoffPoint": curve.points[2],
        "TradeoffCurve": curve,
        "ExponentialLaw": exponential_law(2, 1),
        "ParamDesignProblem/fig3": fig3_box(0.9),
        "ParamDesignProblem/plain": ParamDesignProblem(
            ((0.0, 1.0), (1.0, 2.0), (0.0, 3.0), (1.0, 2.0)), 0.8, Norm.TWO, p0=0.25
        ),
        "DesignScan": design.scan,
        "DesignResult": design,
        "PerturbationSpec": SCENARIOS["s2"],
        "ExperimentReport": run_experiment(
            table1, MLSpec(1.0), SCENARIOS["s2"], n_obs=500, n_trials=3, base_seed=7
        ),
    }


@pytest.fixture(scope="module")
def records() -> dict:
    return _records()


def _plain_values(value):
    """Every leaf of a written form, after checking that its containers are
    dicts with string keys and lists."""
    if isinstance(value, dict):
        assert all(type(k) is str for k in value)
        for v in value.values():
            yield from _plain_values(v)
    elif isinstance(value, list):
        for v in value:
            yield from _plain_values(v)
    else:
        yield value


def test_every_record_class_is_pinned(records):
    assert sorted(records) == sorted(PINNED)
    assert len({type(r) for r in records.values()}) == 18


@pytest.mark.parametrize("name", sorted(PINNED))
def test_record_form_matches_the_pinned_text(records, name):
    form = records[name].to_dict()
    assert json.dumps(form, sort_keys=True) == PINNED[name]
    for leaf in _plain_values(form):
        assert leaf is None or isinstance(leaf, (str, int, float)), (name, leaf)
        assert not isinstance(leaf, (Enum, np.ndarray)), (name, leaf)

