"""Seeded Monte Carlo harness: classifiers designed on nominal distributions,
scored on adversarially shifted ones.

The adversary adds offsets to the Gaussian location and width parameters; the
classifier keeps the boundaries it derived from the nominal pair.  Each trial
draws the number of H1 observations from the priors, then that many samples
from each shifted model, and counts per class how many samples fall in the
class's own regions (one comparison count per boundary); no observation is
labelled.  The score is the count of correct decisions over ``n_obs``.
Trial t uses its own generator seeded with ``base_seed + t``, so a report is
a pure function of its inputs, bit-identical across runs, and trials are
embarrassingly parallel with an index-ordered reduction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .classifier import (
    BoundarySet,
    ClassifierSpec,
    count_h0_labels,
    region_accuracy,
    resolve,
    spec_to_dict,
)
from .densities import DensityModel, Family, HypothesisPair
from .errors import InvalidParameterError, InvalidPerturbationError

DEFAULT_N_OBS = 10_000
DEFAULT_N_TRIALS = 100


@dataclass(frozen=True)
class PerturbationSpec:
    """Additive shifts applied by the adversary to a Gaussian pair."""

    mu_bar_0: float = 0.0
    sigma_bar_0: float = 0.0
    mu_bar_1: float = 0.0
    sigma_bar_1: float = 0.0

    def apply(self, pair: HypothesisPair) -> HypothesisPair:
        if pair.h0.family is not Family.GAUSSIAN or pair.h1.family is not Family.GAUSSIAN:
            raise InvalidPerturbationError(
                "additive (mu, sigma) perturbations apply to Gaussian pairs only"
            )
        mu0, s0 = pair.h0.params
        mu1, s1 = pair.h1.params
        new_s0 = s0 + self.sigma_bar_0
        new_s1 = s1 + self.sigma_bar_1
        if not (new_s0 > 0 and new_s1 > 0):
            raise InvalidPerturbationError(
                f"perturbed widths must stay positive, got {new_s0} and {new_s1}"
            )
        return HypothesisPair(
            DensityModel.gaussian(mu0 + self.mu_bar_0, new_s0),
            DensityModel.gaussian(mu1 + self.mu_bar_1, new_s1),
            pair.p0,
        )

    def to_dict(self) -> dict:
        return {
            "mu_bar_0": self.mu_bar_0,
            "sigma_bar_0": self.sigma_bar_0,
            "mu_bar_1": self.mu_bar_1,
            "sigma_bar_1": self.sigma_bar_1,
        }


#: The two named attack scenarios used throughout the examples and tests.
SCENARIOS: dict[str, PerturbationSpec] = {
    "s1": PerturbationSpec(0.0, 0.0, 0.0, 3.0),
    "s2": PerturbationSpec(1.0, 2.0, -2.0, 1.5),
}


@dataclass(frozen=True)
class ExperimentReport:
    n_obs: int
    n_trials: int
    base_seed: int
    per_trial_accuracy: tuple[float, ...]
    mean_accuracy: float
    std_accuracy: float
    classifier: dict
    perturbation: PerturbationSpec

    def to_dict(self) -> dict:
        return {
            "n_obs": self.n_obs,
            "n_trials": self.n_trials,
            "base_seed": self.base_seed,
            "per_trial_accuracy": list(self.per_trial_accuracy),
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "classifier": self.classifier,
            "perturbation": self.perturbation.to_dict(),
        }

    def trials_csv_text(self) -> str:
        lines = ["trial,seed,accuracy"]
        for t, acc in enumerate(self.per_trial_accuracy):
            lines.append(f"{t},{self.base_seed + t},{acc!r}")
        return "\n".join(lines) + "\n"


def _run_trial(bset: BoundarySet, perturbed: HypothesisPair, n_obs: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    n1 = int(np.count_nonzero(rng.random(n_obs) < perturbed.p1))
    n0 = n_obs - n1
    correct = 0
    if n0:
        correct += count_h0_labels(bset, perturbed.h0.sample(rng, n0))
    if n1:
        correct += n1 - count_h0_labels(bset, perturbed.h1.sample(rng, n1))
    return correct / n_obs


def run_experiment(
    pair_nominal: HypothesisPair,
    spec: ClassifierSpec,
    perturbation: PerturbationSpec,
    n_obs: int = DEFAULT_N_OBS,
    n_trials: int = DEFAULT_N_TRIALS,
    base_seed: int = 0,
) -> ExperimentReport:
    """Score a nominally designed classifier on the shifted distributions."""
    if n_obs < 1:
        raise InvalidParameterError(f"n_obs must be >= 1, got {n_obs}")
    if n_trials < 1:
        raise InvalidParameterError(f"n_trials must be >= 1, got {n_trials}")
    if isinstance(base_seed, bool) or not isinstance(base_seed, numbers.Integral) or base_seed < 0:
        raise InvalidParameterError(f"base_seed must be an integer >= 0, got {base_seed!r}")
    bset = resolve(spec, pair_nominal)
    perturbed = perturbation.apply(pair_nominal)
    accs = tuple(
        _run_trial(bset, perturbed, n_obs, base_seed + t) for t in range(n_trials)
    )
    mean = float(np.mean(accs))
    std = float(np.std(accs, ddof=1)) if n_trials > 1 else 0.0
    classifier = spec_to_dict(spec)
    classifier["resolved"] = bset.to_dict()
    return ExperimentReport(
        n_obs, n_trials, base_seed, accs, mean, std, classifier, perturbation
    )


def analytic_perturbed_accuracy(
    pair_nominal: HypothesisPair, spec: ClassifierSpec, perturbation: PerturbationSpec
) -> float:
    """Closed-form accuracy of the nominal boundaries under the shifted pair;
    the oracle the Monte Carlo path is checked against."""
    bset = resolve(spec, pair_nominal)
    perturbed = perturbation.apply(pair_nominal)
    return region_accuracy(perturbed, bset.boundaries, bset.orientation)


def standard_error(report: ExperimentReport) -> float:
    """Standard error of the reported mean accuracy."""
    p = report.mean_accuracy
    return float(np.sqrt(p * (1.0 - p) / (report.n_obs * report.n_trials)))
