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
embarrassingly parallel with an index-ordered reduction.  The labels and
each class's samples are drawn and counted in blocks of ``_LABEL_BLOCK``,
which consume the generator's stream exactly as whole draws do: a trial
holds at most one block of samples, whatever ``n_obs``.

Trials of at least one label block (``n_obs >= 2**16``) run on a thread pool
sized to the CPUs this process may use (numpy's generator fills and counts
release the GIL); smaller trials run serially in the caller's thread.
Reports are identical whatever the CPU count.
"""

from __future__ import annotations

import functools
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._records import plain, read_number, read_object
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

#: The class-label uniforms and the samples of a trial are drawn in blocks of
#: this many, so a trial never holds a full ``n_obs`` array of either; trials
#: that draw at least one whole block are worth a thread.
_LABEL_BLOCK = 2**16


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

    to_dict = plain

    @staticmethod
    def from_dict(obj: dict) -> "PerturbationSpec":
        """Any of the four shifts; a missing one is 0."""
        keys = ("mu_bar_0", "sigma_bar_0", "mu_bar_1", "sigma_bar_1")
        read_object(obj, "perturbation spec", keys, required=())
        return PerturbationSpec(**{k: read_number(v, f"perturbation key {k!r}") for k, v in obj.items()})


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

    to_dict = plain

    def trials_csv_text(self) -> str:
        lines = ["trial,seed,accuracy"]
        for t, acc in enumerate(self.per_trial_accuracy):
            lines.append(f"{t},{self.base_seed + t},{acc!r}")
        return "\n".join(lines) + "\n"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blocks(n: int):
    """The sizes of the blocks of ``n`` draws: whole blocks, then the rest."""
    return (min(_LABEL_BLOCK, n - start) for start in range(0, n, _LABEL_BLOCK))


def _run_trial(bset: BoundarySet, perturbed: HypothesisPair, n_obs: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    # The generator keeps no state between calls (``random`` takes one double
    # per value, ``normal`` draws each value on its own), so the blocks
    # consume the stream exactly as one draw of the whole size would.
    n1 = sum(int(np.count_nonzero(rng.random(size) < perturbed.p1)) for size in _blocks(n_obs))
    n0 = n_obs - n1
    h0_labels = sum(count_h0_labels(bset, perturbed.h0.sample(rng, size)) for size in _blocks(n0))
    h1_labels = sum(count_h0_labels(bset, perturbed.h1.sample(rng, size)) for size in _blocks(n1))
    return (h0_labels + n1 - h1_labels) / n_obs


def run_experiment(
    pair_nominal: HypothesisPair,
    spec: ClassifierSpec,
    perturbation: PerturbationSpec,
    n_obs: int = DEFAULT_N_OBS,
    n_trials: int = DEFAULT_N_TRIALS,
    base_seed: int = 0,
) -> ExperimentReport:
    """Score a nominally designed classifier on the shifted distributions."""
    counts = (("n_obs", n_obs, 1), ("n_trials", n_trials, 1), ("base_seed", base_seed, 0))
    for name, value, least in counts:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise InvalidParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    bset = resolve(spec, pair_nominal)
    perturbed = perturbation.apply(pair_nominal)
    trial = functools.partial(_run_trial, bset, perturbed, n_obs)
    seeds = range(base_seed, base_seed + n_trials)
    workers = min(n_trials, _usable_cpus())
    if n_obs < _LABEL_BLOCK or workers < 2:
        accs = tuple(map(trial, seeds))
    else:
        # map keeps trial order; on an error the queued trials are cancelled
        # and, as on success, every worker is joined before returning.
        pool = ThreadPoolExecutor(workers)
        try:
            accs = tuple(pool.map(trial, seeds))
        finally:
            pool.shutdown(cancel_futures=True)
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
