"""Simulation study: null calibration of the LRT between nested MHMMs.

Data are drawn from a model whose two latent chains evolve independently,
so the granger-restricted model is true. Each replicate fits the restricted
and the saturated model by EM and records the likelihood-ratio statistic;
empirical exceedance rates are compared against the chi-square reference.
"""

import argparse
import time
from dataclasses import dataclass, replace

import numpy as np

from mhmm import (
    FitOptions,
    MhmmModel,
    VariableScheme,
    chi_square_quantile,
    count_free_parameters,
    fit_specs,
    lrt,
    parse_model_spec,
    simulate,
)

LAT = VariableScheme.of(("E1", 2), ("E2", 2))
OBS = VariableScheme.of(("F1", 3), ("F2", 2))

DECL = (
    "latent E1 2\nlatent E2 2\nobserved F1 3\nobserved F2 2\n"
    "bidir E1 <-> E2\n"
    + "\n".join(f"emit E{i} -> F{j}" for i in (1, 2) for j in (1, 2))
    + "\nbidir F1 <-> F2\n"
)
SATURATED = DECL + "dir E1 -> E2\ndir E2 -> E1\n"


@dataclass
class StudyConfig:
    replicates: int = 20
    length: int = 500
    restarts: int = 3
    max_iter: int = 400
    seed: int = 0


def generating_model():
    transition = np.kron(
        np.array([[0.85, 0.15], [0.25, 0.75]]), np.array([[0.8, 0.2], [0.15, 0.85]])
    )
    emission = np.full((4, 6), 0.044)
    for row, cell in enumerate((0, 3, 4, 5)):
        emission[row, cell] = 0.78
    emission /= emission.sum(axis=1, keepdims=True)
    return MhmmModel(LAT, OBS, transition, emission)


def run(config):
    truth = generating_model()
    ladder = [
        parse_model_spec(DECL, label="restricted"),
        parse_model_spec(SATURATED, label="saturated"),
    ]
    restricted_cs, saturated_cs = (spec.compile() for spec in ladder)
    df = count_free_parameters(LAT, OBS, saturated_cs) - count_free_parameters(
        LAT, OBS, restricted_cs
    )

    stats = []
    start = time.perf_counter()
    for rep in range(config.replicates):
        _, series = simulate(truth, config.length, seed=config.seed * 100003 + rep)
        opts = FitOptions(
            restarts=config.restarts, seed=config.seed + rep, max_iter=config.max_iter
        )
        restricted, saturated = fit_specs([replace(spec, options=opts) for spec in ladder], series)
        stat = lrt(restricted, saturated).statistic
        stats.append(stat)
        print(f"rep {rep:3d}  stat {stat:8.4f}")
    elapsed = time.perf_counter() - start

    stats = np.array(stats)
    print(f"\n{config.replicates} replicates in {elapsed:.1f}s, df = {df}")
    print(f"mean {stats.mean():.3f} (chi2 mean {df}), var {stats.var():.3f} (chi2 var {2 * df})")
    print(f"{'nominal':>8} {'cutoff':>9} {'empirical':>10}")
    for level in (0.10, 0.05, 0.01):
        cutoff = chi_square_quantile(df, 1.0 - level)
        rate = float(np.mean(stats >= cutoff))
        print(f"{level:>8.2f} {cutoff:>9.4f} {rate:>10.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicates", type=int, default=StudyConfig.replicates)
    parser.add_argument("--length", type=int, default=StudyConfig.length)
    parser.add_argument("--restarts", type=int, default=StudyConfig.restarts)
    parser.add_argument("--max-iter", type=int, default=StudyConfig.max_iter)
    parser.add_argument("--seed", type=int, default=StudyConfig.seed)
    args = parser.parse_args()
    run(StudyConfig(**vars(args)))


if __name__ == "__main__":
    main()
