"""End-to-end model selection on one simulated series.

Simulates from a model where the two latent chains do not Granger-cause
one another but the emissions are cross-wired, then fits a small ladder
of hypotheses and prints the comparison table. The noGranger model should
win on AIC; the over-restricted own-emission model should be rejected.
"""

import argparse
from dataclasses import dataclass, replace

import numpy as np

from mhmm import (
    FitOptions,
    MhmmModel,
    VariableScheme,
    fit_specs,
    model_table,
    parse_model_spec,
    simulate,
)

LAT = VariableScheme.of(("E1", 2), ("E2", 2))
OBS = VariableScheme.of(("F1", 3), ("F2", 2))

DECL = "latent E1 2\nlatent E2 2\nobserved F1 3\nobserved F2 2\nbidir E1 <-> E2\n"
ALL_EMIT = "\n".join(f"emit E{i} -> F{j}" for i in (1, 2) for j in (1, 2))
OWN_EMIT = "emit E1 -> F1\nemit E2 -> F2"
OBS_BD = "bidir F1 <-> F2"

LADDER = [
    ("saturated", DECL + "dir E1 -> E2\ndir E2 -> E1\n" + ALL_EMIT + "\n" + OBS_BD),
    ("noGranger", DECL + ALL_EMIT + "\n" + OBS_BD),
    ("noGranger+ownEmit", DECL + OWN_EMIT + "\n" + OBS_BD),
]


@dataclass
class DemoConfig:
    length: int = 800
    restarts: int = 3
    max_iter: int = 400
    seed: int = 7


def generating_model(rng):
    transition = np.kron(
        np.array([[0.85, 0.15], [0.25, 0.75]]), np.array([[0.8, 0.2], [0.15, 0.85]])
    )
    # each observable listens to both chains, so own-emission is false
    emission = rng.dirichlet(np.full(OBS.n_states, 0.8), size=LAT.n_states)
    emission = np.maximum(emission, 0.02)
    emission /= emission.sum(axis=1, keepdims=True)
    return MhmmModel.from_tables(LAT, OBS, transition, emission)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=DemoConfig.length)
    parser.add_argument("--seed", type=int, default=DemoConfig.seed)
    args = parser.parse_args()
    config = DemoConfig(length=args.length, seed=args.seed)

    truth = generating_model(np.random.default_rng(config.seed))
    _, series = simulate(truth, config.length, seed=config.seed)

    opts = FitOptions(restarts=config.restarts, seed=config.seed, max_iter=config.max_iter)
    specs = [replace(parse_model_spec(text, label=label), options=opts) for label, text in LADDER]
    fits = fit_specs(specs, series)
    for fit in fits:
        print(f"fitted {fit.label:<18} loglike {fit.log_lik:10.4f} par {fit.par}")

    table = model_table(fits[1:], reference=fits[0])
    print()
    print(table.render_text())


if __name__ == "__main__":
    main()
