"""Command-line front end.

Commands: fit, simulate, compare, count-params, independencies, equivalent.
Every failure prints a single machine-parsable line `error:<category>: ...`
on stderr; exit status is 0 on success, 2 on domain/parse errors and
exhausted memory, 3 on numerical failures. Reports print with fixed
4-decimal precision; CSV artifacts keep full precision. All randomness
flows from the seed option (default 0), so identical inputs give
byte-identical outputs. compare fits
all its specs in one lock-step EM (modelspec.fit_specs); its tables and its
errors are those of fitting the specs one after another.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .constraints import count_free_parameters, total_parameter_count
from .errors import MhmmError, NumericalError, ParseError
from .fit import FitResult
from .graphs import graphs_equivalent
from .interactions import serialize_interactions
from .model import read_model, read_series_csv, simulate, write_model, write_series_csv
from .modelspec import ModelSpec, fit_spec, fit_specs, read_model_spec
from .selection import aic, model_table


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mhmm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a spec to a series by constrained EM")
    fit.add_argument("--spec", required=True, help="model spec file")
    fit.add_argument("--data", required=True, help="CSV series file")
    fit.add_argument("--out", default=".", help="output directory")
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--restarts", type=int, default=None)

    sim = sub.add_parser("simulate", help="simulate a series from a fitted model file")
    sim.add_argument("--spec", required=True, help="model file (as written by fit)")
    sim.add_argument("--length", type=int, required=True)
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--seed", type=int, default=0)

    cmp_ = sub.add_parser(
        "compare",
        help="fit several specs to one series in one lock-step EM and tabulate them",
    )
    cmp_.add_argument("--spec", action="append", required=True, help="repeatable; first is the reference")
    cmp_.add_argument("--data", required=True)
    cmp_.add_argument("--out", default=".")
    cmp_.add_argument("--seed", type=int, default=None)
    cmp_.add_argument("--restarts", type=int, default=None)

    count = sub.add_parser("count-params", help="tally zeroed and free coordinates of a spec")
    count.add_argument("--spec", required=True)

    ind = sub.add_parser("independencies", help="print the conditional independencies of a spec's graph")
    ind.add_argument("--spec", required=True)

    eq = sub.add_parser("equivalent", help="decide whether two specs' graphs are relabelings of each other")
    eq.add_argument("--spec", action="append", required=True, help="exactly two spec files")
    return parser


def _with_overrides(spec: ModelSpec, args) -> ModelSpec:
    options = spec.options
    if getattr(args, "seed", None) is not None:
        options = replace(options, seed=args.seed)
    if getattr(args, "restarts", None) is not None:
        options = replace(options, restarts=args.restarts)
    return replace(spec, options=options)


def _read_series(path, spec: ModelSpec):
    if spec.obs_scheme is None:
        raise ParseError(f"spec {spec.label!r} declares no observed variables")
    return read_series_csv(Path(path).read_text(), spec.obs_scheme)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fit_report(result: FitResult) -> str:
    lines = [
        f"model {result.label}",
        f"fingerprint {result.data_fingerprint}",
        f"loglike {result.log_lik:.4f}",
        f"par {result.par}",
        f"dim {result.dim}",
        f"aic {aic(result):.4f}",
        f"iterations {result.iterations}",
        f"converged {'yes' if result.converged else 'no'}",
        f"seed {result.seed}",
        f"best_restart {result.best_restart}",
        f"constraints distinct {result.constraints.distinct_count()}"
        f" tallied {result.constraints.tallied_count()}",
        f"stop_reason {result.stop_reason}",
    ]
    for record in result.restarts:
        line = (
            f"restart {record.restart} loglike {record.log_lik:.4f}"
            f" iterations {record.iterations} stop_reason {record.stop_reason}"
        )
        lines.append(line if record.error is None else f"{line} error {record.error}")
    return "\n".join(lines) + "\n"


def _cmd_fit(args) -> int:
    spec = _with_overrides(read_model_spec(args.spec), args)
    series = _read_series(args.data, spec)
    result = fit_spec(spec, series)
    out = _out_dir(args)
    model_path = out / f"{spec.label}.model"
    model_path.write_text(write_model(result.model))
    coeff_path = out / f"{spec.label}.coefficients.txt"
    coeff_path.write_text(serialize_interactions([result.delta, result.theta]))
    report_path = out / f"{spec.label}.fit.txt"
    report_path.write_text(_fit_report(result))
    print(
        f"{spec.label}: loglike {result.log_lik:.4f} par {result.par} "
        f"aic {aic(result):.4f}"
    )
    for path in (model_path, coeff_path, report_path):
        print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    model = read_model(Path(args.spec).read_text())
    _, series = simulate(model, args.length, seed=args.seed)
    out = _out_dir(args)
    path = out / "series.csv"
    path.write_text(write_series_csv(series))
    print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    if len(args.spec) < 2:
        raise ParseError("compare needs at least two --spec files")
    specs = [_with_overrides(read_model_spec(p), args) for p in args.spec]
    labels = [spec.label for spec in specs]
    repeated = next((label for label in labels if labels.count(label) > 1), None)
    if repeated is not None:
        raise ParseError(f"compare labels must be distinct; {repeated!r} is repeated")
    series = _read_series(args.data, specs[0])
    fits = fit_specs(specs, series)
    table = model_table(fits, reference=fits[0])
    out = _out_dir(args)
    text_path = out / "comparison.txt"
    text_path.write_text(table.render_text())
    csv_path = out / "comparison.csv"
    csv_path.write_text(table.render_csv())
    sys.stdout.write(table.render_text())
    for path in (text_path, csv_path):
        print(f"wrote {path}")
    return 0


def _cmd_count_params(args) -> int:
    spec = read_model_spec(args.spec)
    cs = spec.compile()
    total = total_parameter_count(spec.latent_scheme, spec.obs_scheme)
    free = count_free_parameters(spec.latent_scheme, spec.obs_scheme, cs)
    print(f"total {total}")
    print(f"zeroed {cs.tallied_count()}")
    print(f"distinct {cs.distinct_count()}")
    for family, count in sorted(cs.family_counts().items()):
        print(f"  {family} {count}")
    print(f"free {free}")
    return 0


def _cmd_independencies(args) -> int:
    spec = read_model_spec(args.spec)
    for statement in spec.graph.independencies():
        print(statement.render())
    return 0


def _cmd_equivalent(args) -> int:
    if len(args.spec) != 2:
        raise ParseError("equivalent needs exactly two --spec files")
    first = read_model_spec(args.spec[0])
    second = read_model_spec(args.spec[1])
    mapping = graphs_equivalent(
        first.graph,
        second.graph,
        latent_cardinalities=dict(first.latent_scheme.variables),
        latent_cardinalities2=dict(second.latent_scheme.variables),
    )
    if mapping is None:
        print("not equivalent")
        return 0
    for node in first.graph.latent:
        print(f"{node} -> {mapping[node]}")
    for node in first.graph.observed:
        print(f"{node} -> {node}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "count-params": _cmd_count_params,
    "independencies": _cmd_independencies,
    "equivalent": _cmd_equivalent,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 3
    except MhmmError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error:domain: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error:capacity: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
