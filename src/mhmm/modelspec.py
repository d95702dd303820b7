"""Model specification files.

One directive per line, '#' starts a comment:

    latent <name> <num_states>
    observed <name> <num_categories>
    dir <latent> -> <latent>
    bidir <a> <-> <b>
    emit <latent> -> <observed>
    no_self_parents
    hypothesis additivity emission|transition
    hypothesis invariant_association emission|transition
    hypothesis user_zero THETA|DELTA <P> <Q>
    option restarts|seed|max_iter <integer>
    option tol <float>

Variable sets P and Q are comma-joined names, '-' for the empty set.
Declarations may appear in any order; duplicate edges and hypotheses are
idempotent and a repeated option keeps its last value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .constraints import (
    ConstraintSet,
    additivity_constraints,
    graph_constraints,
    invariant_association_constraints,
    user_zero_constraints,
)
from .errors import DomainError, MhmmError, ParseError
from .fit import FitOptions, FitResult, _fit_problems, _Problem, em_fit
from .graphs import MixedChainGraph
from .interactions import _parse_group
from .model import ObservedSeries
from .schemes import VariableScheme

_HYPOTHESIS_TARGETS = ("emission", "transition")
_HYPOTHESIS_COMPILERS = {
    "additivity": additivity_constraints,
    "invariant_association": invariant_association_constraints,
    "user_zero": user_zero_constraints,
}
_OPTION_TYPES = {"restarts": int, "seed": int, "max_iter": int, "tol": float}


@dataclass(frozen=True)
class ModelSpec:
    """A parsed specification: graph, hypotheses, and fit options."""

    label: str
    graph: MixedChainGraph
    latent_scheme: VariableScheme
    obs_scheme: VariableScheme | None
    hypotheses: tuple[tuple, ...]
    options: FitOptions

    def compile(self) -> ConstraintSet:
        """Zero restrictions induced by the graph and the extra hypotheses."""
        cs = graph_constraints(self.graph, self.latent_scheme, self.obs_scheme)
        for kind, *args in self.hypotheses:
            cs = cs.merge(_HYPOTHESIS_COMPILERS[kind](self.latent_scheme, self.obs_scheme, *args))
        return cs


def _fail(line_no: int, message: str):
    raise ParseError(f"line {line_no}: {message}")


def parse_model_spec(text: str, label: str = "spec") -> ModelSpec:
    """Parse directive text into a ModelSpec."""
    lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((line_no, stripped.split()))

    latent: dict[str, int] = {}
    observed: dict[str, int] = {}
    for line_no, tokens in lines:
        if tokens[0] not in ("latent", "observed"):
            continue
        if len(tokens) != 3:
            _fail(line_no, f"'{tokens[0]}' needs a name and a category count")
        _, name, count_token = tokens
        if not name.isidentifier():
            _fail(line_no, f"variable name {name!r} is not an identifier")
        try:
            count = int(count_token)
        except ValueError:
            _fail(line_no, f"category count {count_token!r} is not an integer")
        if count < 2:
            _fail(line_no, f"variable {name!r} needs at least 2 categories")
        table = latent if tokens[0] == "latent" else observed
        other = observed if tokens[0] == "latent" else latent
        if name in other:
            _fail(line_no, f"variable {name!r} declared as both latent and observed")
        if table.get(name, count) != count:
            _fail(line_no, f"variable {name!r} redeclared with a different count")
        table[name] = count
    if not latent:
        raise ParseError("spec declares no latent variables")
    known = set(latent) | set(observed)

    directed: set[tuple[str, str]] = set()
    bidirected_latent: set[tuple[str, str]] = set()
    bidirected_obs: set[tuple[str, str]] = set()
    emit: set[tuple[str, str]] = set()
    self_parents = True
    hypotheses: list[tuple] = []
    options = FitOptions()

    def _known(line_no, *names):
        for name in names:
            if name not in known:
                _fail(line_no, f"unknown variable {name!r}")

    for line_no, tokens in lines:
        head = tokens[0]
        if head in ("latent", "observed"):
            continue
        if head == "no_self_parents":
            if len(tokens) != 1:
                _fail(line_no, "'no_self_parents' takes no arguments")
            self_parents = False
        elif head == "dir":
            if len(tokens) != 4 or tokens[2] != "->":
                _fail(line_no, "expected 'dir <latent> -> <latent>'")
            _known(line_no, tokens[1], tokens[3])
            if tokens[1] not in latent or tokens[3] not in latent:
                _fail(line_no, "'dir' joins two latent variables")
            directed.add((tokens[1], tokens[3]))
        elif head == "bidir":
            if len(tokens) != 4 or tokens[2] != "<->":
                _fail(line_no, "expected 'bidir <a> <-> <b>'")
            a, b = tokens[1], tokens[3]
            _known(line_no, a, b)
            if a == b:
                _fail(line_no, f"'bidir' self edge {a} <-> {a} is meaningless")
            if a in latent and b in latent:
                bidirected_latent.add((a, b))
            elif a in observed and b in observed:
                bidirected_obs.add((a, b))
            else:
                _fail(line_no, "'bidir' joins two variables of the same block")
        elif head == "emit":
            if len(tokens) != 4 or tokens[2] != "->":
                _fail(line_no, "expected 'emit <latent> -> <observed>'")
            _known(line_no, tokens[1], tokens[3])
            if tokens[1] not in latent or tokens[3] not in observed:
                _fail(line_no, "'emit' points from a latent to an observed variable")
            emit.add((tokens[1], tokens[3]))
        elif head == "hypothesis":
            hypotheses.append(_parse_hypothesis(line_no, tokens, latent, observed))
        elif head == "option":
            options = _parse_option(line_no, tokens, options)
        else:
            _fail(line_no, f"unknown directive {head!r}")

    graph = MixedChainGraph.build(
        latent=tuple(latent),
        observed=tuple(observed),
        directed_latent=directed,
        bidirected_latent=bidirected_latent,
        emit=emit,
        bidirected_obs=bidirected_obs,
        self_parents=self_parents,
    )
    latent_scheme = VariableScheme.of(*latent.items())
    obs_scheme = VariableScheme.of(*observed.items()) if observed else None

    deduped = tuple(dict.fromkeys(hypotheses))
    return ModelSpec(
        label=label,
        graph=graph,
        latent_scheme=latent_scheme,
        obs_scheme=obs_scheme,
        hypotheses=deduped,
        options=options,
    )


def _parse_hypothesis(line_no, tokens, latent, observed):
    if len(tokens) < 2:
        _fail(line_no, "'hypothesis' needs a kind")
    kind = tokens[1]
    if kind in ("additivity", "invariant_association"):
        if len(tokens) != 3 or tokens[2] not in _HYPOTHESIS_TARGETS:
            _fail(line_no, f"expected 'hypothesis {kind} emission|transition'")
        if tokens[2] == "emission" and not observed:
            _fail(line_no, "emission hypothesis without observed variables")
        return (kind, tokens[2])
    if kind == "user_zero":
        if len(tokens) != 5 or tokens[2].lower() not in ("theta", "delta"):
            _fail(line_no, "expected 'hypothesis user_zero THETA|DELTA <P> <Q>'")
        coeff = tokens[2].lower()
        response = _parse_group(tokens[3])
        cond = _parse_group(tokens[4])
        if not response:
            _fail(line_no, "user_zero needs a nonempty response set")
        response_pool = observed if coeff == "theta" else latent
        block = "observed" if coeff == "theta" else "latent"
        for name in response:
            if name not in response_pool:
                _fail(line_no, f"{name!r} is not a {block} variable")
        for name in cond:
            if name not in latent:
                _fail(line_no, f"conditioning variable {name!r} is not latent")
        return ("user_zero", coeff, response, cond)
    _fail(line_no, f"unknown hypothesis {kind!r}")


def _parse_option(line_no, tokens, options: FitOptions) -> FitOptions:
    if len(tokens) != 3:
        _fail(line_no, "expected 'option <name> <value>'")
    key, value_token = tokens[1], tokens[2]
    if key not in _OPTION_TYPES:
        _fail(line_no, f"unknown option {key!r}")
    convert = _OPTION_TYPES[key]
    try:
        value = convert(value_token)
    except ValueError:
        _fail(line_no, f"option {key} value {value_token!r} is not a valid {convert.__name__}")
    try:
        return replace(options, **{key: value})
    except DomainError as exc:
        _fail(line_no, str(exc))


def read_model_spec(path, label: str | None = None) -> ModelSpec:
    """Parse a spec file; the label defaults to the file stem."""
    from pathlib import Path

    p = Path(path)
    return parse_model_spec(p.read_text(), label=label or p.stem)


def _fit_args(spec: ModelSpec, series: ObservedSeries) -> tuple:
    if spec.obs_scheme is None:
        raise ParseError("fitting needs observed variables in the spec")
    return spec.latent_scheme, spec.obs_scheme, spec.compile(), series, spec.options, spec.label


def fit_spec(spec: ModelSpec, series: ObservedSeries) -> FitResult:
    """Compile a spec and fit it to a series by constrained EM."""
    return em_fit(*_fit_args(spec, series))


def fit_specs(specs, series: ObservedSeries) -> list[FitResult]:
    """Fit several specs to one series, every restart of every spec in one
    lock-step EM (see fit.py); one FitResult per spec, each equal bitwise to
    fit_spec's. Errors are those of fitting the specs one after another: the
    first spec in order that fails raises."""
    problems = []
    try:
        for spec in specs:
            problems.append(_Problem.build(*_fit_args(spec, series)))
    except MhmmError:
        _fit_problems(problems, series)  # an earlier spec's failure comes first
        raise
    return _fit_problems(problems, series)
