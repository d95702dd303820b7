import numpy as np
import pytest

from mhmm import (
    FitOptions,
    ParseError,
    count_free_parameters,
    parse_model_spec,
    read_model_spec,
    simulate,
)
from mhmm.modelspec import fit_spec
from conftest import PANEL_TABLE

GOOD = """
# two coupled chains watching two outlets
latent E1 2
latent E2 3
observed F1 2
observed F2 3

dir E1 -> E2
bidir E1 <-> E2
bidir F1 <-> F2
emit E1 -> F1
emit E2 -> F2

hypothesis additivity emission
hypothesis invariant_association transition
hypothesis user_zero THETA F1,F2 E1
hypothesis user_zero DELTA E1 -

option restarts 3
option seed 7
option max_iter 50
option tol 1e-6
"""


def test_parse_full_specification():
    spec = parse_model_spec(GOOD, label="demo")
    assert spec.label == "demo"
    assert spec.latent_scheme.variables == (("E1", 2), ("E2", 3))
    assert spec.obs_scheme.variables == (("F1", 2), ("F2", 3))
    g = spec.graph
    assert ("E1", "E2") in g.directed_latent
    assert ("E2", "E1") not in g.directed_latent
    assert ("E1", "E1") in g.directed_latent  # self loops stay on
    assert g.bidirected_latent == frozenset({("E1", "E2")})
    assert g.bidirected_obs == frozenset({("F1", "F2")})
    assert ("E1", "F1") in g.directed_emit
    assert spec.options == FitOptions(restarts=3, seed=7, max_iter=50, tol=1e-6)
    kinds = [h[0] for h in spec.hypotheses]
    assert kinds == ["additivity", "invariant_association", "user_zero", "user_zero"]


def test_parse_no_self_parents():
    spec = parse_model_spec("latent E1 2\nlatent E2 2\nno_self_parents\n")
    assert spec.graph.directed_latent == frozenset()


def test_duplicate_directives_are_idempotent():
    text = (
        "latent E1 2\nlatent E1 2\nobserved F1 2\n"
        "emit E1 -> F1\nemit E1 -> F1\n"
        "hypothesis additivity emission\nhypothesis additivity emission\n"
        "option seed 1\noption seed 9\n"
    )
    spec = parse_model_spec(text)
    assert spec.latent_scheme.size == 1
    assert len(spec.hypotheses) == 1
    assert spec.options.seed == 9


def test_compile_matches_direct_counts():
    text, expected = PANEL_TABLE["ci+ia+noGranger+tia"]
    spec = parse_model_spec(text)
    assert count_free_parameters(spec.latent_scheme, spec.obs_scheme, spec.compile()) == expected


def error_line(text):
    with pytest.raises(ParseError) as err:
        parse_model_spec(text)
    return str(err.value)


def test_parse_errors_carry_line_numbers():
    msg = error_line("latent E1 2\nwobble E2 2\n")
    assert msg.startswith("line 2:")
    msg = error_line("latent E1 2\nlatent E1 3\n")
    assert "E1" in msg and msg.startswith("line 2")


@pytest.mark.parametrize(
    "text",
    [
        "latent E1 1\n",
        "latent 2E 2\n",
        "latent E1 2\nobserved E1 2\n",
        "latent E1 2\ndir E1 -> F1\nobserved F1 2\n",
        "latent E1 2\nobserved F1 2\nemit F1 -> E1\n",
        "latent E1 2\nobserved F1 2\nbidir E1 <-> F1\n",
        "latent E1 2\nbidir E1 <-> E1\n",
        "latent E1 2\ndir E1 E2\n",
        "latent E1 2\nhypothesis additivity sideways\n",
        "latent E1 2\nhypothesis user_zero KAPPA E1 -\n",
        "latent E1 2\nobserved F1 2\nhypothesis user_zero THETA E1 -\n",
        "latent E1 2\nhypothesis user_zero DELTA - -\n",
        "latent E1 2\noption restarts 0\n",
        "latent E1 2\noption tol 2.0\n",
        "latent E1 2\noption seed -3\n",
        "latent E1 2\noption warp 9\n",
        "latent E1 2\noption seed nan\n",
        "latent E1 2\noption max_iter inf\n",
        "latent E1 2\noption restarts 2.5\n",
        "latent E1 2\noption restarts 1e3\n",
        "observed F1 2\n",
        "",
    ],
)
def test_parse_rejects_malformed_specs(text):
    with pytest.raises(ParseError):
        parse_model_spec(text)


def test_integer_options_are_kept_exactly():
    spec = parse_model_spec("latent E1 2\noption seed 9007199254740993\n")
    assert spec.options.seed == 9007199254740993


def test_user_zero_targets_feed_compile():
    text = (
        "latent E1 2\nlatent E2 2\nobserved F1 2\n"
        "dir E1 -> E2\ndir E2 -> E1\nbidir E1 <-> E2\n"
        "emit E1 -> F1\nemit E2 -> F1\n"
        "hypothesis user_zero THETA F1 E1,E2\n"
    )
    spec = parse_model_spec(text)
    cs = spec.compile()
    assert cs.family_counts() == {"user": 1}
    total = count_free_parameters(spec.latent_scheme, spec.obs_scheme, cs)
    saturated = parse_model_spec(text.rsplit("hypothesis", 1)[0])
    assert total == count_free_parameters(
        saturated.latent_scheme, saturated.obs_scheme, saturated.compile()
    ) - 1


def test_read_model_spec_labels_from_stem(tmp_path):
    path = tmp_path / "two_chain.spec"
    path.write_text(GOOD)
    spec = read_model_spec(path)
    assert spec.label == "two_chain"
    assert read_model_spec(path, label="override").label == "override"


def test_fit_spec_runs_end_to_end(rng):
    text = (
        "latent E1 2\nobserved F1 3\nemit E1 -> F1\n"
        "option restarts 1\noption max_iter 300\noption seed 2\n"
    )
    spec = parse_model_spec(text, label="tiny")
    from mhmm import MhmmModel, VariableScheme

    truth = MhmmModel.from_tables(
        spec.latent_scheme,
        spec.obs_scheme,
        np.array([[0.85, 0.15], [0.2, 0.8]]),
        np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]),
    )
    _, series = simulate(truth, 300, seed=5)
    fit = fit_spec(spec, series)
    assert fit.label == "tiny"
    assert fit.converged
    # one free transition logit plus two emission contrasts per latent state
    assert fit.par == 6
