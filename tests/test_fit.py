import numpy as np
import pytest
import scipy.optimize
from pytest import approx

from mhmm import (
    ConstraintSet,
    DomainError,
    FitOptions,
    InteractionSpace,
    MhmmModel,
    VariableScheme,
    constrained_m_step,
    count_free_parameters,
    em_fit,
    graph_constraints,
    interactions_from_table,
    log_likelihood,
    parse_model_spec,
    simulate,
    table_from_interactions,
)
from mhmm.fit import _MStepProblem, canonical_state_orders, relabel_states
from mhmm.interactions import InteractionTable, _softmax_rows
from helpers import dense_gradient_and_info, random_model, random_rows

LAT = VariableScheme.of(("E1", 2), ("E2", 2))
OBS = VariableScheme.of(("F1", 3), ("F2", 2))
DSPACE = InteractionSpace(LAT, LAT, "delta")


def no_granger_constraints():
    spec = parse_model_spec(
        "latent E1 2\nlatent E2 2\nobserved F1 3\nobserved F2 2\n"
        "bidir E1 <-> E2\n"
        + "\n".join(f"emit E{i} -> F{j}" for i in (1, 2) for j in (1, 2))
        + "\nbidir F1 <-> F2\n",
        label="noGranger",
    )
    return spec, spec.compile()


def test_m_step_unconstrained_is_row_normalization(rng):
    counts = rng.integers(1, 40, size=(4, 4)).astype(float)
    mask = np.zeros((4, 3), dtype=bool)
    theta, probs = constrained_m_step(DSPACE, counts, mask)
    assert probs == approx(counts / counts.sum(axis=1, keepdims=True), abs=1e-8)
    assert table_from_interactions(InteractionTable(DSPACE, theta)) == approx(probs, abs=1e-8)


def test_m_step_zeroed_coordinates_are_exact(rng):
    counts = rng.integers(1, 40, size=(4, 4)).astype(float)
    cs = graph_constraints(
        parse_model_spec(
            "latent E1 2\nlatent E2 2\nbidir E1 <-> E2\n", label="g"
        ).graph,
        LAT,
        None,
    )
    mask = cs.mask(DSPACE)
    assert mask.sum() == 4
    theta, probs = constrained_m_step(DSPACE, counts, mask)
    assert theta[mask] == approx(np.zeros(4), abs=0.0)
    assert probs.sum(axis=1) == approx(np.ones(4))
    # the constrained solution reproduces itself through the forward map
    assert interactions_from_table(DSPACE, probs).values == approx(theta, abs=1e-7)


def scipy_constrained_optimum(space, counts, mask):
    """Direct maximization over free coordinates, as an independent check."""
    free = ~mask.ravel()

    def negloglik(z):
        theta = np.zeros(mask.size)
        theta[free] = z
        table = InteractionTable(space, theta.reshape(mask.shape))
        probs = table_from_interactions(table)
        return -float(np.sum(counts * np.log(probs)))

    z0 = np.zeros(int(free.sum()))
    res = scipy.optimize.minimize(negloglik, z0, method="Nelder-Mead",
                                  options={"maxiter": 20000, "xatol": 1e-10, "fatol": 1e-12})
    return -res.fun


def test_m_step_matches_direct_optimization(rng):
    counts = rng.integers(5, 30, size=(4, 4)).astype(float)
    mask = np.zeros((4, 3), dtype=bool)
    mask[:, 2] = True  # kill the pair interaction everywhere
    theta, probs = constrained_m_step(DSPACE, counts, mask)
    ours = float(np.sum(counts * np.log(probs)))
    reference = scipy_constrained_optimum(DSPACE, counts, mask)
    assert ours >= reference - 1e-6


def test_m_step_rejects_bad_counts():
    with pytest.raises(DomainError):
        constrained_m_step(DSPACE, -np.ones((4, 4)), np.zeros((4, 3), dtype=bool))
    with pytest.raises(DomainError):
        constrained_m_step(DSPACE, np.zeros((4, 4)), np.zeros((4, 3), dtype=bool))
    with pytest.raises(DomainError):
        constrained_m_step(DSPACE, np.ones((3, 4)), np.zeros((4, 3), dtype=bool))


# The block and dense forms sum the same float64 products in different
# orders; 1e-10 (about 5e5 machine epsilons) of max-norm relative error
# covers that reassociation at these sizes and nothing more.
SCORING_RTOL = 1e-10
SCORING_SPACES = {
    "em-theta-4x6": InteractionSpace(OBS, LAT, "theta"),
    "em-delta-4x4": DSPACE,
    "theta-2^3x3^3": InteractionSpace(
        VariableScheme.of(("F1", 3), ("F2", 3), ("F3", 3)),
        VariableScheme.of(("E1", 2), ("E2", 2), ("E3", 2)),
        "theta",
    ),
    "ternary-condition": InteractionSpace(
        VariableScheme.of(("F1", 2), ("F2", 3)),
        VariableScheme.of(("E1", 3), ("E2", 2)),
        "theta",
    ),
}


def scoring_point(space, rng):
    n_cond, n_cells = space.condition.n_states, space.response.n_states
    counts = rng.integers(1, 40, size=(n_cond, n_cells)).astype(float)
    probs = random_rows(rng, n_cond, n_cells, floor=1e-3)
    return counts, np.log(probs[:, 1:] / probs[:, :1]), probs


def max_rel_error(value, reference):
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


@pytest.mark.parametrize("name", SCORING_SPACES)
def test_scoring_matches_dense_oracle(name, rng):
    space = SCORING_SPACES[name]
    counts, x, probs = scoring_point(space, rng)
    problem = _MStepProblem(space, counts, np.zeros((space.condition.n_states, space.n_columns)))
    g, info = problem.gradient_and_info(x, probs)
    g_ref, info_ref = dense_gradient_and_info(space, counts, probs)
    assert g.shape == g_ref.shape and info.shape == info_ref.shape
    assert max_rel_error(g, g_ref) <= SCORING_RTOL
    assert max_rel_error(info, info_ref) <= SCORING_RTOL


@pytest.mark.parametrize("name", SCORING_SPACES)
def test_scoring_gradient_matches_central_differences(name, rng):
    space = SCORING_SPACES[name]
    counts, _, _ = scoring_point(space, rng)
    mask = rng.random((space.condition.n_states, space.n_columns)) < 0.3
    problem = _MStepProblem(space, counts, mask)
    theta = np.where(mask, 0.0, rng.uniform(-0.3, 0.3, mask.shape))

    def objective(values):
        return problem.loglik(_softmax_rows(problem.solve_states(values, None)))

    x = problem.solve_states(theta, None)
    g, _ = problem.gradient_and_info(x, _softmax_rows(x))
    h = 1e-5
    numeric = []
    for j in np.flatnonzero(problem.free):
        step = np.zeros(mask.shape)
        step.flat[j] = h
        numeric.append((objective(theta + step) - objective(theta - step)) / (2 * h))
    assert g[problem.free] == approx(np.array(numeric), rel=1e-6, abs=1e-6)


def test_fit_options_validation():
    with pytest.raises(DomainError):
        FitOptions(restarts=0)
    with pytest.raises(DomainError):
        FitOptions(tol=0.0)
    with pytest.raises(DomainError):
        FitOptions(max_iter=-1)
    with pytest.raises(DomainError):
        FitOptions(seed=-1)


def generating_model():
    transition = np.kron(
        np.array([[0.8, 0.2], [0.3, 0.7]]), np.array([[0.75, 0.25], [0.2, 0.8]])
    )
    emission = random_rows(np.random.default_rng(99), 4, OBS.n_states, floor=0.02)
    return MhmmModel.from_tables(LAT, OBS, transition, emission)


def test_em_unconstrained_dominates_truth_on_training_data():
    truth = generating_model()
    _, series = simulate(truth, 2000, seed=11)
    empty = ConstraintSet(LAT, OBS)
    fit = em_fit(LAT, OBS, empty, series, FitOptions(restarts=2, max_iter=200), label="sat")
    assert fit.log_lik >= log_likelihood(truth, series) - 1e-6
    assert fit.par == count_free_parameters(LAT, OBS, empty)
    assert fit.data_fingerprint == series.fingerprint


def test_em_trace_monotone_and_constraints_exact():
    truth = generating_model()
    _, series = simulate(truth, 400, seed=3)
    spec, cs = no_granger_constraints()
    fit = em_fit(LAT, OBS, cs, series, FitOptions(restarts=2, max_iter=150), label="ng")
    trace = np.array(fit.em_trace)
    assert np.all(np.diff(trace) >= -1e-8)
    dmask = cs.mask(fit.delta.space)
    tmask = cs.mask(fit.theta.space)
    assert np.all(fit.delta.values[dmask] == 0.0)
    assert np.all(fit.theta.values[tmask] == 0.0)
    # the model tables realize those coefficients
    assert table_from_interactions(fit.delta) == approx(fit.model.transition, abs=1e-6)
    assert table_from_interactions(fit.theta) == approx(fit.model.emission, abs=1e-6)


def test_em_is_deterministic_given_seed():
    truth = generating_model()
    _, series = simulate(truth, 300, seed=8)
    empty = ConstraintSet(LAT, OBS)
    opts = FitOptions(restarts=2, seed=4, max_iter=100)
    a = em_fit(LAT, OBS, empty, series, opts)
    b = em_fit(LAT, OBS, empty, series, opts)
    assert a.log_lik == b.log_lik
    assert np.array_equal(a.model.transition, b.model.transition)
    assert a.best_restart == b.best_restart


def test_em_rejects_mismatched_series():
    other = VariableScheme.of(("G1", 2))
    truth = generating_model()
    _, series = simulate(truth, 50, seed=0)
    with pytest.raises(DomainError):
        em_fit(LAT, other, ConstraintSet(LAT, other), series)


def test_canonical_orders_sort_first_category_mass():
    truth = generating_model()
    orders = canonical_state_orders(truth)
    assert len(orders) == 2
    relabeled = relabel_states(truth, orders)
    again = canonical_state_orders(relabeled)
    assert all(o == tuple(range(1, len(o) + 1)) for o in again)


def test_relabel_states_permutes_consistently(rng):
    m = random_model(rng, LAT, OBS)
    flipped = relabel_states(m, [(2, 1), (1, 2)])
    # flipping E1 swaps the state blocks (11,12) <-> (21,22)
    perm = [2, 3, 0, 1]
    assert flipped.transition == approx(m.transition[np.ix_(perm, perm)])
    assert flipped.emission == approx(m.emission[perm])
    assert relabel_states(flipped, [(2, 1), (1, 2)]).transition == approx(m.transition)


def test_em_canonical_labels_are_stable_across_seeds():
    truth = generating_model()
    _, series = simulate(truth, 800, seed=21)
    empty = ConstraintSet(LAT, OBS)
    a = em_fit(LAT, OBS, empty, series, FitOptions(restarts=2, seed=1, max_iter=200))
    b = em_fit(LAT, OBS, empty, series, FitOptions(restarts=2, seed=2, max_iter=200))
    orders_a = canonical_state_orders(a.model)
    orders_b = canonical_state_orders(b.model)
    assert all(o == tuple(range(1, len(o) + 1)) for o in orders_a)
    assert all(o == tuple(range(1, len(o) + 1)) for o in orders_b)
