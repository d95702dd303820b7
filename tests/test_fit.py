import numpy as np
import pytest
import scipy.optimize
from pytest import approx

import mhmm.fit
from mhmm import (
    ConstraintSet,
    DomainError,
    FitOptions,
    InteractionSpace,
    MhmmModel,
    NumericalError,
    VariableScheme,
    additivity_constraints,
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
from mhmm.fit import (
    MSTEP_GTOL,
    MSTEP_MAX_HALVINGS,
    _MStepProblem,
    canonical_state_orders,
    relabel_states,
)
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


# Central differences with step 1e-5 carry O(h^2) truncation and about
# eps * |g| / h rounding, both far below 1e-6 of the largest entry.
OBSERVED_INFO_RTOL = 1e-6


@pytest.mark.parametrize("name", SCORING_SPACES)
def test_observed_information_matches_central_differences(name, rng):
    space = SCORING_SPACES[name]
    counts, _, _ = scoring_point(space, rng)
    mask = rng.random((space.condition.n_states, space.n_columns)) < 0.3
    problem = _MStepProblem(space, counts, mask)
    theta = np.where(mask, 0.0, rng.uniform(-0.3, 0.3, mask.shape))
    x = problem.solve_states(theta, None)
    free = np.flatnonzero(problem.free)

    def score(values):
        probs = _softmax_rows(problem.solve_states(values, x))
        return problem.gradient_and_info(None, probs)[0][free]

    _, info = problem.gradient_and_info(x, _softmax_rows(x), _curvature=True)
    h = 1e-5
    columns = []
    for j in free:
        step = np.zeros(mask.shape)
        step.flat[j] = h
        columns.append((score(theta - step) - score(theta + step)) / (2 * h))
    assert max_rel_error(info[np.ix_(free, free)], np.array(columns).T) <= OBSERVED_INFO_RTOL


def test_m_step_stops_after_one_newton_and_one_gradient_failure(rng, monkeypatch):
    # gtol=0 runs the iteration into the float floor, where line searches
    # fail; from an unchanged point a retry would repeat the same trials
    counts = rng.integers(5, 30, size=(4, 4)).astype(float)
    mask = np.zeros((4, 3), dtype=bool)
    mask[:, 2] = True
    trials = []
    solve_states = _MStepProblem.solve_states

    def recording(self, theta_values, warm_x):
        trials.append(theta_values.copy())
        return solve_states(self, theta_values, warm_x)

    monkeypatch.setattr(_MStepProblem, "solve_states", recording)
    theta, _ = constrained_m_step(DSPACE, counts, mask, gtol=0.0)
    reached = next(i for i, t in enumerate(trials) if np.array_equal(t, theta))
    assert len(trials) - 1 - reached <= 2 * MSTEP_MAX_HALVINGS


def test_m_step_converges_on_additivity_far_from_additive_rows():
    # Dirichlet(2) rows sit far from any additive table, where a
    # linear-rate iteration stalls just above the acceptance threshold
    latent = VariableScheme.of(("E1", 2), ("E2", 2))
    observed = VariableScheme.of(*[(f"F{i}", 3) for i in range(1, 5)])
    space = InteractionSpace(observed, latent, "theta")
    counts = 500.0 * np.random.default_rng(0).dirichlet(np.full(observed.n_states, 2.0), 4)
    mask = additivity_constraints(latent, observed, "emission").mask(space)
    theta, probs = constrained_m_step(space, counts, mask)
    assert np.all(theta[mask] == 0.0)
    problem = _MStepProblem(space, counts, mask)
    g, _ = problem.gradient_and_info(None, probs)
    assert np.max(np.abs(g[problem.free])) < MSTEP_GTOL


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


def test_lock_step_restart_matches_a_lone_fit():
    truth = generating_model()
    _, series = simulate(truth, 300, seed=8)
    _, cs = no_granger_constraints()
    many = em_fit(LAT, OBS, cs, series, FitOptions(restarts=3, seed=4, max_iter=60))
    alone = em_fit(LAT, OBS, cs, series, FitOptions(restarts=1, seed=4, max_iter=60))
    assert [record.restart for record in many.restarts] == [0, 1, 2]
    first = many.restarts[0]
    assert np.array_equal(first.trace, alone.em_trace)
    assert first.iterations == alone.iterations
    assert first.log_lik == alone.log_lik
    assert first.stop_reason == alone.stop_reason
    best = many.restarts[many.best_restart]
    assert best.log_lik == many.log_lik
    assert np.array_equal(best.trace, many.em_trace)
    assert many.log_lik == max(record.log_lik for record in many.restarts)
    assert many.converged == (many.stop_reason == "tol")


def test_failed_restart_is_recorded_and_leaves_the_others_unchanged(monkeypatch):
    truth = generating_model()
    _, series = simulate(truth, 200, seed=5)
    empty = ConstraintSet(LAT, OBS)
    opts = FitOptions(restarts=3, seed=2, max_iter=40)
    clean = em_fit(LAT, OBS, empty, series, opts)
    real = mhmm.fit.expected_counts
    calls = []

    def failing_first_e_step_of_restart_1(models, series):
        rows = real(models, series)
        calls.append(len(models))
        if len(calls) == 1:
            rows[1] = NumericalError("forced failure")
        return rows

    monkeypatch.setattr(mhmm.fit, "expected_counts", failing_first_e_step_of_restart_1)
    fit = em_fit(LAT, OBS, empty, series, opts)
    failed = fit.restarts[1]
    assert (failed.stop_reason, failed.error, failed.iterations) == ("error", "forced failure", 0)
    assert np.isnan(failed.log_lik)
    # later E-steps batch only the two surviving restarts
    assert calls[0] == 3 and max(calls[1:]) == 2
    for r in (0, 2):
        assert fit.restarts[r].error is None
        assert np.array_equal(fit.restarts[r].trace, clean.restarts[r].trace)
    assert clean.best_restart == fit.best_restart == 0
    assert fit.log_lik == clean.log_lik
    assert np.array_equal(fit.model.emission, clean.model.emission)


def test_fit_raises_when_every_restart_fails(monkeypatch):
    truth = generating_model()
    _, series = simulate(truth, 50, seed=5)

    def failing(models, series):
        return [NumericalError(f"forced failure {i}") for i in range(len(models))]

    monkeypatch.setattr(mhmm.fit, "expected_counts", failing)
    with pytest.raises(NumericalError) as raised:
        em_fit(LAT, OBS, ConstraintSet(LAT, OBS), series, FitOptions(restarts=2))
    assert str(raised.value) == (
        "every EM restart failed numerically: "
        "restart 0: forced failure 0; restart 1: forced failure 1"
    )


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
