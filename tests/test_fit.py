import functools
import hashlib
import importlib

import numpy as np
import pytest
import scipy.optimize
from pytest import approx

import mhmm.fit
import mhmm.model
from mhmm import (
    ConstraintSet,
    DomainError,
    FitOptions,
    InteractionSpace,
    MhmmModel,
    NumericalError,
    ObservedSeries,
    ParseError,
    VariableScheme,
    additivity_constraints,
    constrained_m_step,
    invariant_association_constraints,
    count_free_parameters,
    em_fit,
    fit_spec,
    fit_specs,
    graph_constraints,
    interactions_from_table,
    log_likelihood,
    parse_model_spec,
    simulate,
    table_from_interactions,
    user_zero_constraints,
)
from mhmm.fit import (
    MSTEP_GTOL,
    MSTEP_MAX_HALVINGS,
    MSTEP_TRIAL_INVERSION_ITER,
    _canonicalize,
    _MStepProblem,
    batched_m_step,
    canonical_state_orders,
    relabel_states,
)
from mhmm.interactions import (
    NEWTON_MAX_ITER,
    InteractionIndex,
    InteractionTable,
    _chart_of,
    _invert_rows,
    _jacobian_rows,
    _softmax_rows,
    collapse_factorial,
)
from helpers import dense_curvature_blocks, dense_gradient_and_info, random_model, random_rows

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
    nan_cell = np.ones((4, 4))
    nan_cell[1, 2] = np.nan
    with pytest.raises(DomainError):
        constrained_m_step(DSPACE, nan_cell, np.zeros((4, 3), dtype=bool))


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
    g, info = problem.gradient_and_info(probs)
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
        return problem.loglik(_chart_of(InteractionTable(space, values))[1])

    g, _ = problem.gradient_and_info(_chart_of(InteractionTable(space, theta))[1])
    h = 1e-5
    numeric = []
    for j in np.flatnonzero(problem.free):
        step = np.zeros(mask.shape)
        step.flat[j] = h
        numeric.append((objective(theta + step) - objective(theta - step)) / (2 * h))
    assert g[problem.free] == approx(np.array(numeric), rel=1e-6, abs=1e-6)


# The closed form and the chain rule through G_e differ by rounding only: a
# few machine epsilons of each state's largest entry, which 1e-13 (about 450
# epsilons) covers at these sizes.
CURVATURE_RTOL = 1e-13


@pytest.mark.parametrize("name", SCORING_SPACES)
def test_curvature_blocks_match_the_chain_rule_oracle(name, rng):
    """The closed-form curvature blocks equal those of the chain rule
    through G_e = M dp_e/dx_e (helpers.dense_curvature_blocks), at the
    chart point and score of random coefficients under a random mask."""
    space = SCORING_SPACES[name]
    for _ in range(3):
        counts, _, _ = scoring_point(space, rng)
        mask = rng.random((space.condition.n_states, space.n_columns)) < 0.3
        problem = _MStepProblem(space, counts, mask)
        theta = np.where(mask, 0.0, rng.uniform(-0.3, 0.3, mask.shape))
        probs = _chart_of(InteractionTable(space, theta))[1]
        h = problem.score(probs)[2]
        got, want = problem._curvature_blocks(probs, h), dense_curvature_blocks(space, probs, h)
        assert got.shape == want.shape
        scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(got - want) <= CURVATURE_RTOL * scale)


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
    x = _chart_of(InteractionTable(space, theta))[0]
    jac = _jacobian_rows(space, _softmax_rows(x))
    free = np.flatnonzero(problem.free)

    def score(values):
        probs = _softmax_rows(problem.solve_states(values, x, jac)[0])
        return problem.gradient_and_info(probs)[0][free]

    _, info = problem.gradient_and_info(_softmax_rows(x), _curvature=True)
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

    def recording(self, theta_values, x0, jac0):
        trials.append(theta_values.copy())
        return solve_states(self, theta_values, x0, jac0)

    monkeypatch.setattr(_MStepProblem, "solve_states", recording)
    monkeypatch.setattr(mhmm.fit, "MSTEP_GTOL", 0.0)
    theta, _ = constrained_m_step(DSPACE, counts, mask)
    reached = next(i for i, t in enumerate(trials) if np.array_equal(t, theta))
    assert len(trials) - 1 - reached <= 2 * MSTEP_MAX_HALVINGS


def test_line_search_inversions_start_from_the_scored_jacobians(monkeypatch):
    """Each line-search trial's inversion, the gradient retry's too, takes
    over the contrast Jacobians that scoring formed at its start point:
    spies count the Jacobian rows each trial forms, none of them there."""
    latent = VariableScheme.of(("E1", 2), ("E2", 2))
    observed = VariableScheme.of(*[(f"F{i}", 3) for i in range(1, 4)])
    space = InteractionSpace(observed, latent, "theta")
    counts = 500.0 * np.random.default_rng(0).dirichlet(np.full(observed.n_states, 2.0), 4)
    mask = additivity_constraints(latent, observed, "emission").mask(space)
    trials, searches = [], []  # a trial: [its start's rows, rows formed there, rows formed]
    solve_states, jacobian_rows = _MStepProblem.solve_states, mhmm.interactions._jacobian_rows
    newton_steps, line_search = mhmm.fit._newton_steps, mhmm.fit._line_search

    def spy_solve(self, theta_values, x0, jac0):
        trials.append([{row.tobytes() for row in _softmax_rows(x0)}, 0, 0])
        return solve_states(self, theta_values, x0, jac0)

    def spy_jacobian(space, p):
        rows = [row.tobytes() for row in p.reshape(-1, p.shape[-1])]
        if trials:
            trials[-1][1] += sum(row in trials[-1][0] for row in rows)
            trials[-1][2] += len(rows)
        return jacobian_rows(space, p)

    def spy_search(problem, it, rows, steps, jac):
        searches.append(rows.size)
        return line_search(problem, it, rows, steps, jac)

    def downhill(*args):
        # a downhill Newton step fails its line search, so the gradient
        # retry runs from the same point
        steps, solved = newton_steps(*args)
        return -steps, solved

    monkeypatch.setattr(_MStepProblem, "solve_states", spy_solve)
    monkeypatch.setattr(mhmm.interactions, "_jacobian_rows", spy_jacobian)
    monkeypatch.setattr(mhmm.fit, "_line_search", spy_search)
    monkeypatch.setattr(mhmm.fit, "_newton_steps", downhill)
    monkeypatch.setattr(mhmm.fit, "MSTEP_MAX_ITER", 3)
    batched_m_step(space, counts[None], mask)
    assert searches == [1] * 6
    assert sum(formed for _, _, formed in trials) > 0
    assert [at_start for _, at_start, _ in trials] == [0] * len(trials)


def test_line_search_trial_inversions_stop_at_their_iteration_cap(monkeypatch):
    """From a far start (coefficients up to 30, x taken from an inversion
    without the probability floor) the line search meets trial points the
    inner Newton cannot reach. Each trial inversion forms at most
    MSTEP_TRIAL_INVERSION_ITER Jacobians, one per Newton iteration, and a
    trial that would need more counts as not inverted, so its step halves:
    spies count the Jacobians, which number under half of those formed when
    trials may run NEWTON_MAX_ITER iterations."""
    counts = np.random.default_rng(2).integers(1, 60, (4, 6)).astype(float)
    theta = np.where(ADDITIVE, 0.0, np.random.default_rng([2, 1]).uniform(-30, 30, ADDITIVE.shape))
    x = _invert_rows(EMISSION_SPACE, collapse_factorial(InteractionTable(EMISSION_SPACE, theta)))[0]
    solve_states, jacobian_rows = _MStepProblem.solve_states, mhmm.interactions._jacobian_rows
    formed, capped = [], []

    def spy_solve(self, theta_values, x0, jac0):
        formed.append(0)
        out = solve_states(self, theta_values, x0, jac0)
        capped.extend("did not converge" in str(error) for error in out[1].values())
        return out

    def spy_jacobian(space, p):
        formed[-1] += 1
        return jacobian_rows(space, p)

    monkeypatch.setattr(_MStepProblem, "solve_states", spy_solve)
    monkeypatch.setattr(mhmm.interactions, "_jacobian_rows", spy_jacobian)
    monkeypatch.setattr(mhmm.fit, "MSTEP_MAX_ITER", 15)
    start = theta[None], x[None]
    (result,) = batched_m_step(EMISSION_SPACE, counts[None], ADDITIVE, start)
    assert isinstance(result, NumericalError)
    assert max(formed) <= MSTEP_TRIAL_INVERSION_ITER
    assert any(capped)
    with_cap = sum(formed)
    formed.clear()
    monkeypatch.setattr(mhmm.fit, "MSTEP_TRIAL_INVERSION_ITER", NEWTON_MAX_ITER)
    batched_m_step(EMISSION_SPACE, counts[None], ADDITIVE, start)
    assert max(formed) > MSTEP_TRIAL_INVERSION_ITER
    assert 2 * with_cap < sum(formed)


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
    g, _ = problem.gradient_and_info(probs)
    assert np.max(np.abs(g[problem.free])) < MSTEP_GTOL


def test_m_step_line_search_survives_a_singular_inversion_jacobian():
    # a trial point of this solve meets a contrast Jacobian that stays
    # singular under the ridge: the inversion fails that block with a
    # NumericalError and the line search halves, where LinAlgError escaped
    latent = VariableScheme.of(("E1", 2), ("E2", 2), ("E3", 2))
    space = InteractionSpace(latent, latent, "delta")
    rows = ["0000000", "0000000", "1000100", "0100001", "0010001", "0010100", "0101000", "0110111"]
    mask = np.array([[c == "1" for c in row] for row in rows])
    rng = np.random.default_rng([3, 2])
    counts = rng.integers(0, 50, size=(8, 8)).astype(float)
    rng.random((8, 8))
    counts[:, 0] += 1
    start = chart_point(space, np.where(mask, 0.0, rng.uniform(-2, 2, mask.shape))[None])
    theta, probs, _ = batched_m_step(space, counts[None], mask, start)[0]
    assert np.all(theta[mask] == 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0)


# sha256 over (theta, probs) of cold M-steps on Dirichlet(2) emission counts,
# recorded once the chart Jacobian was a gather and the curvature blocks a
# closed form
GOLDEN_M_STEPS = "020e589a1ffdbec21af6a7c0c993bf349aa7452d2faa0bbe5c75c99fc9a248cc"


def test_m_step_solutions_match_golden_digest():
    digest = hashlib.sha256()
    cases = [
        (2, 3, additivity_constraints),
        (2, 3, invariant_association_constraints),
        (3, 3, invariant_association_constraints),
        (2, 4, additivity_constraints),
    ]
    for n_latent, n_observed, constraints_of in cases:
        latent = VariableScheme.of(*[(f"E{i + 1}", 2) for i in range(n_latent)])
        observed = VariableScheme.of(*[(f"F{i + 1}", 3) for i in range(n_observed)])
        rows = np.random.default_rng(7).dirichlet(np.full(observed.n_states, 2.0), latent.n_states)
        space = InteractionSpace(observed, latent, "theta")
        mask = constraints_of(latent, observed, "emission").mask(space)
        theta, probs = constrained_m_step(space, 2000.0 / latent.n_states * rows, mask)
        digest.update(theta.tobytes())
        digest.update(probs.tobytes())
    assert digest.hexdigest() == GOLDEN_M_STEPS


EMISSION_SPACE = InteractionSpace(OBS, LAT, "theta")
ADDITIVE = additivity_constraints(LAT, OBS, "emission").mask(EMISSION_SPACE)


def chart_point(space, thetas):
    """The M-step start (thetas, x) of a stack of coefficient tables, x the
    free log-probabilities that carry each table."""
    return thetas, np.array([_chart_of(InteractionTable(space, theta))[0] for theta in thetas])


def m_step_rows(cases):
    """Count tables and M-step starts, one per (seed, start scale) case; the
    starting coefficients are zero on ADDITIVE."""
    counts = [np.random.default_rng(seed).integers(1, 60, size=(4, 6)) for seed, _ in cases]
    thetas = [
        np.random.default_rng([seed, 1]).uniform(-scale, scale, ADDITIVE.shape)
        for seed, scale in cases
    ]
    start = chart_point(EMISSION_SPACE, np.where(ADDITIVE, 0.0, np.array(thetas)))
    return np.array(counts, dtype=float), start


def lone_m_steps(counts, start, monkeypatch):
    """Each row's lone M-step from its start: its result or error, and how
    many observed and ridged expected informations it formed."""
    kinds = []
    real = _MStepProblem.gradient_and_info

    def counting(self, probs, _curvature=False, _score=None):
        kinds.append(_curvature)
        return real(self, probs, _curvature, _score)

    out = []
    with monkeypatch.context() as patch:
        patch.setattr(_MStepProblem, "gradient_and_info", counting)
        for row_counts, row_theta, row_x in zip(counts, *start):
            kinds.clear()
            row_start = row_theta[None], row_x[None]
            (result,) = batched_m_step(EMISSION_SPACE, row_counts[None], ADDITIVE, row_start)
            out.append((result, kinds.count(True), kinds.count(False)))
    return out


def assert_same_row(got, expected):
    if isinstance(expected, NumericalError):
        assert isinstance(got, NumericalError) and str(got) == str(expected)
    else:
        assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])


def test_batched_m_step_rows_equal_lone_calls(monkeypatch):
    # few and many Newton steps, ridged expected information, and a row
    # that needs more Newton steps than MSTEP_MAX_ITER allows
    cases = [(0, 0.0), (0, 6.0), (3, 1.0), (4, 6.0)]
    counts, start = m_step_rows(cases)
    monkeypatch.setattr(mhmm.fit, "MSTEP_MAX_ITER", 10)
    lone = lone_m_steps(counts, start, monkeypatch)
    for got, (expected, _, _) in zip(batched_m_step(EMISSION_SPACE, counts, ADDITIVE, start), lone):
        assert_same_row(got, expected)
    failed = lone[3][0]
    assert isinstance(failed, NumericalError) and "M-step stalled" in str(failed)
    fitted = [row for row in lone if not isinstance(row[0], NumericalError)]
    assert len({newton for _, newton, _ in fitted}) > 1
    assert any(fisher for _, _, fisher in fitted) and not all(fisher for _, _, fisher in fitted)
    # closed-form rows go through the same call
    free = np.zeros_like(ADDITIVE)
    for got, row_counts in zip(batched_m_step(EMISSION_SPACE, counts, free), counts):
        assert_same_row(got, constrained_m_step(EMISSION_SPACE, row_counts, free))


def test_batched_m_step_rows_equal_lone_calls_at_the_float_floor(monkeypatch):
    # gtol=0 runs every row until its line searches fail, each at its own
    # step; at the float floor the flat-objective test decides row by row
    cases = [(3, 1.0), (5, 1.0), (6, 0.0), (0, 0.0), (8, 0.0), (7, 0.0), (1, 1.0), (3, 0.0)]
    counts, start = m_step_rows(cases)
    monkeypatch.setattr(mhmm.fit, "MSTEP_GTOL", 0.0)
    lone = lone_m_steps(counts, start, monkeypatch)
    batched = batched_m_step(EMISSION_SPACE, counts, ADDITIVE, start)
    for got, (expected, _, _) in zip(batched, lone):
        assert_same_row(got, expected)
    assert len({newton for _, newton, _ in lone}) > 2


@pytest.mark.parametrize("flaw", ["theta off the mask", "theta rows", "x columns"])
def test_batched_m_step_refuses_a_malformed_start(flaw):
    counts, (theta, x) = m_step_rows([(0, 1.0), (3, 1.0)])
    if flaw == "theta off the mask":
        theta[1][ADDITIVE] = 0.5
    elif flaw == "theta rows":
        theta = theta[:1]
    else:
        x = x[..., :-1]
    with pytest.raises(DomainError, match="start"):
        batched_m_step(EMISSION_SPACE, counts, ADDITIVE, (theta, x))


def test_em_m_steps_get_a_start_wherever_a_mask_is_set(monkeypatch):
    """Every constrained M-step inside em_fit and fit_specs starts at its
    iterate's chart point, never at the uniform law of a call without one."""
    calls = []
    real = mhmm.fit.batched_m_step

    def spy(space, counts, mask, start=None):
        calls.append((mask.any(), start is not None))
        return real(space, counts, mask, start)

    monkeypatch.setattr(mhmm.fit, "batched_m_step", spy)
    _, series = simulate(generating_model(), 200, seed=3)
    em_fit(LAT, OBS, no_granger_constraints()[1], series, FitOptions(restarts=2, max_iter=4))
    fit_specs(
        [parse_model_spec(LADDER[name] + "option max_iter 3\n", label=name) for name in LADDER],
        series,
    )
    assert (True, True) in calls and (False, False) in calls
    assert all(started for masked, started in calls if masked)


# Both M-steps below stop at a score norm below MSTEP_GTOL = 1e-7, from
# the same coefficients with free log-probabilities whose contrasts agree
# to interactions.NEWTON_TOL = 1e-10; with
# informations of the order of the counts (1e2 to 1e3) their solutions lie
# within about 1e-9 of each other, and the objective, flat at its optimum,
# agrees far closer. Measured: 7.1e-15 and 4.5e-13 at most.
WARM_CHART_THETA_ATOL = 1e-8
WARM_CHART_OBJECTIVE_RTOL = 1e-12


@pytest.mark.parametrize("table", ["transition", "emission"])
@pytest.mark.parametrize("hypothesis", ["additivity", "ownEmit"])
def test_warm_chart_m_step_agrees_with_the_cold_one_near_a_previous_optimum(table, hypothesis):
    """An EM M-step starts at the previous M-step's solution with new counts
    nearby: started from the x where that solution's iteration ended, it
    reaches the solution started from the x of an inversion from the uniform
    law within the stated tolerances, with exact zeros."""
    space = DSPACE if table == "transition" else EMISSION_SPACE
    if hypothesis == "additivity":
        mask = additivity_constraints(LAT, OBS, table).mask(space)
    else:
        mask = parse_model_spec(LADDER["ownEmit"], label="own").compile().mask(space)
    assert mask.any() and not mask.all()
    rng = np.random.default_rng(7)
    shape = (space.condition.n_states, space.response.n_states)
    for _ in range(8):
        before = rng.integers(5, 80, shape).astype(float)
        theta, _, x = batched_m_step(space, before[None], mask)[0]
        counts = before * rng.uniform(0.9, 1.1, shape)
        warm = batched_m_step(space, counts[None], mask, (theta[None], x[None]))[0]
        cold = batched_m_step(space, counts[None], mask, chart_point(space, theta[None]))[0]
        assert np.all(warm[0][mask] == 0.0) and np.all(cold[0][mask] == 0.0)
        assert warm[0] == approx(cold[0], rel=0, abs=WARM_CHART_THETA_ATOL)
        objective = _MStepProblem(space, counts, mask).loglik
        assert objective(warm[1]) == approx(objective(cold[1]), rel=WARM_CHART_OBJECTIVE_RTOL)


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


def counting_backward(monkeypatch):
    """Record the row count of every backward pass."""
    real = mhmm.model._backward
    rows = []

    def counting(models, b, scales):
        rows.append(len(models))
        return real(models, b, scales)

    monkeypatch.setattr(mhmm.model, "_backward", counting)
    return rows


def test_stopping_rows_skip_the_backward_pass(monkeypatch):
    _, series = simulate(generating_model(), 200, seed=3)
    rows = counting_backward(monkeypatch)
    sizes = counting_e_step(monkeypatch)
    fit = em_fit(LAT, OBS, ConstraintSet(LAT, OBS), series, FitOptions(restarts=3, max_iter=1))
    assert [record.stop_reason for record in fit.restarts] == ["max_iter"] * 3
    # two E-steps over the three restarts; only the first is M-stepped
    assert sizes == [3, 3]
    assert rows == [3]


def fit_digest(fit):
    digest = hashlib.sha256()
    digest.update(repr((fit.iterations, fit.stop_reason, fit.best_restart, fit.log_lik)).encode())
    for values in (
        fit.em_trace, fit.model.transition, fit.model.emission, fit.model.initial,
        fit.delta.values, fit.theta.values,
    ):
        digest.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    for record in fit.restarts:
        digest.update(
            repr((record.restart, record.iterations, record.stop_reason, record.error)).encode()
        )
        digest.update(np.float64(record.log_lik).tobytes())
        digest.update(np.ascontiguousarray(record.trace, dtype="<f8").tobytes())
    return digest.hexdigest()


# sha256 of FitResults whose restarts are damped and stop on tol, max_iter or
# an error, recorded once the chart Jacobian was a gather, the curvature
# blocks a closed form and line-search trial inversions capped
GOLDEN_DAMPED_FITS = {
    "saturated": "815df68f9bffe2a6567c926bc1a97887c62901e57d7cbef272d164933dd97db4",
    "noGranger": "01b56c8018e73f7239082a72370f9ef6d0f84af2eb96ebb5c6c790d2e535fcfd",
}


def test_damped_and_stopped_fits_match_golden_digests(monkeypatch):
    _, series = simulate(generating_model(), 20, seed=0)
    constraints = {"saturated": ConstraintSet(LAT, OBS), "noGranger": no_granger_constraints()[1]}
    rows = counting_backward(monkeypatch)
    sizes = counting_e_step(monkeypatch)
    for name, cs in constraints.items():
        rows.clear()
        sizes.clear()
        fit = em_fit(LAT, OBS, cs, series, FitOptions(restarts=3, seed=0, max_iter=150))
        assert fit_digest(fit) == GOLDEN_DAMPED_FITS[name]
        # damped midpoints add E-step rows beyond one per iteration and start
        assert sum(sizes) > sum(record.iterations + 1 for record in fit.restarts)
        if name == "saturated":
            assert {record.stop_reason for record in fit.restarts} == {"tol", "max_iter"}
            # counts only for the iterates an M-step starts from
            assert sum(rows) == sum(record.iterations for record in fit.restarts)
        else:
            assert [record.stop_reason for record in fit.restarts] == ["tol", "error", "error"]


def test_oversized_m_step_is_refused_before_allocating(monkeypatch):
    """model.RECURSION_BYTES holds one row's three k x k informations,
    3 * 8 * 20^2 = 9,600 bytes on the emission space under additivity, and
    the dense marginalizer plus contrast, 8 * 11 * (6 + 5) = 968 bytes there.
    A fit and a direct batched_m_step are refused before any inversion runs
    or the marginalizer is built; a saturated M-step holds no k x k matrix."""
    _, series = simulate(generating_model(), 20, seed=0)
    additive = additivity_constraints(LAT, OBS, "emission")
    counts = np.ones((1, 4, 6))

    def allocating(*args):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(mhmm.fit, "_invert_rows", allocating)
    monkeypatch.setattr(InteractionSpace, "marginalizer", property(allocating))
    monkeypatch.setattr(mhmm.model, "RECURSION_BYTES", 9_600)
    mhmm.fit._Problem.build(LAT, OBS, additive, series)
    monkeypatch.setattr(mhmm.model, "RECURSION_BYTES", 9_599)
    k_by_k = (
        r"^M-step on the theta space of \(F1\(3\), F2\(2\)\) given \(E1\(2\), E2\(2\)\): "
        r"one row's k x k informations need 9,600 bytes, above the limit of 9,599$"
    )
    space = InteractionSpace(OBS, LAT, "theta")
    with pytest.raises(DomainError, match=k_by_k):
        batched_m_step(space, counts, ADDITIVE)
    with pytest.raises(DomainError, match=k_by_k):
        em_fit(LAT, OBS, additive, series, FitOptions(restarts=1))
    mhmm.fit._Problem.build(LAT, OBS, ConstraintSet(LAT, OBS), series)
    monkeypatch.setattr(mhmm.model, "RECURSION_BYTES", 967)
    dense = "the marginalizer and contrast need 968 bytes, above the limit of 967$"
    with pytest.raises(DomainError, match=dense):
        batched_m_step(space, counts, np.zeros_like(ADDITIVE))
    with pytest.raises(DomainError, match=dense):
        em_fit(LAT, OBS, ConstraintSet(LAT, OBS), series, FitOptions(restarts=1))


@pytest.mark.parametrize("name", ["saturated", "noGranger"])
def test_damped_restart_matches_a_lone_fit(name):
    """On the T=20 series where damping fires, restart 0 follows its lone
    path while its rounds hold other restarts' midpoints (saturated) or its
    own midpoints share rounds with their proposals (noGranger)."""
    _, series = simulate(generating_model(), 20, seed=0)
    cs = ConstraintSet(LAT, OBS) if name == "saturated" else no_granger_constraints()[1]
    many = em_fit(LAT, OBS, cs, series, FitOptions(restarts=3, seed=0, max_iter=150))
    alone = em_fit(LAT, OBS, cs, series, FitOptions(restarts=1, seed=0, max_iter=150))
    first = many.restarts[0]
    assert np.array_equal(first.trace, alone.em_trace)
    assert first.iterations == alone.iterations
    assert first.stop_reason == alone.stop_reason
    assert first.log_lik == alone.log_lik


def test_halvings_are_counted_per_iteration(monkeypatch):
    """A row may halve 30 times in each iteration, not 30 times in all: with
    every M-step proposal and its first 11 midpoints made to fall, 4
    iterations take 48 halvings and the fit still ends at max_iter."""
    _, series = simulate(generating_model(), 200, seed=3)
    real = mhmm.fit.expected_counts
    sizes, sunk = [], [0]

    def sinking(models, series, needs_counts=None):
        start = not sizes
        sizes.append(len(models))

        def asks(r, log_lik):
            if start or sunk[0] == 12:
                sunk[0] = 0
                return needs_counts(r, log_lik)
            sunk[0] += 1
            return needs_counts(r, log_lik - 1e6)

        return real(models, series, asks)

    monkeypatch.setattr(mhmm.fit, "expected_counts", sinking)
    fit = em_fit(LAT, OBS, ConstraintSet(LAT, OBS), series, FitOptions(restarts=1, max_iter=4))
    assert (fit.stop_reason, fit.iterations, len(fit.em_trace)) == ("max_iter", 4, 5)
    assert sum(sizes) == 1 + 4 * 13


@pytest.mark.parametrize(
    "module, path",
    [
        ("mhmm.fit", "_run_em"),  # fit.restarts
        ("mhmm.fit", "_invert_rows"),  # interactions.invert
        ("mhmm.interactions", "_invert_rows"),  # interactions.invert
        ("mhmm.fit", "_MStepProblem.gradient_and_info"),  # fit.scoring
        ("mhmm.modelspec", "em_fit"),  # fit.em_fit
    ],
)
def test_traced_fit_sites_still_exist(module, path):
    """The benchmark wraps these functions where the package looks them up;
    a renamed one would read as zero without being reported absent."""
    assert callable(functools.reduce(getattr, path.split("."), importlib.import_module(module)))


def test_traced_state_indices_site_stays_a_cached_property():
    """The benchmark's model.state_indices layer wraps it as a cached_property."""
    assert isinstance(ObservedSeries.__dict__.get("state_indices"), functools.cached_property)


def test_failed_restart_is_recorded_and_leaves_the_others_unchanged(monkeypatch):
    truth = generating_model()
    _, series = simulate(truth, 200, seed=5)
    empty = ConstraintSet(LAT, OBS)
    opts = FitOptions(restarts=3, seed=2, max_iter=40)
    clean = em_fit(LAT, OBS, empty, series, opts)
    real = mhmm.fit.expected_counts
    calls = []

    def failing_first_e_step_of_restart_1(models, series, needs_counts=None):
        rows = real(models, series, needs_counts)
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

    def failing(models, series, needs_counts=None):
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


@pytest.mark.parametrize(
    "zeros, f1_given, relabeled",
    [
        # a user zero on F1 given E1 alone, with F1's E1,E2 term free: moving
        # E2's baseline folds that term into the zeroed block
        (
            user_zero_constraints(LAT, OBS, "theta", ["F1"], ["E1"]),
            {("E2",): -2.0, ("E1", "E2"): 3.0},
            False,
        ),
        # additivity zeroes every E1,E2 term, and relabeling keeps it zero
        (additivity_constraints(LAT, OBS, "emission"), {("E1",): 0.5, ("E2",): -2.0}, True),
    ],
)
def test_canonicalize_keeps_the_fitted_labels_when_relabeling_breaks_a_zero(
    rng, zeros, f1_given, relabeled
):
    # F1's coefficients given E2 = 2 raise P(F1 = 1), so the canonical
    # order flips E2 and keeps E1
    tspace = InteractionSpace(OBS, LAT, "theta")
    theta = np.zeros((LAT.n_states, tspace.n_columns))
    for cond, value in f1_given.items():
        for cat in (2, 3):
            index = InteractionIndex("theta", ("F1",), cond, (cat,), (2,) * len(cond))
            theta[tspace.locate(index)] = value
    transition = random_rows(rng, LAT.n_states, LAT.n_states)
    emission = table_from_interactions(InteractionTable(tspace, theta))
    model = MhmmModel.from_tables(LAT, OBS, transition, emission)
    assert canonical_state_orders(model) == [(1, 2), (2, 1)]
    delta = interactions_from_table(DSPACE, transition).values
    dmask, tmask = np.zeros(delta.shape, dtype=bool), zeros.mask(tspace)
    got, _, got_theta = _canonicalize(model, delta, theta, DSPACE, tspace, dmask, tmask)
    assert np.all(got_theta[tmask] == 0.0)
    if relabeled:
        assert got.emission == approx(relabel_states(model, [(1, 2), (2, 1)]).emission)
    else:
        assert got is model and got_theta is theta


# Nested ladder on LAT x OBS: 32, 28 and 22 free coordinates
LADDER_DECL = (
    "latent E1 2\nlatent E2 2\nobserved F1 3\nobserved F2 2\nbidir E1 <-> E2\n"
)
ALL_EMIT = "".join(f"emit E{i} -> F{j}\n" for i in (1, 2) for j in (1, 2))
LADDER = {
    "saturated": LADDER_DECL + ALL_EMIT + "bidir F1 <-> F2\ndir E1 -> E2\ndir E2 -> E1\n",
    "noGranger": LADDER_DECL + ALL_EMIT + "bidir F1 <-> F2\n",
    "ownEmit": LADDER_DECL + "emit E1 -> F1\nemit E2 -> F2\nbidir F1 <-> F2\n",
}
# one ternary latent variable: a second latent scheme over the same series
SINGLE_CHAIN = "latent E1 3\nobserved F1 3\nobserved F2 2\nemit E1 -> F1\nemit E1 -> F2\n"


def batch_specs():
    """Specs differing in restarts, seed, max_iter and tol, over two latent schemes."""
    options = [
        "option restarts 3\noption seed 4\noption max_iter 60\n",
        "option restarts 2\noption seed 1\noption max_iter 25\noption tol 1e-4\n",
        "option restarts 1\noption seed 9\noption max_iter 40\noption tol 1e-6\n",
        "option restarts 2\noption seed 5\noption max_iter 30\n",
    ]
    texts = [LADDER["saturated"], LADDER["noGranger"], SINGLE_CHAIN, LADDER["ownEmit"]]
    return [
        parse_model_spec(text + opts, label=f"spec{k}")
        for k, (text, opts) in enumerate(zip(texts, options))
    ]


def assert_same_fit(got, expected):
    assert got.label == expected.label
    assert (got.iterations, got.stop_reason, got.best_restart) == (
        expected.iterations, expected.stop_reason, expected.best_restart
    )
    assert got.log_lik == expected.log_lik
    assert np.array_equal(got.em_trace, expected.em_trace)
    for name in ("transition", "emission", "initial"):
        assert np.array_equal(getattr(got.model, name), getattr(expected.model, name))
    assert np.array_equal(got.delta.values, expected.delta.values)
    assert np.array_equal(got.theta.values, expected.theta.values)
    assert len(got.restarts) == len(expected.restarts)
    for a, b in zip(got.restarts, expected.restarts):
        assert (a.restart, a.iterations, a.stop_reason, a.error) == (
            b.restart, b.iterations, b.stop_reason, b.error
        )
        assert np.array_equal(a.trace, b.trace)
        assert a.log_lik == b.log_lik or (np.isnan(a.log_lik) and np.isnan(b.log_lik))


def counting_e_step(monkeypatch):
    """Record the row count of every expected_counts call the EM makes."""
    real = mhmm.fit.expected_counts
    sizes = []

    def counting(models, series, needs_counts=None):
        sizes.append(len(models))
        return real(models, series, needs_counts)

    monkeypatch.setattr(mhmm.fit, "expected_counts", counting)
    return sizes


@pytest.fixture(scope="module")
def batch_series():
    _, series = simulate(generating_model(), 300, seed=8)
    return series


def test_batched_specs_equal_lone_fits(batch_series, monkeypatch):
    specs = batch_specs()
    alone = [fit_spec(spec, batch_series) for spec in specs]
    sizes = counting_e_step(monkeypatch)
    batched = fit_specs(specs, batch_series)
    for got, expected in zip(batched, alone, strict=True):
        assert_same_fit(got, expected)
    # the first E-step stacks the 3 + 2 + 2 starts of the 2 x 2 latent specs
    # and, apart, the single-chain start
    assert sizes[:2] == [7, 1]
    assert {fit.stop_reason for fit in alone} >= {"tol", "max_iter"}
    assert len({fit.iterations for fit in alone}) > 1


def test_forced_chunk_split_gives_the_same_rows(batch_series, monkeypatch):
    specs = batch_specs()
    whole = fit_specs(specs, batch_series)
    sizes = counting_e_step(monkeypatch)
    # a budget of one byte leaves chunks of the largest restart count, 3
    monkeypatch.setattr(mhmm.fit, "ESTEP_STACK_BYTES", 1)
    split = fit_specs(specs, batch_series)
    assert max(sizes) == 3 and sizes[:4] == [3, 3, 1, 1]
    for got, expected in zip(split, whole, strict=True):
        assert_same_fit(got, expected)


def test_stack_rows_follow_the_budget():
    _, series = simulate(generating_model(), 10, seed=0)
    cs = parse_model_spec(LADDER["saturated"], label="s").compile()
    problems = [
        mhmm.fit._Problem.build(LAT, OBS, cs, series, FitOptions(restarts=r)) for r in (2, 4)
    ]
    row_bytes = 3 * 1000 * LAT.n_states * 8
    assert mhmm.fit._stack_rows(problems, 1000) == {LAT: mhmm.fit.ESTEP_STACK_BYTES // row_bytes}
    # a long series still stacks the largest problem's restarts
    assert mhmm.fit._stack_rows(problems, 10**9) == {LAT: 4}


def test_m_step_groups_rows_by_space_content(batch_series):
    # one latent variable with four states conditions the emissions like
    # E1 x E2 does; zeroing the F1,F2 coefficients under every nonempty
    # conditioning margin gives equal emission masks over different spaces
    four = "latent E1 4\nobserved F1 3\nobserved F2 2\nemit E1 -> F1\nemit E1 -> F2\n"
    zero = "hypothesis user_zero THETA F1,F2 {}\n"
    options = "option restarts 2\noption max_iter 15\n"
    pair = LADDER["saturated"] + "".join(zero.format(q) for q in ("E1", "E2", "E1,E2"))
    specs = [
        parse_model_spec(pair + options, label="pair"),
        parse_model_spec(four + "bidir F1 <-> F2\n" + zero.format("E1") + options, label="four"),
    ]
    fits = fit_specs(specs, batch_series)
    masks = [fit.constraints.mask(fit.theta.space) for fit in fits]
    assert masks[0].any() and np.array_equal(masks[0], masks[1])
    for got, spec in zip(fits, specs, strict=True):
        assert_same_fit(got, fit_spec(spec, batch_series))


def test_dim_counts_free_mask_entries(batch_series):
    overlap = LADDER_DECL + ALL_EMIT + "hypothesis invariant_association emission\n"
    texts = {**LADDER, "overlap": overlap}
    options = "option restarts 1\noption max_iter 2\n"
    specs = [parse_model_spec(text + options, label=label) for label, text in texts.items()]
    fits = {fit.label: fit for fit in fit_specs(specs, batch_series)}
    for label, fit in fits.items():
        cs = fit.constraints
        free = np.count_nonzero(~cs.mask(fit.delta.space))
        free += np.count_nonzero(~cs.mask(fit.theta.space))
        assert fit.dim == free
    assert [fits[label].par for label in LADDER] == [32, 28, 22]
    assert all(fits[label].dim == fits[label].par for label in LADDER)
    # without bidir F1 <-> F2 the graph zeroes every F1,F2 coefficient, and
    # invariant association zeroes those with a latent margin once more
    assert fits["overlap"].par < fits["overlap"].dim


def test_fit_specs_raises_in_spec_order(batch_series, monkeypatch):
    fits = parse_model_spec(LADDER["noGranger"] + "option restarts 1\n", label="ng")
    bare = parse_model_spec("latent E1 2\n", label="bare")  # nothing to fit
    with pytest.raises(ParseError):
        fit_specs([fits, bare], batch_series)

    def failing(models, series, needs_counts=None):
        return [NumericalError("forced failure") for _ in models]

    monkeypatch.setattr(mhmm.fit, "expected_counts", failing)
    # the earlier spec fails first, as it would fitted alone before the other
    with pytest.raises(NumericalError):
        fit_specs([fits, bare], batch_series)
    with pytest.raises(ParseError):
        fit_specs([bare, fits], batch_series)
