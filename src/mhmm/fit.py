"""Constrained maximum likelihood fitting by EM.

The E-step runs the scaled forward-backward recursions with the initial law
tied to the transition table as its invariant distribution; the gradient
contribution of that tie is ignored in the M-step, which is the standard
approximation. The M-step maximizes expected multinomial log-likelihoods
over the free interaction coordinates by Fisher scoring; zeroed coordinates
stay exactly zero because the free set is an unconstrained chart. The score
and information are assembled block by block over the conditioning states
(see _MStepProblem.gradient_and_info): with n_cond states of m contrasts
each (k = n_cond m coordinates) a scoring step costs
O(n_cond k^2 + n_cond m^3) instead of the O(k^3) of inverting the k x k
chart Jacobian.

A damping guard interpolates back toward the previous iterate whenever a
full M-step would decrease the observed-data log-likelihood, which keeps the
recorded trace monotone despite the ignored initial-law term. When no damped
step avoids a decrease, the fit stops and reports that it did not converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, count_free_parameters
from .errors import DomainError, NumericalError
from .interactions import (
    InteractionSpace,
    InteractionTable,
    _invert_rows,
    _jacobian_rows,
    _softmax_rows,
    interactions_from_table,
    table_from_interactions,
)
from .model import MhmmModel, ObservedSeries, forward_backward
from .schemes import VariableScheme

MSTEP_GTOL = 1e-7
MSTEP_GTOL_ACCEPT = 1e-5
MSTEP_MAX_ITER = 200
MSTEP_MAX_HALVINGS = 25
SCORING_FAILURE_LIMIT = 3


@dataclass
class FitOptions:
    """Knobs for the EM driver."""

    restarts: int = 10
    seed: int = 0
    max_iter: int = 500
    tol: float = 1e-8

    def __post_init__(self):
        if self.restarts < 1:
            raise DomainError("restarts must be at least 1")
        if self.seed < 0:
            raise DomainError("seed must be a nonnegative integer")
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")
        if not 0 < self.tol < 1:
            raise DomainError("tol must sit in (0, 1)")


@dataclass
class FitResult:
    """Outcome of one constrained EM fit."""

    model: MhmmModel
    delta: InteractionTable
    theta: InteractionTable
    constraints: ConstraintSet
    log_lik: float
    iterations: int
    converged: bool
    em_trace: np.ndarray
    par: int
    data_fingerprint: str
    label: str = ""
    seed: int = 0
    best_restart: int = 0


# Keeps EM iterates safely interior; a cell this small carries no data anyway.
EM_FLOOR = 1e-8


def _floored(probs: np.ndarray, floor: float = EM_FLOOR) -> np.ndarray:
    out = np.maximum(probs, floor)
    return out / out.sum(axis=-1, keepdims=True)


class _MStepProblem:
    """Expected multinomial log-likelihood over free interaction coordinates."""

    def __init__(self, space: InteractionSpace, counts: np.ndarray, mask: np.ndarray):
        counts = np.asarray(counts, dtype=float)
        n_cond, n_cells = space.condition.n_states, space.response.n_states
        if counts.shape != (n_cond, n_cells):
            raise DomainError(f"count table shape {counts.shape}, expected {(n_cond, n_cells)}")
        if np.any(counts < 0):
            raise DomainError("count table has negative entries")
        self.space = space
        self.counts = counts
        self.totals = counts.sum(axis=1)
        if np.any(self.totals <= 0):
            raise DomainError("every conditioning state needs positive total count")
        self.mask = np.asarray(mask, dtype=bool)
        self.free = ~self.mask.ravel()
        self.m = space.n_columns

    def solve_states(self, theta_values: np.ndarray, warm_x: np.ndarray | None) -> np.ndarray:
        eta = self.space.zeta @ theta_values
        return _invert_rows(self.space, eta, x0=warm_x)

    def loglik(self, probs: np.ndarray) -> float:
        return float(np.sum(self.counts * np.log(probs)))

    def gradient_and_info(self, x: np.ndarray, probs: np.ndarray):
        """Score and expected information in interaction coordinates.

        With J_e the contrast Jacobian of conditioning state e, the chart map
        has inverse blockdiag(J_e^-1) (zeta kron I_m), so both quantities come
        from per-state m x m blocks: h_e = J_e^-T g_e and
        W_e = J_e^-T I_e J_e^-1, then g = zeta^T H and
        info[(c, p), (d, q)] = sum_e zeta[e, c] W_e[p, q] zeta[e, d].
        With I_e = t_e (diag(p_e) - p_e p_e^T) and u_e = J_e^-T p_e,
        W_e = t_e (J_e^-T diag(p_e) J_e^-1 - u_e u_e^T).
        """
        n_cond, m = probs.shape[0], self.m
        j_inv = np.linalg.inv(_jacobian_rows(self.space, probs))
        p_free = probs[:, 1:]
        g_x = self.counts[:, 1:] - self.totals[:, None] * p_free
        h = (g_x[:, None, :] @ j_inv)[:, 0, :]
        u = (p_free[:, None, :] @ j_inv)[:, 0, :]
        w = j_inv.transpose(0, 2, 1) @ (p_free[:, :, None] * j_inv)
        w = self.totals[:, None, None] * (w - u[:, :, None] * u[:, None, :])
        zeta = self.space.zeta
        g_theta = (zeta.T @ h).ravel()
        pairs = (zeta[:, :, None] * zeta[:, None, :]).reshape(n_cond, -1)
        info = (pairs.T @ w.reshape(n_cond, -1)).reshape(n_cond, n_cond, m, m)
        info_theta = info.transpose(0, 2, 1, 3).reshape(n_cond * m, n_cond * m)
        return g_theta, info_theta


def constrained_m_step(
    space: InteractionSpace,
    counts: np.ndarray,
    mask: np.ndarray,
    warm: np.ndarray | None = None,
    gtol: float = MSTEP_GTOL,
    max_iter: int = MSTEP_MAX_ITER,
):
    """Maximize sum(counts * log p) subject to zeroed interaction coordinates.

    Returns (theta_values, probs). With no active constraints the solution
    is the row-normalized count table. Otherwise Fisher scoring runs on the
    free coordinates with step halving, falling back to gradient ascent
    after repeated scoring failures.
    """
    problem = _MStepProblem(space, counts, mask)
    if not problem.mask.any():
        probs = _floored(problem.counts / problem.totals[:, None])
        return interactions_from_table(space, probs).values, probs

    theta = np.zeros_like(problem.mask, dtype=float) if warm is None else np.array(warm)
    theta[problem.mask] = 0.0
    x = problem.solve_states(theta, None)
    probs = _softmax_rows(x)
    value = problem.loglik(probs)
    if not problem.free.any():
        return theta, _floored(probs)

    failures = 0
    for _ in range(max_iter):
        g_theta, info_theta = problem.gradient_and_info(x, probs)
        g_free = g_theta[problem.free]
        gnorm = float(np.max(np.abs(g_free)))
        if gnorm < gtol:
            return theta, _floored(probs)
        info_free = info_theta[np.ix_(problem.free, problem.free)]
        step = None
        if failures < SCORING_FAILURE_LIMIT:
            ridge = 1e-10 * (1.0 + np.trace(info_free) / info_free.shape[0])
            try:
                step = np.linalg.solve(info_free + ridge * np.eye(info_free.shape[0]), g_free)
            except np.linalg.LinAlgError:
                step = None
        if step is None:
            step = g_free / max(gnorm, 1.0)
        accepted = False
        flat_guard = 1e-12 * (1.0 + abs(value))
        scale = 1.0
        for _ in range(MSTEP_MAX_HALVINGS):
            trial = theta.copy()
            trial.ravel()[problem.free] += scale * step
            try:
                x_trial = problem.solve_states(trial, x)
            except NumericalError:
                scale *= 0.5
                continue
            probs_trial = _softmax_rows(x_trial)
            value_trial = problem.loglik(probs_trial)
            if value_trial > value:
                theta, x, probs, value = trial, x_trial, probs_trial, value_trial
                accepted = True
                break
            if scale == 1.0 and value_trial >= value - flat_guard:
                # objective flat at float precision: take the full step if it
                # still shrinks the score, which is where Newton endgames live
                g_trial, _ = problem.gradient_and_info(x_trial, probs_trial)
                if np.max(np.abs(g_trial[problem.free])) < 0.5 * gnorm:
                    theta, x, probs, value = trial, x_trial, probs_trial, value_trial
                    accepted = True
                    break
            scale *= 0.5
        if accepted:
            failures = 0
        else:
            failures += 1
            if failures > 2 * SCORING_FAILURE_LIMIT:
                break
    g_theta, _ = problem.gradient_and_info(x, probs)
    gnorm = float(np.max(np.abs(g_theta[problem.free])))
    if gnorm < MSTEP_GTOL_ACCEPT:
        return theta, _floored(probs)
    raise NumericalError(
        f"constrained M-step stalled with gradient norm {gnorm:.3e}", residual=gnorm
    )


# -- EM driver -------------------------------------------------------------------


@dataclass
class _EmState:
    delta: np.ndarray
    theta: np.ndarray
    model: MhmmModel
    log_lik: float


def _probs_of(space, values):
    try:
        return table_from_interactions(InteractionTable(space, values))
    except DomainError as exc:
        # boundary trips during fitting are a numerical condition, restartable
        raise NumericalError(str(exc)) from exc


def em_fit(
    latent_scheme: VariableScheme,
    obs_scheme: VariableScheme,
    constraints: ConstraintSet,
    series: ObservedSeries,
    options: FitOptions | None = None,
    label: str = "",
) -> FitResult:
    """Fit a constrained model by EM with random restarts.

    Restart r draws free starting coordinates uniformly in [-0.5, 0.5] from
    a generator seeded by (seed, r), so results are reproducible and
    independent of scheduling. The best final log-likelihood wins. After
    fitting, latent state labels are put in canonical order.
    """
    options = options or FitOptions()
    if series.scheme != obs_scheme:
        raise DomainError("series scheme does not match the observable scheme")
    dspace = InteractionSpace(latent_scheme, latent_scheme, "delta")
    tspace = InteractionSpace(obs_scheme, latent_scheme, "theta")
    dmask = constraints.mask(dspace)
    tmask = constraints.mask(tspace)

    best = None
    best_restart = -1
    best_trace = None
    best_iters = 0
    best_converged = False
    errors: list[str] = []
    for restart in range(options.restarts):
        rng = np.random.default_rng([options.seed, restart])
        delta0 = rng.uniform(-0.5, 0.5, dmask.shape)
        delta0[dmask] = 0.0
        theta0 = rng.uniform(-0.5, 0.5, tmask.shape)
        theta0[tmask] = 0.0
        try:
            state, trace, iters, converged = _run_em(
                latent_scheme, obs_scheme, dspace, tspace, dmask, tmask,
                delta0, theta0, series, options,
            )
        except NumericalError as exc:
            errors.append(f"restart {restart}: {exc}")
            continue
        if best is None or state.log_lik > best.log_lik:
            best = state
            best_restart = restart
            best_trace = trace
            best_iters = iters
            best_converged = converged
    if best is None:
        raise NumericalError(
            "every EM restart failed numerically: " + "; ".join(errors[:3])
        )

    model, delta_values, theta_values = _canonicalize(
        best.model, best.delta, best.theta, dspace, tspace, dmask, tmask
    )
    par = count_free_parameters(latent_scheme, obs_scheme, constraints)
    return FitResult(
        model=model,
        delta=InteractionTable(dspace, delta_values),
        theta=InteractionTable(tspace, theta_values),
        constraints=constraints,
        log_lik=best.log_lik,
        iterations=best_iters,
        converged=best_converged,
        em_trace=np.asarray(best_trace),
        par=par,
        data_fingerprint=series.fingerprint,
        label=label,
        seed=options.seed,
        best_restart=best_restart,
    )


def _run_em(
    latent_scheme, obs_scheme, dspace, tspace, dmask, tmask,
    delta_values, theta_values, series, options,
):
    def make_state(delta, theta, dprobs, tprobs):
        model = MhmmModel.from_tables(
            latent_scheme, obs_scheme, _floored(dprobs), _floored(tprobs)
        )
        gamma, xi, log_lik = forward_backward(model, series)
        return _EmState(delta, theta, model, log_lik), gamma, xi

    state, gamma, xi = make_state(
        delta_values,
        theta_values,
        _probs_of(dspace, delta_values),
        _probs_of(tspace, theta_values),
    )
    trace = [state.log_lik]
    converged = False
    iterations = 0
    f_idx = series.state_indices
    nf = obs_scheme.n_states
    for iterations in range(1, options.max_iter + 1):
        counts_trans = xi.sum(axis=0) if len(xi) else np.ones_like(state.model.transition)
        counts_emit = np.zeros((latent_scheme.n_states, nf))
        np.add.at(counts_emit.T, f_idx, gamma)

        delta_new, dprobs = constrained_m_step(dspace, counts_trans, dmask, warm=state.delta)
        theta_new, tprobs = constrained_m_step(tspace, counts_emit, tmask, warm=state.theta)

        candidate, gamma_new, xi_new = make_state(delta_new, theta_new, dprobs, tprobs)
        guard = 1e-12 * (1.0 + abs(state.log_lik))
        halvings = 0
        while candidate.log_lik < state.log_lik - guard and halvings < 30:
            delta_new = 0.5 * (delta_new + state.delta)
            theta_new = 0.5 * (theta_new + state.theta)
            candidate, gamma_new, xi_new = make_state(
                delta_new, theta_new, _probs_of(dspace, delta_new), _probs_of(tspace, theta_new)
            )
            halvings += 1
        if candidate.log_lik < state.log_lik - guard:
            # no damped step keeps the likelihood from falling: a stall
            break
        gain = candidate.log_lik - state.log_lik
        state, gamma, xi = candidate, gamma_new, xi_new
        trace.append(state.log_lik)
        if gain <= options.tol * (1.0 + abs(state.log_lik)):
            converged = True
            break
    return state, trace, iterations, converged


# -- canonical state labels ---------------------------------------------------------


def canonical_state_orders(model: MhmmModel) -> list[tuple[int, ...]]:
    """Per latent variable, the state order making the emission probability
    of the first observable's first category non-increasing, with later
    observables breaking ties."""
    first_cat = np.zeros((model.latent_scheme.n_states, model.obs_scheme.size))
    for j in range(model.obs_scheme.size):
        cols = [
            k for k, cats in enumerate(model.obs_scheme.states) if cats[j] == 1
        ]
        first_cat[:, j] = model.emission[:, cols].sum(axis=1)
    orders = []
    states = model.latent_scheme.states
    for i, (_, count) in enumerate(model.latent_scheme.variables):
        scores = np.zeros((count, model.obs_scheme.size))
        hits = np.zeros(count)
        for k, state in enumerate(states):
            v = state[i] - 1
            scores[v] += first_cat[k]
            hits[v] += 1
        scores /= hits[:, None]
        order = sorted(range(count), key=lambda v: tuple(-scores[v]))
        orders.append(tuple(c + 1 for c in order))
    return orders


def relabel_states(model: MhmmModel, orders) -> MhmmModel:
    """Apply per-variable state orders; order[i][new - 1] gives the old
    category that becomes category new. The likelihood is unchanged."""
    scheme = model.latent_scheme
    src = np.empty(scheme.n_states, dtype=int)
    for k, state in enumerate(scheme.states):
        old = tuple(orders[i][c - 1] for i, c in enumerate(state))
        src[k] = scheme.state_index(old)
    return MhmmModel(
        latent_scheme=scheme,
        obs_scheme=model.obs_scheme,
        transition=model.transition[np.ix_(src, src)],
        emission=model.emission[src, :],
        initial=model.initial[src],
    )


def _canonicalize(model, delta_values, theta_values, dspace, tspace, dmask, tmask):
    """Put states in canonical order and re-derive coefficients.

    Graph, additivity and association restrictions zero whole margin pairs
    and survive state relabeling exactly, so the re-derived coefficients are
    snapped to zero on the constrained coordinates. Exotic single-block user
    restrictions may not survive; in that case the fitted labeling is kept.
    """
    orders = canonical_state_orders(model)
    if all(order == tuple(range(1, len(order) + 1)) for order in orders):
        return model, delta_values, theta_values
    relabeled = relabel_states(model, orders)
    new_delta = interactions_from_table(dspace, relabeled.transition).values
    new_theta = interactions_from_table(tspace, relabeled.emission).values
    if np.max(np.abs(new_delta[dmask]), initial=0.0) > 1e-6:
        return model, delta_values, theta_values
    if np.max(np.abs(new_theta[tmask]), initial=0.0) > 1e-6:
        return model, delta_values, theta_values
    new_delta[dmask] = 0.0
    new_theta[tmask] = 0.0
    return relabeled, new_delta, new_theta
