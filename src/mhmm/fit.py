"""Constrained maximum likelihood fitting by EM.

The E-step runs the scaled forward-backward recursions with the initial law
tied to the transition table as its invariant distribution; the gradient
contribution of that tie is ignored in the M-step, which is the standard
approximation. The M-step maximizes expected multinomial log-likelihoods
over the free interaction coordinates by a Newton step with the observed
information, with an expected-information (Fisher scoring) fallback where
the observed information is not positive definite; zeroed coordinates stay
exactly zero because the free set is an unconstrained chart. The marginal
log-linear chart is not canonical, so the expected information is not the
Hessian and scoring alone converges only linearly. The score and both
informations are assembled block by block over the conditioning states
(see _MStepProblem.gradient_and_info): with n_cond states of m contrasts
each (k = n_cond m coordinates) a step costs O(n_cond k^2 + n_cond m^3)
plus the k x k solve in the free coordinates.

A damping guard interpolates back toward the previous iterate whenever a
full M-step would decrease the observed-data log-likelihood, which keeps the
recorded trace monotone despite the ignored initial-law term. When no damped
step avoids a decrease, the fit stops and reports that it did not converge.

The restarts run in lock-step: each EM iteration makes the per-restart
M-steps, then one batched E-step (model.expected_counts) over every restart
still running, and each damping halving one more over the rows still
decreasing. A restart leaves the batch when it converges, stalls or fails.
Each row of a batched E-step equals the single-model recursion bitwise, so
every restart, the winner and the written artifacts are the same as with
restarts run one after another; a FitResult records how each restart ended.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .model import MhmmModel, ObservedSeries, expected_counts
from .schemes import VariableScheme

MSTEP_GTOL = 1e-7
MSTEP_GTOL_ACCEPT = 1e-5
MSTEP_MAX_ITER = 200
MSTEP_MAX_HALVINGS = 25


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
class RestartRecord:
    """How one EM restart ended.

    stop_reason is "tol" (the relative log-likelihood gain fell below tol),
    "stalled" (no damped step kept the log-likelihood from falling),
    "max_iter", or "error" when the restart raised NumericalError, whose
    message is then in error. log_lik and trace belong to the last accepted
    iterate (log_lik is nan when the first E-step failed); iterations counts
    the EM iterations begun.
    """

    restart: int
    log_lik: float
    iterations: int
    stop_reason: str
    error: str | None
    trace: np.ndarray


@dataclass
class FitResult:
    """Outcome of one constrained EM fit."""

    model: MhmmModel
    delta: InteractionTable
    theta: InteractionTable
    constraints: ConstraintSet
    log_lik: float
    iterations: int
    stop_reason: str
    em_trace: np.ndarray
    par: int
    data_fingerprint: str
    label: str = ""
    seed: int = 0
    best_restart: int = 0
    restarts: tuple[RestartRecord, ...] = ()

    @property
    def converged(self) -> bool:
        """True when the fit stopped on the relative-gain tolerance; the
        winning restart's stop_reason is "tol", "stalled" or "max_iter"."""
        return self.stop_reason == "tol"


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

    def score(self, probs: np.ndarray):
        """Score in interaction coordinates, g = zeta^T H with h_e = J_e^-T g_e.

        Returns (g_theta, j_inv, h); gradient_and_info reuses the stacked
        inverse blocks j_inv and the rows h of H.
        """
        j_inv = np.linalg.inv(_jacobian_rows(self.space, probs))
        g_x = self.counts[:, 1:] - self.totals[:, None] * probs[:, 1:]
        h = (g_x[:, None, :] @ j_inv)[:, 0, :]
        return (self.space.zeta.T @ h).ravel(), j_inv, h

    def gradient_and_info(
        self, x: np.ndarray, probs: np.ndarray, _curvature: bool = False, _score=None
    ):
        """Score and expected information in interaction coordinates.

        With J_e the contrast Jacobian of conditioning state e, the chart map
        has inverse blockdiag(J_e^-1) (zeta kron I_m), so both quantities come
        from per-state m x m blocks: h_e = J_e^-T g_e and
        W_e = J_e^-T I_e J_e^-1, then g = zeta^T H and
        info[(c, p), (d, q)] = sum_e zeta[e, c] W_e[p, q] zeta[e, d].
        With I_e = t_e (diag(p_e) - p_e p_e^T) and u_e = J_e^-T p_e,
        W_e = t_e (J_e^-T diag(p_e) J_e^-1 - u_e u_e^T).

        With _curvature the blocks also carry the second-order term of the
        chart (see _curvature_blocks), which makes info the observed
        information, the negative Hessian of the objective. _score takes the
        result of score(probs) when the caller already has it.
        """
        g_theta, j_inv, h = self.score(probs) if _score is None else _score
        n_cond, m = probs.shape[0], self.m
        p_free = probs[:, 1:]
        u = (p_free[:, None, :] @ j_inv)[:, 0, :]
        w = j_inv.transpose(0, 2, 1) @ (p_free[:, :, None] * j_inv)
        w = self.totals[:, None, None] * (w - u[:, :, None] * u[:, None, :])
        if _curvature:
            w += j_inv.transpose(0, 2, 1) @ self._curvature_blocks(probs, h) @ j_inv
        zeta = self.space.zeta
        pairs = (zeta[:, :, None] * zeta[:, None, :]).reshape(n_cond, -1)
        info = (pairs.T @ w.reshape(n_cond, -1)).reshape(n_cond, n_cond, m, m)
        info_theta = info.transpose(0, 2, 1, 3).reshape(n_cond * m, n_cond * m)
        return g_theta, info_theta

    def _curvature_blocks(self, probs: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Hessian in free log-probabilities x_e of sum_i h_e[i] eta_e[i](x_e).

        eta_e = C log(M p_e), so with mg_e = M p_e, G_e = M dp_e/dx_e,
        c_e = C^T h_e and w_e = M^T (c_e / mg_e) over all cells, this is
        S_e - G_e^T diag(c_e / mg_e^2) G_e, where over free cells
        S_e[a, b] = d_ab p_a (w_a - wbar) - p_a p_b (w_a + w_b - 2 wbar) and
        wbar = p_e . w_e = sum(c_e) = 0, since every contrast row sums to
        zero. Sandwiched by J_e^-1 it is the observed minus the expected
        information of state e; it vanishes where the score does.
        """
        marg, contrast = self.space.marginalizer, self.space.contrast
        p_free = probs[:, 1:]
        mg = probs @ marg.T
        dp = probs[:, :, None] * (np.eye(probs.shape[1])[None, :, 1:] - p_free[:, None, :])
        g = marg @ dp
        ratio = (h @ contrast) / mg
        pw = p_free * (ratio @ marg[:, 1:])
        s = -(pw[:, :, None] * p_free[:, None, :] + p_free[:, :, None] * pw[:, None, :])
        diag = np.arange(self.m)
        s[:, diag, diag] += pw
        return s - g.transpose(0, 2, 1) @ ((ratio / mg)[:, :, None] * g)


def _line_search(problem: _MStepProblem, theta, x, value, step, gnorm):
    """Halve step until the objective rises, at most MSTEP_MAX_HALVINGS times.

    Returns (theta, x, probs, value, scored) at the accepted point, where
    scored is its problem.score result if the flat-objective test had to
    compute it and None otherwise; returns None if no step is accepted.
    """
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
            return trial, x_trial, probs_trial, value_trial, None
        if scale == 1.0 and value_trial >= value - flat_guard:
            # objective flat at float precision: take the full step if it
            # still shrinks the score, which is where Newton endgames live
            scored = problem.score(probs_trial)
            if np.max(np.abs(scored[0][problem.free])) < 0.5 * gnorm:
                return trial, x_trial, probs_trial, value_trial, scored
            del scored
        scale *= 0.5
    return None


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
    is the row-normalized count table. Otherwise a Newton iteration runs on
    the free coordinates with step halving: the step uses the observed
    information where its free block is positive definite (a Cholesky
    factorization succeeds) and the ridged expected information otherwise.
    When that step's line search fails, one gradient step is tried from the
    same point; when that fails too, the iteration stops, since retrying
    from an unchanged point would repeat the same computation. Raises
    NumericalError unless the score norm in the free coordinates ends below
    max(gtol, MSTEP_GTOL_ACCEPT).
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

    free = problem.free
    scored = None
    for iteration in range(max_iter + 1):
        if scored is None:
            scored = problem.score(probs)
        g_free = scored[0][free]
        gnorm = float(np.max(np.abs(g_free)))
        if gnorm < gtol or iteration == max_iter:
            break
        # informations only when a step follows; keep one k x k matrix alive
        # at a time: the largest space sets peak memory
        _, info = problem.gradient_and_info(x, probs, _curvature=True, _score=scored)
        info_free = info[np.ix_(free, free)]
        del info
        try:
            np.linalg.cholesky(info_free)
        except np.linalg.LinAlgError:
            del info_free
            _, info = problem.gradient_and_info(x, probs, _score=scored)
            info_free = info[np.ix_(free, free)]
            del info
            n = info_free.shape[0]
            info_free.flat[:: n + 1] += 1e-10 * (1.0 + np.trace(info_free) / n)
        scored = None
        try:
            steps = [np.linalg.solve(info_free, g_free)]
        except np.linalg.LinAlgError:
            steps = []
        del info_free
        steps.append(g_free / max(gnorm, 1.0))
        for step in steps:
            moved = _line_search(problem, theta, x, value, step, gnorm)
            if moved is not None:
                break
        if moved is None:
            break
        theta, x, probs, value, scored = moved
    if gnorm < max(gtol, MSTEP_GTOL_ACCEPT):
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
    log_lik: float = np.nan
    counts: tuple | None = None  # (transition, emission) expected counts


@dataclass
class _Restart:
    """Progress of one restart through the lock-step EM."""

    state: _EmState | None = None  # last accepted iterate
    trace: list = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = "max_iter"
    error: str | None = None

    def record(self, restart: int) -> RestartRecord:
        log_lik = np.nan if self.state is None else self.state.log_lik
        stop_reason = self.stop_reason if self.error is None else "error"
        return RestartRecord(
            restart, log_lik, self.iterations, stop_reason, self.error, np.asarray(self.trace)
        )


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
    independent of scheduling: the restarts run in lock-step, and each one's
    arithmetic is that of a fit with it alone. The best final log-likelihood
    wins, the first restart on ties. After fitting, latent state labels are
    put in canonical order.
    """
    options = options or FitOptions()
    if series.scheme != obs_scheme:
        raise DomainError("series scheme does not match the observable scheme")
    dspace = InteractionSpace(latent_scheme, latent_scheme, "delta")
    tspace = InteractionSpace(obs_scheme, latent_scheme, "theta")
    dmask = constraints.mask(dspace)
    tmask = constraints.mask(tspace)

    starts = []
    for restart in range(options.restarts):
        rng = np.random.default_rng([options.seed, restart])
        delta0 = rng.uniform(-0.5, 0.5, dmask.shape)
        delta0[dmask] = 0.0
        theta0 = rng.uniform(-0.5, 0.5, tmask.shape)
        theta0[tmask] = 0.0
        starts.append((delta0, theta0))
    runs = _run_em(
        latent_scheme, obs_scheme, dspace, tspace, dmask, tmask, starts, series, options
    )
    fitted = [r for r, run in enumerate(runs) if run.error is None]
    if not fitted:
        raise NumericalError(
            "every EM restart failed numerically: "
            + "; ".join(f"restart {r}: {run.error}" for r, run in enumerate(runs[:3]))
        )
    best_restart = max(fitted, key=lambda r: runs[r].state.log_lik)
    best = runs[best_restart]
    records = tuple(run.record(r) for r, run in enumerate(runs))

    model, delta_values, theta_values = _canonicalize(
        best.state.model, best.state.delta, best.state.theta, dspace, tspace, dmask, tmask
    )
    par = count_free_parameters(latent_scheme, obs_scheme, constraints)
    return FitResult(
        model=model,
        delta=InteractionTable(dspace, delta_values),
        theta=InteractionTable(tspace, theta_values),
        constraints=constraints,
        log_lik=best.state.log_lik,
        iterations=best.iterations,
        stop_reason=best.stop_reason,
        em_trace=records[best_restart].trace,
        par=par,
        data_fingerprint=series.fingerprint,
        label=label,
        seed=options.seed,
        best_restart=best_restart,
        restarts=records,
    )


def _run_em(
    latent_scheme, obs_scheme, dspace, tspace, dmask, tmask, starts, series, options,
) -> list[_Restart]:
    """EM from every (delta, theta) start in lock-step; one _Restart each.

    An iteration makes the per-restart M-steps, then one batched E-step
    (expected_counts) over all candidates; each damping halving makes one
    more over the rows whose log-likelihood still falls. A restart leaves
    the batch when it converges, stalls or raises NumericalError. Rows of a
    batched E-step equal single-model ones bitwise, so every restart follows
    the path it would follow alone.
    """
    runs = [_Restart() for _ in starts]

    def candidate(r, delta, theta, probs=None):
        """The iterate at (delta, theta), or None once restart r has failed."""
        try:
            if probs is None:
                probs = _probs_of(dspace, delta), _probs_of(tspace, theta)
            model = MhmmModel.from_tables(
                latent_scheme, obs_scheme, _floored(probs[0]), _floored(probs[1])
            )
        except NumericalError as exc:
            runs[r].error = str(exc)
            return None
        return _EmState(delta, theta, model)

    def e_step(states: dict) -> dict:
        """One batched E-step; drops the iterates whose restart failed."""
        states = {r: state for r, state in states.items() if state is not None}
        if not states:
            return {}
        results = expected_counts([state.model for state in states.values()], series)
        done = {}
        for (r, state), result in zip(states.items(), results):
            if isinstance(result, NumericalError):
                runs[r].error = str(result)
                continue
            state.counts, state.log_lik = result[:2], result[2]
            done[r] = state
        return done

    def falls(r, state) -> bool:
        previous = runs[r].state.log_lik
        return state.log_lik < previous - 1e-12 * (1.0 + abs(previous))

    def halved(r, state):
        accepted = runs[r].state
        return candidate(
            r, 0.5 * (state.delta + accepted.delta), 0.5 * (state.theta + accepted.theta)
        )

    active = e_step({r: candidate(r, *start) for r, start in enumerate(starts)})
    for r, state in active.items():
        runs[r].state = state
        runs[r].trace.append(state.log_lik)
    for iteration in range(1, options.max_iter + 1):
        if not active:
            break
        proposals = {}
        for r, state in active.items():
            runs[r].iterations = iteration
            try:
                delta, dprobs = constrained_m_step(
                    dspace, state.counts[0], dmask, warm=state.delta
                )
                theta, tprobs = constrained_m_step(
                    tspace, state.counts[1], tmask, warm=state.theta
                )
            except NumericalError as exc:
                runs[r].error = str(exc)
                continue
            proposals[r] = candidate(r, delta, theta, (dprobs, tprobs))
        proposals = e_step(proposals)
        falling = [r for r, state in proposals.items() if falls(r, state)]
        for _ in range(30):
            if not falling:
                break
            retried = e_step({r: halved(r, proposals[r]) for r in falling})
            proposals.update(retried)
            falling = [r for r, state in retried.items() if falls(r, state)]
        active = {}
        for r, state in proposals.items():
            run = runs[r]
            if run.error is not None:
                continue
            if falls(r, state):
                # no damped step keeps the likelihood from falling: a stall
                run.stop_reason = "stalled"
                continue
            gain = state.log_lik - run.state.log_lik
            run.state = state
            run.trace.append(state.log_lik)
            if gain <= options.tol * (1.0 + abs(state.log_lik)):
                run.stop_reason = "tol"
            else:
                active[r] = state
    return runs


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
