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

The M-step runs in lock-step over count tables that share a space and a
zero mask (batched_m_step; constrained_m_step is its one-table case). Each
stage of the iteration is one stacked computation over the tables still
iterating, while every decision (observed or ridged expected information,
the solve, the line search, the exit) is taken per table. Each Newton
iteration scores its running tables once, at its top, and the score feeds
both the exit test and the step; the line search scores a trial point only
to test a flat objective, and keeps nothing. A matrix product
whose rounding depends on how many rows it spans is formed per table (see
interactions._by_block), so each table's solution equals its lone solve
bitwise, and one table's failure leaves the others unchanged. Every
stacked kernel returns its per-row or per-block errors rather than raising
(the contrast inversion _invert_rows per table, batched_m_step and the
E-step per row), and one helper, interactions._linalg_blocks, locates a
numpy.linalg failure inside a stack: numpy raises for the whole stack, and
only then the helper reruns the function once per block.

The chart map from coefficients to probabilities has no closed form, so a
Newton iteration inverts it (interactions._invert_rows). Every M-step
starts at a chart point: coefficients together with the free
log-probabilities x that carry them. EM keeps that point with each iterate:
the x of the inversion that built a start's or a damped midpoint's table
(_probs_of), or the x where an M-step's Newton iteration ended. A call
without a start begins at the uniform law, where both are zero; the chart
point of any other coefficients is interactions._chart_of, the one
inversion from the uniform law.

A damping guard keeps the recorded trace monotone despite the ignored
initial-law term: a row whose candidate would decrease the observed-data
log-likelihood evaluates, in its next round, the midpoint between that
candidate and its accepted iterate instead. When 30 halvings do not avoid a
decrease, the row stops and reports that it did not converge.

EM runs in lock-step rounds over rows. A row is one restart of one problem,
and a problem is one constrained fit of the series with its own spaces,
masks, label and FitOptions; em_fit fits one problem, modelspec.fit_specs
several. Each round makes one batched E-step (model.expected_counts) over
the pending candidates of every row that shares a latent scheme, whether
start, M-step proposal or damped midpoint, then one batched M-step per group
of the rows that go on and share a space (by content) and a zero mask,
transition tables first. Only iterates that EM goes on from get expected
counts: the stop rule (verdict) is applied once per candidate, in the E-step
callback right after each row's forward pass, and its answer is stored on
the candidate, so a row that stops, or a candidate to be damped, costs a
forward pass and no backward pass. An E-step stack is cut into chunks of at
most ESTEP_STACK_BYTES of recursion buffers, but never below the largest
restart count among its problems; an M-step stack into chunks whose k x k
matrices fit in the same budget, never below one row. A row leaves the
batch at its own max_iter or tol, or when it stalls or fails. Each row of a
batched E-step or M-step equals the single-row computation bitwise, so
every restart, the winner and the written artifacts are the same as with
problems and restarts fitted one after another; a FitResult records how
each restart ended.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintSet, count_free_parameters, total_parameter_count
from .errors import DomainError, NumericalError
from .interactions import (
    InteractionSpace,
    InteractionTable,
    _chart_of,
    _invert_rows,
    _jacobian_rows,
    _linalg_blocks,
    _softmax_rows,
    contrasts_from_table,
    interactions_from_table,
)
from . import model as _model
from .model import MhmmModel, ObservedSeries, expected_counts, recursion_bytes
from .schemes import VariableScheme

MSTEP_GTOL = 1e-7
MSTEP_GTOL_ACCEPT = 1e-5
MSTEP_MAX_ITER = 200
MSTEP_MAX_HALVINGS = 25
# Newton iterations of a line-search trial's inversion. A trial starts at its
# iterate's point and Jacobians, so a reachable trial converges in a few; one
# that has not within these is counted as not inverted, and the step halves.
MSTEP_TRIAL_INVERSION_ITER = 8

# Bytes of the forward-backward buffers that one stacked E-step may hold:
# b, alpha and beta, at most model.recursion_bytes a row (rows whose counts
# are not wanted get no beta). Beyond them an E-step holds one block of the
# stack's pair posteriors, of at most model.PAIR_BLOCK_BYTES, and, for one
# row at a time, its gamma (T n floats). A stack of rows is cut into chunks
# of this size, but never below the largest restart count among its
# problems, since one such fit already holds that many rows at once. A
# stacked M-step keeps its k x k matrices within the same budget.
ESTEP_STACK_BYTES = 32 * 2**20


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

    @property
    def dim(self) -> int:
        """Coordinates actually estimated: the free entries of the delta and
        theta masks. par tallies an invariant-association zero again where a
        graph zero already sits (see constraints.py), so par <= dim."""
        cs = self.constraints
        return total_parameter_count(cs.latent_scheme, cs.obs_scheme) - cs.distinct_count()


# Keeps EM iterates safely interior; a cell this small carries no data anyway.
# Each table is floored once, where its iterate is made: by the M-step
# (batched_m_step), or by _probs_of for start and damped iterates.
EM_FLOOR = 1e-8


def _floored(probs: np.ndarray) -> np.ndarray:
    out = np.maximum(probs, EM_FLOOR)
    return out / out.sum(axis=-1, keepdims=True)


class _MStepProblem:
    """Expected multinomial log-likelihood over free interaction coordinates.

    counts is one table (n_cond, n_cells) or a stack of tables (rows,
    n_cond, n_cells) that share the space and mask. The methods take and
    return arrays with the same leading row axis, and each row of a result
    equals bitwise the result for its table alone.
    """

    def __init__(self, space: InteractionSpace, counts: np.ndarray, mask: np.ndarray):
        counts = np.asarray(counts, dtype=float)
        n_cond, n_cells = space.condition.n_states, space.response.n_states
        if counts.shape[-2:] != (n_cond, n_cells):
            raise DomainError(
                f"count table shape {counts.shape[-2:]}, expected {(n_cond, n_cells)}"
            )
        if not np.all(np.isfinite(counts)):
            raise DomainError("count table has non-finite entries")
        if np.any(counts < 0):
            raise DomainError("count table has negative entries")
        self.space = space
        self.counts = counts
        self.totals = counts.sum(axis=-1)
        if np.any(self.totals <= 0):
            raise DomainError("every conditioning state needs positive total count")
        self.mask = np.asarray(mask, dtype=bool)
        self.free = ~self.mask.ravel()
        self.m = space.n_columns

    def take(self, rows) -> "_MStepProblem":
        """The problem on the given rows of a stack of tables."""
        part = copy.copy(self)
        part.counts, part.totals = self.counts[rows], self.totals[rows]
        return part

    def solve_states(self, theta_values: np.ndarray, x0: np.ndarray, jac0: np.ndarray):
        """Free log-probabilities carrying the coefficient rows theta_values,
        in blocks of n_cond rows, one block per table, and the errors of the
        blocks that failed (see _invert_rows), starting from x0, with the
        contrast Jacobians jac0 at x0. A block fails too when it needs more
        than MSTEP_TRIAL_INVERSION_ITER Newton iterations."""
        n_cond = self.space.condition.n_states
        eta = self.space.zeta @ theta_values.reshape(-1, n_cond, self.m)
        rows = eta.reshape(-1, self.m)
        return _invert_rows(self.space, rows, x0, n_cond, jac0, max_iter=MSTEP_TRIAL_INVERSION_ITER)

    def loglik(self, probs: np.ndarray):
        return np.sum(self.counts * np.log(probs), axis=(-2, -1))

    def score(self, probs: np.ndarray):
        """Score in interaction coordinates, g = zeta^T H with h_e = J_e^-T g_e.

        Returns (g_theta, j_inv, h, jac); gradient_and_info reuses the
        stacked inverse blocks j_inv and the rows h of H, and the line search
        starts its inversions from the Jacobian blocks jac.
        """
        jac = _jacobian_rows(self.space, probs)
        j_inv = np.linalg.inv(jac)
        g_x = self.counts[..., 1:] - self.totals[..., None] * probs[..., 1:]
        h = (g_x[..., None, :] @ j_inv)[..., 0, :]
        g_theta = self.space.zeta.T @ h
        return g_theta.reshape(*h.shape[:-2], -1), j_inv, h, jac

    def gradient_and_info(self, probs: np.ndarray, _curvature: bool = False, _score=None):
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
        g_theta, j_inv, h = (self.score(probs) if _score is None else _score)[:3]
        lead, n_cond, m = probs.shape[:-2], probs.shape[-2], self.m
        p_free = probs[..., 1:]
        j_inv_t = j_inv.swapaxes(-1, -2)
        u = (p_free[..., None, :] @ j_inv)[..., 0, :]
        w = j_inv_t @ (p_free[..., :, None] * j_inv)
        w = self.totals[..., None, None] * (w - u[..., :, None] * u[..., None, :])
        if _curvature:
            w += j_inv_t @ self._curvature_blocks(probs, h) @ j_inv
        zeta = self.space.zeta
        pairs = (zeta[:, :, None] * zeta[:, None, :]).reshape(n_cond, -1)
        info = (pairs.T @ w.reshape(*lead, n_cond, -1)).reshape(*lead, n_cond, n_cond, m, m)
        info_theta = info.swapaxes(-3, -2).reshape(*lead, n_cond * m, n_cond * m)
        return g_theta, info_theta

    def _curvature_blocks(self, probs: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Hessian in free log-probabilities x_e of sum_i h_e[i] eta_e[i](x_e).

        eta_e = C log(M p_e). With mg_e = M p_e, r_e = (C^T h_e) / mg_e, M_f
        the free columns of M and pw_e = p_f (M_f^T r_e), the chain rule
        gives S_e - G_e^T diag(r_e / mg_e) G_e, where S_e = diag(pw_e) -
        pw_e p_f^T - p_f pw_e^T and G_e = M dp_e/dx_e = (M_f - mg_e 1^T)
        diag(p_f). Every contrast row sums to zero, so r_e . mg_e = 0 and the
        rank-one terms cancel, leaving diag(pw_e) - diag(p_f) M_f^T
        diag(r_e / mg_e) M_f diag(p_f). Sandwiched by J_e^-1 it is the
        observed minus the expected information of state e; it vanishes
        where the score does.
        """
        marg_free, p_free = self.space.marginalizer[:, 1:], probs[..., 1:]
        mg = probs @ self.space.marginalizer.T
        ratio = (h @ self.space.contrast) / mg
        weighted = (marg_free.T * (ratio / mg)[..., None, :]) @ marg_free
        out = -p_free[..., :, None] * weighted * p_free[..., None, :]
        diag = np.arange(self.m)
        out[..., diag, diag] += p_free * (ratio @ marg_free)
        return out


def constrained_m_step(
    space: InteractionSpace,
    counts: np.ndarray,
    mask: np.ndarray,
):
    """Maximize sum(counts * log p) subject to zeroed interaction coordinates.

    Returns (theta_values, probs). With no active constraints the solution
    is the row-normalized count table. Otherwise a Newton iteration runs on
    the free coordinates with step halving: the step uses the observed
    information where its free block is positive definite (a Cholesky
    factorization succeeds) and the ridged expected information otherwise.
    When that step's line search fails, one gradient step is tried from the
    same point; when that fails too, the iteration stops, since retrying
    from an unchanged point would repeat the same computation. The
    iteration also stops once the score norm in the free coordinates falls
    below MSTEP_GTOL, or after MSTEP_MAX_ITER iterations; both are read at
    call time. Raises NumericalError unless that norm ends below
    max(MSTEP_GTOL, MSTEP_GTOL_ACCEPT). This is batched_m_step on one table,
    started at the uniform law.
    """
    (result,) = batched_m_step(space, np.asarray(counts, dtype=float)[None], mask)
    if isinstance(result, NumericalError):
        raise result
    return result[:2]


def batched_m_step(
    space: InteractionSpace,
    counts: np.ndarray,
    mask: np.ndarray,
    start: tuple | None = None,
) -> list:
    """constrained_m_step on a stack of count tables that share a space and mask.

    counts stacks the tables (rows, n_cond, n_cells). The rows run in
    lock-step: each stage of the iteration is one stacked computation over
    the rows still iterating, while every decision (observed or ridged
    expected information, solve, line search, exit) is taken per row.
    Returns, per row, (theta_values, probs, x) or the NumericalError that
    constrained_m_step raises on that table alone, where x holds the free
    log-probabilities the iteration ended at (None for the closed form);
    each row equals that lone call bitwise, under the same MSTEP_GTOL and
    MSTEP_MAX_ITER. Rows are solved in chunks whose k x k matrices fit in
    ESTEP_STACK_BYTES, never below one row.

    The iteration starts at the chart point start = (theta, x), both of
    shape (rows, n_cond, n_columns): starting coefficients, zero on mask,
    and the free log-probabilities that carry them (see the module
    docstring). Without a start it begins at the uniform law, theta = x = 0.
    The closed form ignores start. Raises DomainError on invalid counts or
    a malformed start, and, before allocating, on an M-step too large to
    hold (see _refuse_oversized_m_step).
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 3:
        raise DomainError(f"stacked count tables need three axes, got shape {counts.shape}")
    problem = _MStepProblem(space, counts, mask)
    _refuse_oversized_m_step(space, problem.mask)
    shape = (len(counts), *problem.mask.shape)
    if start is None:
        theta, x = np.zeros(shape), np.zeros(shape)
    else:
        theta, x = (np.array(a, dtype=float) for a in start)
        if theta.shape != shape or x.shape != shape:
            raise DomainError(f"start of shapes {theta.shape} and {x.shape}, expected {shape}")
        if np.any(theta[:, problem.mask] != 0.0):
            raise DomainError("start coefficients are not zero on the zero mask")
    if not problem.mask.any():
        probs = _floored(problem.counts / problem.totals[..., None])
        theta = space.moebius @ contrasts_from_table(space, probs)
        return [(theta_r, probs_r, None) for theta_r, probs_r in zip(theta, probs)]
    # the informations hold up to three k x k matrices a row at once
    size = max(1, ESTEP_STACK_BYTES // (3 * 8 * problem.mask.size**2))
    out = []
    for lo in range(0, len(counts), size):
        chunk = slice(lo, lo + size)
        out += _newton_rows(problem.take(chunk), theta[chunk], x[chunk])
    return out


def _refuse_oversized_m_step(space: InteractionSpace, mask: np.ndarray) -> None:
    """Raise DomainError when an M-step on space under mask would hold more
    than model.RECURSION_BYTES in the dense marginalizer plus contrast or,
    where mask zeroes a coordinate, in one row's three k x k informations
    (k = mask.size). The sizes come from the schemes, so nothing is
    allocated first."""
    margin_cells = math.prod(c + 1 for c in space.response.counts) - 1
    operators = 8 * margin_cells * (space.response.n_states + space.n_columns)
    sizes = {"the marginalizer and contrast": operators}
    if np.any(mask):
        sizes["one row's k x k informations"] = 3 * 8 * np.size(mask) ** 2
    for what, size in sizes.items():
        if size > _model.RECURSION_BYTES:
            raise DomainError(
                f"M-step on the {space.kind} space of ({space.response}) given "
                f"({space.condition}): {what} need {size:,} bytes, above the limit "
                f"of {_model.RECURSION_BYTES:,}"
            )


@dataclass
class _Iterates:
    """Per-row iterates of a lock-step M-step: coefficients, free
    log-probabilities, distributions, objective and score norm."""

    theta: np.ndarray
    x: np.ndarray
    probs: np.ndarray
    value: np.ndarray
    gnorm: np.ndarray

    def move(self, rows, theta, x, probs, value):
        self.theta[rows], self.x[rows], self.probs[rows], self.value[rows] = theta, x, probs, value


def _newton_rows(problem: _MStepProblem, theta: np.ndarray, x: np.ndarray) -> list:
    """The iteration of constrained_m_step on every row of problem in
    lock-step, from the chart point (theta, x), x the free
    log-probabilities that carry theta; each iteration scores its running
    rows once."""
    rows = len(theta)
    probs = _softmax_rows(x)
    it = _Iterates(theta, x, probs, problem.loglik(probs), np.full(rows, np.inf))
    free = problem.free
    running = np.arange(rows if free.any() else 0)
    for iteration in range(MSTEP_MAX_ITER + 1):
        if running.size == 0:
            break
        part = problem.take(running)
        score = part.score(it.probs[running])
        g_free = score[0][:, free]
        it.gnorm[running] = np.max(np.abs(g_free), axis=1)
        stepping = ~(it.gnorm[running] < MSTEP_GTOL)
        if iteration == MSTEP_MAX_ITER or not stepping.any():
            break
        if not stepping.all():
            running, g_free = running[stepping], g_free[stepping]
            part, score = part.take(stepping), tuple(s[stepping] for s in score)
        newton, solved = _newton_steps(part, it.probs[running], score, g_free)
        gradient = g_free / np.maximum(it.gnorm[running], 1.0)[:, None]
        # score[3], the Jacobians at the iterates, gets no name that would outlive the iteration
        steps = np.where(solved[:, None], newton, gradient)
        moved = _line_search(problem, it, running, steps, score[3])
        retry = ~moved & solved
        if retry.any():
            moved[retry] = _line_search(problem, it, running[retry], gradient[retry], score[3][retry])
        running = running[moved]
    accept = max(MSTEP_GTOL, MSTEP_GTOL_ACCEPT)
    out = []
    for r, probs_r in enumerate(_floored(it.probs)):
        gnorm = float(it.gnorm[r])
        if not free.any() or gnorm < accept:
            out.append((it.theta[r], probs_r, it.x[r]))
        else:
            out.append(NumericalError(f"constrained M-step stalled with gradient norm {gnorm:.3e}"))
    return out


def _newton_steps(part: _MStepProblem, probs: np.ndarray, score: tuple, g_free: np.ndarray):
    """Newton steps in the free coordinates for the rows of part at probs,
    whose score (as _MStepProblem.score returns it) the caller has, with the
    observed information where its free block has a Cholesky factor and the
    ridged expected information otherwise. Returns the steps and whether
    each row's solve succeeded."""
    free = np.flatnonzero(part.free)
    n = free.size
    _, info = part.gradient_and_info(probs, _curvature=True, _score=score)
    info_free = info[np.ix_(np.arange(len(probs)), free, free)]
    del info
    # keep only the flags: holding the factors through the solve raises peak memory
    fisher = np.flatnonzero(~_linalg_blocks(np.linalg.cholesky, info_free)[1])
    if fisher.size:
        _, info = part.take(fisher).gradient_and_info(
            probs[fisher], _score=tuple(s[fisher] for s in score[:3])
        )
        info_free[fisher] = info[np.ix_(np.arange(fisher.size), free, free)]
        del info
        for i in fisher:
            info_i = info_free[i]
            info_i.flat[:: n + 1] += 1e-10 * (1.0 + np.trace(info_i) / n)
    steps, solved = _linalg_blocks(np.linalg.solve, info_free, g_free[..., None])
    return steps[..., 0], solved


def _line_search(
    problem: _MStepProblem, it: _Iterates, rows: np.ndarray, steps: np.ndarray, jac: np.ndarray
):
    """Halve each row's step until its objective rises, at most
    MSTEP_MAX_HALVINGS times; the rows still searching share one scale.
    Inversions start from the iterates, with their Jacobians jac from score.

    A row whose trial point fails to invert halves too. A full step that
    leaves the objective flat at float precision is accepted when it shrinks
    the score norm by half; that test scores the trial point and keeps
    nothing, since the next iteration scores its rows afresh. An accepted
    point replaces the row's iterate in it. Returns whether each row moved.
    """
    n_cond, m = it.theta.shape[1:]
    free = problem.free
    value, gnorm = it.value[rows], it.gnorm[rows]
    flat_guard = 1e-12 * (1.0 + np.abs(value))
    moved = np.zeros(rows.size, dtype=bool)
    pending = np.arange(rows.size)
    scale = 1.0
    for _ in range(MSTEP_MAX_HALVINGS):
        at = rows[pending]
        trial = it.theta[at]
        trial.reshape(at.size, -1)[:, free] += scale * steps[pending]
        x_trial, errors = problem.solve_states(
            trial.reshape(-1, m), it.x[at].reshape(-1, m), jac[pending].reshape(-1, m, m)
        )
        inverted = np.ones(at.size, dtype=bool)
        inverted[list(errors)] = False
        x_trial = x_trial.reshape(at.size, n_cond, m)[inverted]
        trial, tried = trial[inverted], pending[inverted]
        probs_trial = _softmax_rows(x_trial)
        value_trial = problem.take(rows[tried]).loglik(probs_trial)
        rises = value_trial > value[tried]
        if scale == 1.0:
            # objective flat at float precision: take the full step if it
            # still shrinks the score, which is where Newton endgames live
            flat = np.flatnonzero(~rises & (value_trial >= value[tried] - flat_guard[tried]))
            if flat.size:
                g_flat = problem.take(rows[tried[flat]]).score(probs_trial[flat])[0]
                shrinks = np.max(np.abs(g_flat[:, free]), axis=1) < 0.5 * gnorm[tried[flat]]
                rises[flat[shrinks]] = True
        moves = tried[rises]
        it.move(rows[moves], trial[rises], x_trial[rises], probs_trial[rises], value_trial[rises])
        moved[moves] = True
        pending = pending[~moved[pending]]
        if pending.size == 0:
            break
        scale *= 0.5
    return moved


# -- EM driver -------------------------------------------------------------------


@dataclass
class _EmState:
    delta: np.ndarray
    theta: np.ndarray
    model: MhmmModel
    chart: tuple  # (delta, theta) free log-probabilities x that carry the coefficients
    log_lik: float = np.nan
    counts: tuple | None = None  # (transition, emission) expected counts
    verdict: str | None = None  # what EM does with this iterate (see _run_em.verdict)


@dataclass
class _Problem:
    """One constrained fit of a series: spaces, zero masks, options, label."""

    latent_scheme: VariableScheme
    obs_scheme: VariableScheme
    constraints: ConstraintSet
    options: FitOptions
    label: str
    dspace: InteractionSpace
    tspace: InteractionSpace
    dmask: np.ndarray
    tmask: np.ndarray

    @classmethod
    def build(cls, latent_scheme, obs_scheme, constraints, series, options=None, label=""):
        if series.scheme != obs_scheme:
            raise DomainError("series scheme does not match the observable scheme")
        dspace = InteractionSpace(latent_scheme, latent_scheme, "delta")
        tspace = InteractionSpace(obs_scheme, latent_scheme, "theta")
        dmask, tmask = constraints.mask(dspace), constraints.mask(tspace)
        _refuse_oversized_m_step(dspace, dmask)
        _refuse_oversized_m_step(tspace, tmask)
        return cls(
            latent_scheme, obs_scheme, constraints, options or FitOptions(), label,
            dspace, tspace, dmask, tmask,
        )

    def start(self, restart: int):
        """Free starting coordinates of a restart, uniform in [-0.5, 0.5]."""
        rng = np.random.default_rng([self.options.seed, restart])
        delta0 = rng.uniform(-0.5, 0.5, self.dmask.shape)
        delta0[self.dmask] = 0.0
        theta0 = rng.uniform(-0.5, 0.5, self.tmask.shape)
        theta0[self.tmask] = 0.0
        return delta0, theta0


@dataclass
class _Restart:
    """Progress of one (problem, restart) row through the lock-step EM."""

    problem: _Problem
    restart: int
    state: _EmState | None = None  # last accepted iterate
    trace: list = field(default_factory=list)
    iterations: int = 0
    halvings: int = 0  # damped midpoints since the last accepted iterate
    stop_reason: str = "max_iter"
    error: str | None = None

    def record(self) -> RestartRecord:
        log_lik = np.nan if self.state is None else self.state.log_lik
        stop_reason = self.stop_reason if self.error is None else "error"
        return RestartRecord(
            self.restart, log_lik, self.iterations, stop_reason, self.error,
            np.asarray(self.trace),
        )


def _probs_of(space, values):
    """(floored table, x) of an iterate's coefficients, x the free
    log-probabilities of the inversion that solved for the table."""
    try:
        x, probs = _chart_of(InteractionTable(space, values))
    except DomainError as exc:
        # boundary trips during fitting are a numerical condition, restartable
        raise NumericalError(str(exc)) from exc
    return _floored(probs), x


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
    problem = _Problem.build(latent_scheme, obs_scheme, constraints, series, options, label)
    return _fit_problems([problem], series)[0]


def _fit_problems(problems: list[_Problem], series: ObservedSeries) -> list[FitResult]:
    """Fit several problems of one series in lock-step; one FitResult each,
    equal bitwise to em_fit on the problem alone. Raises the NumericalError
    of the first problem, in order, whose every restart failed."""
    return [_fit_result(runs, series) for runs in _run_em(problems, series)]


def _fit_result(runs: list[_Restart], series: ObservedSeries) -> FitResult:
    """The best restart of one problem, with canonical state labels."""
    problem = runs[0].problem
    fitted = [run for run in runs if run.error is None]
    if not fitted:
        raise NumericalError(
            "every EM restart failed numerically: "
            + "; ".join(f"restart {run.restart}: {run.error}" for run in runs[:3])
        )
    best = max(fitted, key=lambda run: run.state.log_lik)
    records = tuple(run.record() for run in runs)
    model, delta_values, theta_values = _canonicalize(
        best.state.model, best.state.delta, best.state.theta,
        problem.dspace, problem.tspace, problem.dmask, problem.tmask,
    )
    return FitResult(
        model=model,
        delta=InteractionTable(problem.dspace, delta_values),
        theta=InteractionTable(problem.tspace, theta_values),
        constraints=problem.constraints,
        log_lik=best.state.log_lik,
        iterations=best.iterations,
        stop_reason=best.stop_reason,
        em_trace=records[best.restart].trace,
        par=count_free_parameters(problem.latent_scheme, problem.obs_scheme, problem.constraints),
        data_fingerprint=series.fingerprint,
        label=problem.label,
        seed=problem.options.seed,
        best_restart=best.restart,
        restarts=records,
    )


def _stack_rows(problems: list[_Problem], length: int) -> dict:
    """Rows per stacked E-step for each latent scheme: as many as
    ESTEP_STACK_BYTES holds at model.recursion_bytes a row (b, alpha, beta),
    and at least the scheme's largest restart count; model.RECURSION_BYTES
    refuses a stack that would still be too large. The E-step's per-row gamma and
    pair block come on top, once per stack (see ESTEP_STACK_BYTES)."""
    rows = {}
    for problem in problems:
        scheme = problem.latent_scheme
        in_budget = ESTEP_STACK_BYTES // recursion_bytes(length, scheme.n_states)
        rows[scheme] = max(rows.get(scheme, in_budget), problem.options.restarts)
    return rows


def _run_em(problems: list[_Problem], series: ObservedSeries) -> list[list[_Restart]]:
    """EM for every (problem, restart) row in lock-step rounds; one _Restart
    list per problem.

    A round makes one batched E-step (expected_counts) over every pending
    candidate, start iterates, M-step proposals and damped midpoints alike,
    stacked per latent scheme in chunks of _stack_rows. One rule, verdict,
    decides after each forward pass what the row does with its candidate,
    and the E-step stores the answer on it: accept it and go on (only then
    are expected counts formed), accept it and stop, stall, or halve back
    toward the accepted iterate in the next round. The rows that go on then
    make one batched_m_step per group that shares a space and mask, and
    their proposals join the midpoints as the next round's candidates. A
    row leaves the batch at its problem's max_iter or tol, or when it
    stalls or raises NumericalError. Rows of a batched E-step or M-step
    equal single-row ones bitwise, so every row evaluates the candidates
    it would evaluate alone, in the same order.
    """
    grouped = [[_Restart(p, r) for r in range(p.options.restarts)] for p in problems]
    runs = [run for group in grouped for run in group]
    stack_rows = _stack_rows(problems, len(series))

    def candidate(run, delta, theta, tables=None):
        """The iterate at (delta, theta), or None once the row has failed;
        tables holds the (probs, x) of both tables when an M-step made them."""
        p = run.problem
        try:
            if tables is None:
                tables = _probs_of(p.dspace, delta), _probs_of(p.tspace, theta)
            (dprobs, dx), (tprobs, tx) = tables
            model = MhmmModel(p.latent_scheme, p.obs_scheme, dprobs, tprobs)
        except NumericalError as exc:
            run.error = str(exc)
            return None
        return _EmState(delta, theta, model, (dx, tx))

    def e_step(states: dict) -> dict:
        """Batched E-steps, a chunked stack per latent scheme; drops the
        iterates whose row failed and keeps the order of the others. Each
        iterate gets its log-likelihood and verdict, and only those that EM
        goes on from get expected counts."""

        def needs_counts(i, log_lik):
            states[i].verdict = verdict(i, log_lik)
            return states[i].verdict is None

        stacks = {}
        for i, state in states.items():
            if state is not None:
                stacks.setdefault(runs[i].problem.latent_scheme, []).append(i)
        for scheme, rows in stacks.items():
            size = stack_rows[scheme]
            for chunk in (rows[lo : lo + size] for lo in range(0, len(rows), size)):
                results = expected_counts(
                    [states[i].model for i in chunk], series,
                    lambda r, log_lik, chunk=chunk: needs_counts(chunk[r], log_lik),
                )
                for i, result in zip(chunk, results):
                    if isinstance(result, NumericalError):
                        runs[i].error = str(result)
                    else:
                        counts_trans, counts_emit, states[i].log_lik = result
                        if counts_trans is not None:
                            states[i].counts = counts_trans, counts_emit
        return {
            i: state for i, state in states.items()
            if state is not None and runs[i].error is None
        }

    def m_steps(states: dict) -> dict:
        """Batched M-steps, one batched_m_step call per group of rows that
        share a space and mask, transition tables first, each started at its
        iterate's chart point; returns the candidates of the rows that did
        not fail, in the order of states."""
        fitted = {i: [] for i in states}
        for part in (0, 1):
            groups = {}
            for i in fitted:
                p = runs[i].problem
                space, mask = (p.dspace, p.dmask) if part == 0 else (p.tspace, p.tmask)
                key = (space.kind, space.response, space.condition, mask.shape, mask.tobytes())
                groups.setdefault(key, (space, mask, []))[2].append(i)
            for space, mask, rows in groups.values():
                counts = np.stack([states[i].counts[part] for i in rows])
                start = None  # the closed form, where mask is empty, has no chart point
                if mask.any():
                    start = (
                        np.stack([(states[i].delta, states[i].theta)[part] for i in rows]),
                        np.stack([states[i].chart[part] for i in rows]),
                    )
                for i, result in zip(rows, batched_m_step(space, counts, mask, start)):
                    if isinstance(result, NumericalError):
                        runs[i].error = str(result)
                        del fitted[i]
                    else:
                        fitted[i].append(result)
        # each M-step result is (coefficients, probs, x)
        return {
            i: candidate(runs[i], dstep[0], tstep[0], (dstep[1:], tstep[1:]))
            for i, (dstep, tstep) in fitted.items()
        }

    def verdict(i, log_lik):
        """What row i does with a candidate of this log-likelihood: None when
        EM goes on from it, "falls" when the row halves back toward its
        accepted iterate, "stalled" when 30 halvings have not kept the
        log-likelihood from falling, else the stop reason ("tol",
        "max_iter") with which the candidate is accepted. A start always
        goes on."""
        run = runs[i]
        if run.state is None:
            return None
        previous = run.state.log_lik
        if log_lik < previous - 1e-12 * (1.0 + abs(previous)):
            return "falls" if run.halvings < 30 else "stalled"
        if log_lik - previous <= run.problem.options.tol * (1.0 + abs(log_lik)):
            return "tol"
        return None if run.iterations < run.problem.options.max_iter else "max_iter"

    pending = {i: candidate(run, *run.problem.start(run.restart)) for i, run in enumerate(runs)}
    while pending:
        going_on, midpoints = {}, {}
        for i, state in e_step(pending).items():
            run = runs[i]
            if state.verdict == "falls":
                run.halvings += 1
                midpoints[i] = candidate(
                    run, 0.5 * (state.delta + run.state.delta), 0.5 * (state.theta + run.state.theta)
                )
                continue
            if state.verdict != "stalled":
                run.state, run.halvings = state, 0
                run.trace.append(state.log_lik)
            if state.verdict is None:
                run.iterations += 1
                going_on[i] = state
            else:
                run.stop_reason = state.verdict
        pending = {**m_steps(going_on), **midpoints}
    return grouped


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
        scheme, model.obs_scheme, model.transition[np.ix_(src, src)], model.emission[src, :]
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
