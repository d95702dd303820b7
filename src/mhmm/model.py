"""Model objects, likelihood recursions, simulation and file formats.

A model couples a first-order latent chain over the joint states of the
latent scheme with a conditional emission table over the joint categories of
the observable scheme. The initial law is the unique invariant distribution
of the transition table, so a model is fully determined by its two tables.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import io
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError, ParseError
from .schemes import VariableScheme, validate_categories

STOCHASTIC_TOL = 1e-10
# Bytes of (n, n) tables per time step formed at once: the E-step's pair
# posteriors while it sums its transition counts, and the sums behind
# Viterbi's backpointers while it backtracks.
PAIR_BLOCK_BYTES = 2**20
# Largest forward-backward working set of a stack of models
# (recursion_bytes); log_likelihood and viterbi are held to the limit of one
# model's. A longer series, larger latent scheme or wider stack is refused
# before anything is allocated, rather than left to exhaust memory.
# At T=1e6, n=4 and one model (96 MB, a traced E-step peak of 144 MB with
# gamma and temporaries) an E-step took 5.1 s on a 2-CPU VM. At this limit,
# 11 times that size, each E-step of a fit would take about a minute.
RECURSION_BYTES = 2**30
# Time blocks of the forward pass and of Viterbi (see _time_blocks). A block
# after the first starts FORWARD_WARMUP steps early from a guess: the forward
# pass from the uniform law, Viterbi from a flat score at its estimated
# entry level. On 20 windows of a T=100k series of the benchmark's
# generating model the normalized forward recursion forgot that start bit
# for bit within 20-33 steps. On such series Viterbi's blocks met the exact
# scores up to one shift within the warm-up, and only the 7-9 of 157 blocks
# whose scores cross a power of two failed its check. A block that fails
# its check is rerun. Series shorter than FORWARD_BLOCK_MIN_T run as one
# block: below it blocking gains little for small stacks and nothing for
# large ones.
FORWARD_WARMUP = 64
FORWARD_BLOCK_MIN_T = 1000


@dataclass(frozen=True)
class ObservedSeries:
    """A multivariate categorical time series, rows indexed by time."""

    scheme: VariableScheme
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=int)
        validate_categories(self.scheme, data)
        if data.shape[0] == 0:
            raise DomainError("an observed series needs at least one time point")
        object.__setattr__(self, "data", data)
        self.data.setflags(write=False)

    def __len__(self) -> int:
        return self.data.shape[0]

    @cached_property
    def state_indices(self) -> np.ndarray:
        """Flat joint-state index of each row: the mixed-radix number of the
        0-based categories, last variable fastest, as the scheme enumerates
        its states."""
        strides = np.cumprod((1,) + self.scheme.counts[:0:-1])[::-1]
        return (self.data - 1) @ strides

    @cached_property
    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(repr(self.scheme.variables).encode())
        digest.update(repr(self.data.shape).encode())
        digest.update(np.ascontiguousarray(self.data).tobytes())
        return digest.hexdigest()


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Invariant law of a row-stochastic matrix.

    Solves the balance equations with a normalization row and verifies the
    result. Strictly positive transition tables have a unique invariant law.
    """
    a = np.asarray(transition, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n):
        raise DomainError(f"transition table must be square, got {a.shape}")
    a = _check_stochastic("transition", a)
    system = a.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        raise NumericalError("stationary law solve failed; transition table is singular")
    residual = float(np.max(np.abs(pi @ a - pi)))
    if residual > 1e-10 or np.any(pi < -1e-12):
        raise NumericalError(f"invariant law residual {residual:.3e}; chain may be reducible")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _check_stochastic(name: str, table: np.ndarray) -> np.ndarray:
    table = np.asarray(table, dtype=float)
    if not np.all(table >= 0.0):
        raise DomainError(f"{name} table has negative or NaN entries")
    sums = table.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > STOCHASTIC_TOL:
        raise DomainError(
            f"{name} table rows must sum to 1 within {STOCHASTIC_TOL:.0e}; "
            f"worst deviation {np.max(np.abs(sums - 1.0)):.3e}"
        )
    return table / sums[..., None]


@dataclass(frozen=True)
class MhmmModel:
    """Joint-state hidden Markov model over categorical schemes."""

    latent_scheme: VariableScheme
    obs_scheme: VariableScheme
    transition: np.ndarray
    emission: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        ne = self.latent_scheme.n_states
        nf = self.obs_scheme.n_states
        transition = _check_stochastic("transition", self.transition)
        emission = _check_stochastic("emission", self.emission)
        if transition.shape != (ne, ne):
            raise DomainError(f"transition shape {transition.shape}, expected {(ne, ne)}")
        if emission.shape != (ne, nf):
            raise DomainError(f"emission shape {emission.shape}, expected {(ne, nf)}")
        initial = np.asarray(self.initial, dtype=float)
        if initial.shape != (ne,):
            raise DomainError(f"initial law shape {initial.shape}, expected {(ne,)}")
        if not np.all(initial >= 0.0) or abs(initial.sum() - 1.0) > STOCHASTIC_TOL:
            raise DomainError(
                f"initial law must be nonnegative and sum to 1 within {STOCHASTIC_TOL:.0e}"
            )
        if not np.max(np.abs(initial @ transition - initial)) <= 1e-8:
            raise DomainError("initial law is not invariant for the transition table")
        initial = np.clip(initial, 0.0, None)
        initial = initial / initial.sum()
        for name, arr in (("transition", transition), ("emission", emission), ("initial", initial)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_tables(
        cls,
        latent_scheme: VariableScheme,
        obs_scheme: VariableScheme,
        transition: np.ndarray,
        emission: np.ndarray,
    ) -> "MhmmModel":
        """Build a model, deriving the initial law from the transition table."""
        transition = _check_stochastic("transition", transition)
        n = latent_scheme.n_states
        if transition.shape != (n, n):
            raise DomainError(f"transition shape {transition.shape}, expected {(n, n)}")
        return cls(
            latent_scheme=latent_scheme,
            obs_scheme=obs_scheme,
            transition=transition,
            emission=emission,
            initial=stationary_distribution(transition),
        )


# -- likelihood recursions ---------------------------------------------------
#
# One scaled forward-backward recursion (Rabiner 1989) serves every caller. It
# runs over a stack of R models at once: each time step is one stacked matmul
# of (R, 1, n) @ (R, n, n) plus a multiply, a last-axis sum and a divide into
# preallocated buffers, and numpy evaluates each row with the same kernel and
# in the same order as it would a single model, so a row of the stack is
# bitwise the result of that model alone. The forward pass also stacks time
# blocks as rows (_forward), and the same guarantee makes a checked block
# exact.


def _emission_columns(models, series: ObservedSeries, length: int) -> np.ndarray:
    """Per-time emission probabilities of a stack of models, shape
    (length, R, n) for length >= T; the rows past T repeat state 0."""
    if any(series.scheme != model.obs_scheme for model in models):
        raise DomainError("series scheme does not match the model's observable scheme")
    emission = np.stack([model.emission for model in models])
    cells = series.state_indices
    if length > len(cells):
        cells = np.concatenate((cells, np.zeros(length - len(cells), cells.dtype)))
    return np.take(emission.transpose(2, 0, 1), cells, 0)


def recursion_bytes(T: int, n: int, rows: int = 1) -> int:
    """Bytes of b, alpha and beta of a forward-backward over T steps for a
    stack of rows models of n latent states: 3 T n floats a row. The steps
    the forward pass pads onto its last time block, fewer than its blocks,
    are left out."""
    return 3 * T * n * rows * 8


def _time_blocks(T: int, width: int):
    """(blocks, stride, steps) of the forward pass or of Viterbi over T
    steps of a stack of width floats a step (R n for the forward pass of R
    models, n for Viterbi). Block k runs the steps times k * stride + s for
    0 <= s < steps, the first FORWARD_WARMUP of them warm-up for k >= 1, so
    each block ends where the next one's warm-up ends; the last one may run
    up to blocks - 1 steps past T. Blocks are about sqrt(width T) steps
    long: a wider stack already spreads each step's call overhead over more
    rows and gains less from more blocks. stride >= FORWARD_WARMUP, so
    every warm-up step is later overwritten by the block before."""
    if T >= FORWARD_BLOCK_MIN_T:
        blocks = (T - FORWARD_WARMUP) // max(FORWARD_WARMUP, math.isqrt(width * T))
        if blocks > 1:
            stride = -(-(T - FORWARD_WARMUP) // blocks)
            return blocks, stride, FORWARD_WARMUP + stride
    return 1, T, T


def _forward(models, series: ObservedSeries):
    """Scaled forward pass of a stack of models.

    Returns the emission columns b (T, R, n), the normalized alpha (T, R, n)
    and the scales (T, R), each bitwise what one step after the other from
    the initial law gives. A row whose recursion underflowed holds
    meaningless values from the first t where its scale is not positive;
    _row_log_likelihood reports it.

    Every step is the one kernel of this module. A long series is cut into
    time blocks (_time_blocks) that advance in lock-step as one stack of
    (block, model) rows: block 0 from the initial law, every later block
    FORWARD_WARMUP steps before its range from the uniform law. Block k's
    range is then exact if its last warm-up state equals, bit for bit, the
    exact alpha at that time, block k - 1's last one. A row that fails this
    check is run again step by step from its first missed entry to T. NaN
    never compares equal, so a row that underflows is rerun to the end. The
    worst case, a model that forgets its start more slowly than the warm-up,
    costs the speculative pass plus the step loop of that row. Extra memory
    is O(blocks R n).

    Raises DomainError before allocating when the stack's b, alpha and beta
    would exceed RECURSION_BYTES; log_likelihood, which needs no beta, is
    held to the same limit as the forward-backward of its series.
    """
    T, R, n = len(series), len(models), models[0].transition.shape[0]
    _refuse_beyond_limit("forward-backward", T, n, R)
    blocks, stride, steps = _time_blocks(T, R * n)
    length = (blocks - 1) * stride + steps
    b = _emission_columns(models, series, length)
    start = np.full((blocks, R, 1, n), 1.0 / n)
    start[0, :, 0] = [model.initial for model in models]
    transition = np.stack([model.transition for model in models])
    alpha = np.empty((length, R, 1, n))
    scales = np.empty((length, R, 1, 1))
    b_rows = b[:, :, None, :]

    def lanes(a):
        """The block lanes of a, or a itself for one block."""
        return a if blocks == 1 else _lanes(a, blocks, stride, steps)

    lane_alpha, lane_scales, lane_b = lanes(alpha), lanes(scales), lanes(b_rows)
    warmed = min(FORWARD_WARMUP, steps)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(start.reshape(lane_b[0].shape), lane_b[0], lane_alpha[0])
        np.add.reduce(lane_alpha[0], -1, None, lane_scales[0], True)
        np.divide(lane_alpha[0], lane_scales[0], lane_alpha[0])
        _steps(transition, lane_alpha, lane_b, lane_scales, 1, warmed)
        # block k's last warm-up state, which block k - 1 overwrites later
        entries = np.arange(1, blocks) * stride + FORWARD_WARMUP
        guess = alpha[entries - 1]
        _steps(transition, lane_alpha, lane_b, lane_scales, warmed, steps)
        missed = ~(guess == alpha[entries - 1]).all(axis=(2, 3))
        for r in np.flatnonzero(missed.any(axis=0)).tolist():
            entry = int(entries[missed[:, r].argmax()])
            rows = slice(r, r + 1)
            _steps(transition[rows], alpha[:, rows], b_rows[:, rows], scales[:, rows], entry, T)
    return b[:T], alpha[:T].reshape(T, R, n), scales[:T].reshape(T, R)


def _steps(transition, alpha, b, scales, lo: int, hi: int) -> None:
    """The forward kernel for times lo..hi - 1 of time-major arrays:
    alpha[t] = normalize((alpha[t - 1] @ transition) * b[t]), with the
    scale into scales[t]. The product is formed in a contiguous buffer.
    Each row of a stack is bitwise the row alone."""
    matmul, multiply, divide, add = np.matmul, np.multiply, np.divide, np.add.reduce
    cur = np.empty(alpha.shape[1:])
    prevs = alpha[lo - 1 : hi - 1]
    for prev, out, b_t, scale in zip(prevs, alpha[lo:hi], b[lo:hi], scales[lo:hi]):
        matmul(prev, transition, cur)
        multiply(cur, b_t, cur)
        add(cur, -1, None, scale, True)
        divide(cur, scale, out)


def _backward(models, b: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Scaled backward pass matching _forward's scales, shape (T, R, n)."""
    T, R, n = b.shape
    transition = np.stack([model.transition for model in models])
    beta = np.empty((T, R, n, 1))
    beta[-1] = 1.0
    ahead = np.empty((R, n, 1))
    matmul, multiply, divide = np.matmul, np.multiply, np.divide
    with np.errstate(divide="ignore", invalid="ignore"):
        for cur, nxt, b_next, scale in zip(
            beta[-2::-1], beta[::-1], b[::-1, :, :, None], scales[::-1, :, None, None]
        ):
            multiply(b_next, nxt, ahead)
            matmul(transition, ahead, cur)
            divide(cur, scale, cur)
    return beta.reshape(T, R, n)


def _row_log_likelihood(scales: np.ndarray) -> float:
    """Log-likelihood from one row of forward scales; raises NumericalError
    at the first time its recursion underflowed."""
    failed = np.flatnonzero(~(scales > 0.0))
    if failed.size:
        raise NumericalError(f"forward recursion underflowed at time {failed[0]}")
    return float(np.log(scales).sum())


def _state_posteriors(alpha, beta) -> np.ndarray:
    """gamma (T, n) of one model from its recursions."""
    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    return gamma


def _pair_posteriors(alpha, beta, scales, b, transition, lo: int, out: np.ndarray) -> None:
    """Write xi[t], the posterior law of the pair (t, t + 1), of one model
    into out[t - lo] for lo <= t < lo + len(out). Each xi[t] is formed on
    its own, so any cut of the time axis into blocks gives the same bits."""
    hi = lo + len(out)
    ahead = (b[lo + 1 : hi + 1] * beta[lo + 1 : hi + 1]) / scales[lo + 1 : hi + 1, None]
    np.multiply(alpha[lo:hi, :, None], transition, out)
    out *= ahead[:, None, :]
    out /= out.sum(axis=(1, 2), keepdims=True)


def _pair_block(n: int) -> int:
    """Pairs per block of the E-step's transition counts: PAIR_BLOCK_BYTES
    of (n, n) tables, at least one."""
    return max(1, PAIR_BLOCK_BYTES // (8 * n * n))


def _transition_counts(alpha, beta, scales, b, transition) -> np.ndarray:
    """Sum over t of xi[t], one block of pairs at a time.

    numpy sums the first axis of a contiguous array one slice after the
    other, so carrying the running sum as slice 0 of each block reproduces
    the sum of the whole (T - 1, n, n) stack bitwise, while at most one
    block of it is alive."""
    pairs = len(b) - 1
    if pairs == 0:
        return np.ones_like(transition)
    n = transition.shape[0]
    step = _pair_block(n)
    block = np.empty((min(step, pairs) + 1, n, n))
    total = np.zeros((n, n))
    for lo in range(0, pairs, step):
        m = min(step, pairs - lo)
        block[0] = total
        _pair_posteriors(alpha, beta, scales, b, transition, lo, block[1 : m + 1])
        np.add.reduce(block[: m + 1], 0, None, total)
    return total


def log_likelihood(model: MhmmModel, series: ObservedSeries) -> float:
    """Log-likelihood by the scaled forward recursion, time-blocked and
    bitwise the step loop's (see _forward)."""
    _, _, scales = _forward([model], series)
    return _row_log_likelihood(scales[:, 0])


def forward_backward(model: MhmmModel, series: ObservedSeries):
    """Posterior state and pair probabilities.

    Returns (gamma, xi, loglik): gamma[t] is the posterior law of the joint
    latent state at time t, xi[t] the posterior law of the pair (t, t+1).
    Rows of gamma sum to one; xi[t] marginalizes to gamma[t] and gamma[t+1].
    """
    b, alpha, scales = _forward([model], series)
    log_lik = _row_log_likelihood(scales[:, 0])
    beta = _backward([model], b, scales)
    alpha, beta, scales, b = alpha[:, 0], beta[:, 0], scales[:, 0], b[:, 0]
    n = model.transition.shape[0]
    xi = np.empty((len(b) - 1, n, n))
    _pair_posteriors(alpha, beta, scales, b, model.transition, 0, xi)
    return _state_posteriors(alpha, beta), xi, log_lik


def expected_counts(models, series: ObservedSeries, needs_counts=None) -> list:
    """E-step of a stack of models in one batched forward-backward pass.

    Returns, per model, either (transition counts, emission counts,
    log-likelihood) or the NumericalError its recursion raised; a failing
    model leaves the other rows untouched. needs_counts(row, log_lik), if
    given, is asked right after the forward pass whether a row's counts are
    wanted; the rows it declines get (None, None, log-likelihood) and no
    backward pass. Each row equals the single-model recursion bitwise.
    The forward pass runs in time blocks checked bit for bit against the
    exact boundaries (_forward); the backward pass is a step loop, since
    the scaled beta does not forget its start bit for bit. Emission counts
    are one bincount per row.

    Working set: b, alpha and beta of the stack (3 T n floats a row), then,
    one row at a time, gamma (T n floats) and one block of pair posteriors
    of at most PAIR_BLOCK_BYTES; no (T - 1, n, n) pair array is built.
    """
    b, alpha, scales = _forward(models, series)
    out, wanted = [], []
    for r in range(len(models)):
        try:
            log_lik = _row_log_likelihood(scales[:, r])
        except NumericalError as exc:
            out.append(exc)
            continue
        out.append((None, None, log_lik))
        if needs_counts is None or needs_counts(r, log_lik):
            wanted.append(r)
    if not wanted:
        return out
    sub = wanted if len(wanted) < len(models) else slice(None)
    beta = _backward([models[r] for r in wanted], b[:, sub], scales[:, sub])
    f_idx = series.state_indices
    for k, r in enumerate(wanted):
        model = models[r]
        counts_trans = _transition_counts(
            alpha[:, r], beta[:, k], scales[:, r], b[:, r], model.transition
        )
        # bincount sums each category's weights in time order, as add.at did
        gamma = _state_posteriors(alpha[:, r], beta[:, k])
        n_obs = model.emission.shape[1]
        counts_emit = np.array([np.bincount(f_idx, column, n_obs) for column in gamma.T])
        out[r] = (counts_trans, counts_emit, out[r][2])
    return out


def viterbi(model: MhmmModel, series: ObservedSeries) -> np.ndarray:
    """Most probable joint latent path, ties toward the smallest state index.

    Returns a (T, r) array of 1-based latent categories, bitwise the path
    of the step loop score[t] = max_i(score[t - 1][i] + log P[i, j]) +
    log b[t] with first-argmax backpointers. Raises NumericalError at the
    first time every score is -inf (the series has probability zero), and
    DomainError before allocating when recursion_bytes(T, n) exceeds
    RECURSION_BYTES, as log_likelihood does.

    The recursion stores scores only. A series of at least
    FORWARD_BLOCK_MIN_T steps is cut into the forward pass's time blocks
    (_time_blocks), which run in lock-step: block 0 from the initial law,
    every later block FORWARD_WARMUP steps before its range from a flat
    score at its estimated entry level (_entry_levels). Max-plus scores are
    not normalized, so a block can at best equal the exact scores plus a
    constant shift; it is kept only where _block_shift proves that shift
    carries through its whole range bit for bit, and is otherwise rerun
    step by step from the exact entry. Shifting every score of a time by
    the same amount changes no argmax, so the backpointers are formed from
    the stored scores during the backtrack, one block of times at a time.
    Blocks that straddle a power of two in score are always rerun; the
    worst case, a model that forgets its start slowly, reruns every block.
    """
    T, n = len(series), model.transition.shape[0]
    _refuse_beyond_limit("Viterbi decoding", T, n)
    blocks, stride, steps = _time_blocks(T, n)
    length = (blocks - 1) * stride + steps
    log_b = _emission_columns([model], series, length)[:, 0]
    with np.errstate(divide="ignore"):
        np.log(log_b, out=log_b)
        log_a = np.log(model.transition)
        log_pi = np.log(model.initial)
        addends = np.log(np.concatenate((model.transition, model.emission), None))
    addends = addends[addends > -np.inf]
    score = np.empty((length, n))
    if blocks == 1:
        np.add(log_pi, log_b[0], score[0])
        _max_steps(log_a, score, log_b, 1, T)
    else:
        # [s, :, k] is time k * stride + s, state-major for the max over i
        lane_score = _lanes(score, blocks, stride, steps).transpose(0, 2, 1)
        lane_b = _lanes(log_b, blocks, stride, steps).transpose(0, 2, 1)
        lane_log_a = np.repeat(log_a[:, :, None], blocks, 2)
        start = np.repeat(_entry_levels(lane_log_a, lane_b, log_pi, stride)[None], n, 0)
        start[:, 0] = log_pi
        np.add(start, lane_b[0], lane_score[0])
        _max_steps(lane_log_a, lane_score, lane_b, 1, FORWARD_WARMUP)
        entries = np.arange(1, blocks) * stride + FORWARD_WARMUP
        guesses = score[entries - 1]
        _max_steps(lane_log_a, lane_score, lane_b, FORWARD_WARMUP, steps)
        shift = 0.0
        for entry, guess in zip(entries.tolist(), guesses):
            exact = score[entry - 1] - shift
            _refuse_dead(score, exact, entry)
            end = min(entry + stride, T)
            shift = _block_shift(guess, exact, score[entry:end], addends)
            if shift is None:
                shift = 0.0
                score[entry - 1] = exact
                _max_steps(log_a, score, log_b, entry, end)
    _refuse_dead(score, score[T - 1], T)
    return np.array(model.latent_scheme.states, dtype=int)[_backtrack(score[:T], log_a)]


def _refuse_beyond_limit(what: str, T: int, n: int, rows: int = 1) -> None:
    """Raise DomainError when recursion_bytes(T, n, rows) exceeds
    RECURSION_BYTES."""
    size = recursion_bytes(T, n, rows)
    if size > RECURSION_BYTES:
        raise DomainError(
            f"{what} of {rows} model(s) over {T} steps and {n} latent states "
            f"needs {size:,} bytes, above the limit of {RECURSION_BYTES:,}"
        )


def _lanes(a: np.ndarray, blocks: int, stride: int, steps: int) -> np.ndarray:
    """View (steps, blocks, ...) of a time-major array of the padded
    length (_time_blocks): [s, k] is time k * stride + s."""
    step = a.strides[0]
    return np.lib.stride_tricks.as_strided(
        a, (steps, blocks) + a.shape[1:], (step, stride * step) + a.strides[1:]
    )


def _max_steps(log_a, score, log_b, lo: int, hi: int) -> None:
    """The Viterbi kernel for times lo..hi - 1 of time-major arrays,
    score[t][j] = max_i(score[t - 1][i] + log_a[i, j]) + log_b[t][j]: the
    step loop on (time, n) arrays and log_a (n, n), or lock-step lanes on
    (time, n, width) views and log_a (n, n, width). Every add and max acts
    elementwise, so each lane is bitwise the step loop on its column. The
    max is formed in a contiguous buffer: reducing into a strided lane
    view costs about half again as much per lock-step step."""
    add, maximum = np.add, np.maximum.reduce
    candidate = np.empty(log_a.shape)
    best = np.empty(log_a.shape[1:])
    prevs = score[lo - 1 : hi - 1, :, None]
    for prev, cur, log_b_t in zip(prevs, score[lo:hi], log_b[lo:hi]):
        add(prev, log_a, candidate)
        maximum(candidate, 0, None, best)
        add(best, log_b_t, cur)


def _entry_levels(log_a, lane_b, log_pi, stride: int) -> np.ndarray:
    """Estimated best score before each block's first time, shape
    (blocks,): every block is run over its stride from a zero score (block 0
    from the initial law), keeping only its current scores, and the best
    final scores are summed over the blocks before. The estimate is off by about the number
    of blocks times how far a flat start stays above the exact scores,
    which on the benchmark's generating model was about 0.2% of the level."""
    row = lane_b[0].copy()
    row[:, 0] += log_pi
    # every time of this view is the one row, rewritten by each step
    rows = np.lib.stride_tricks.as_strided(row, (stride,) + row.shape, (0,) + row.strides)
    _max_steps(log_a, rows, lane_b, 1, stride)
    gains = row.max(0)
    return np.concatenate(([0.0], np.cumsum(gains[:-1])))


def _block_shift(guess, exact, scores, addends):
    """The shift d of a time block started from a guess, or None where it
    is not proven exact.

    guess is the block's score at its last warm-up time and exact the step
    loop's score there; scores holds the block's computed range, rows of n.
    Every candidate of the range is a score plus a finite log-probability
    of addends, and every score a candidate plus one. The block is the step
    loop's plus d, bit for bit, when:
    - guess - exact is one d on every finite state, and both are -inf on
      the same states;
    - every finite score and candidate, as computed and minus d, lies
      strictly inside one binade [2^(e-1), 2^e) in magnitude; its floats
      are then the multiples of one ulp, d is an exact multiple of it, and
      every add rounds to the step loop's sum plus d except, perhaps, at a
      rounding tie;
    - d is an even number of ulps, so a tie breaks to the same parity, or
      no addend lies exactly halfway between two multiples of the ulp, so
      no sum of a score and an addend is a tie.
    Max and first-argmax are exact and shift-invariant, so the path then
    follows. Scores are at most 0, so magnitudes are negated scores; the
    candidate magnitudes are bounded by the largest score magnitude plus
    the largest addend magnitude, rounded, as rounding is monotone.
    """
    live = exact > -np.inf
    if not np.array_equal(live, guess > -np.inf):
        return None
    shifts = guess[live] - exact[live]
    shift = float(shifts[0])
    if not (shifts == shift).all():
        return None
    low = -max(float(guess.max()), float(scores.max()))
    top = -min(float(guess[live].min()), float(scores.min(where=scores > -np.inf, initial=0.0)))
    reach = top + float(-addends.min())
    floor = math.ldexp(0.5, math.frexp(low)[1])
    ceiling, ulp = 2 * floor, math.ldexp(floor, -52)
    exact_low, exact_top = -float(exact.max()), -float(exact[live].min())
    if not (floor < low and reach < ceiling and floor < exact_low and exact_top < ceiling):
        return None
    if not (floor < low + shift and reach + shift < ceiling):
        return None
    if math.fmod(shift, 2 * ulp) and (np.fmod(-addends, ulp) == ulp / 2).any():
        return None
    return shift


def _refuse_dead(score, row, upto: int) -> None:
    """Raise NumericalError at the first time before upto whose scores are
    all -inf, when row, the exact scores at time upto - 1, are. Every later
    score is -inf too, so no path of positive probability exists."""
    if not (row > -np.inf).any():
        dead = int(np.argmin((score[:upto] > -np.inf).any(1)))
        raise NumericalError(f"no latent path has positive probability at time {dead}")


def _backtrack(score, log_a) -> list:
    """Latent state indices of the best path from the scores (T, n), each
    time's scores the step loop's plus one shift. The backpointers of
    _pair_block(n) times at a time are argmaxes over (times, n, n) sums
    laid out [t, j, i] = score[t - 1][i] + log P[i, j], read through a flat
    list: back[t, j] is pointers[t * n + j]."""
    T, n = score.shape
    log_into = np.ascontiguousarray(log_a.T)
    chunk = _pair_block(n)
    candidate = np.empty((min(chunk, T), n, n))
    back = np.empty((min(chunk, T), n), dtype=np.intp)
    state = int(np.argmax(score[-1]))
    path = [state]
    for hi in range(T, 1, -chunk):
        lo = max(1, hi - chunk)
        m = hi - lo
        np.add(score[lo - 1 : hi - 1, None, :], log_into, candidate[:m])
        candidate[:m].argmax(2, back[:m])
        pointers = back[:m].ravel().tolist()
        for offset in range((m - 1) * n, -1, -n):
            state = pointers[offset + state]
            path.append(state)
    return path[::-1]


def _choice_tables(probs: np.ndarray) -> np.ndarray:
    """Per-row cumulative tables, normalized as Generator.choice does."""
    cdf = np.cumsum(probs, axis=-1)
    return cdf / cdf[..., -1:]


def simulate(model: MhmmModel, length: int, seed: int = 0):
    """Draw a latent path and observations; deterministic for a given seed.

    The draws consume the generator's stream exactly as per-step
    ``rng.choice`` calls would: one uniform per chain step, the first for
    the initial state, then one per emission. Returns (latent, series) with
    latent a (T, r) array of 1-based categories and series an
    ObservedSeries.
    """
    if length < 1:
        raise DomainError(f"series length must be positive, got {length}")
    if seed < 0:
        raise DomainError("seed must be a nonnegative integer")
    rng = np.random.default_rng(seed)
    chain_u = rng.random(length).tolist()
    emit_u = rng.random(length)
    # the chain is sequential: per-step lookups go through Python lists
    start = _choice_tables(model.initial).tolist()
    rows = _choice_tables(model.transition).tolist()
    path = [bisect.bisect_right(start, chain_u[0])]
    for u in chain_u[1:]:
        path.append(bisect.bisect_right(rows[path[-1]], u))
    latent_idx = np.array(path)
    obs_idx = np.empty(length, dtype=int)
    for i, cdf in enumerate(_choice_tables(model.emission)):
        at = np.flatnonzero(latent_idx == i)
        obs_idx[at] = np.searchsorted(cdf, emit_u[at], side="right")
    latent = np.array(model.latent_scheme.states, dtype=int)[latent_idx]
    observed = np.array(model.obs_scheme.states, dtype=int)[obs_idx]
    return latent, ObservedSeries(model.obs_scheme, observed)


# -- marginalization -----------------------------------------------------------


def _sub_scheme(scheme: VariableScheme, names) -> VariableScheme:
    keep = set(names)
    return VariableScheme(tuple(v for v in scheme.variables if v[0] in keep))


def _aggregator(scheme: VariableScheme, sub: VariableScheme) -> np.ndarray:
    """0/1 matrix mapping joint states of a scheme onto those of a sub-scheme."""
    positions = [scheme.names.index(n) for n in sub.names]
    out = np.zeros((scheme.n_states, sub.n_states))
    for j, state in enumerate(scheme.states):
        out[j, sub.state_index(tuple(state[i] for i in positions))] = 1.0
    return out


def marginal_model(
    model: MhmmModel,
    latent_subset,
    obs_subset,
    check: bool = True,
) -> MhmmModel:
    """Model for a sub-process of latent and observable variables.

    The construction averages transition and emission rows over the dropped
    latent variables with stationary weights. The result reproduces the law
    of the sub-process exactly when the retained latent margin evolves
    autonomously and the retained observables depend on it alone; with
    check=True those two constancy conditions are verified within 1e-8.
    """
    sub_latent = _sub_scheme(model.latent_scheme, latent_subset)
    sub_obs = _sub_scheme(model.obs_scheme, obs_subset)
    if sub_latent.size == 0 or sub_obs.size == 0:
        raise DomainError("marginal model needs nonempty latent and observable subsets")
    agg_e = _aggregator(model.latent_scheme, sub_latent)
    agg_f = _aggregator(model.obs_scheme, sub_obs)
    pi = model.initial
    pi_sub = pi @ agg_e
    weights = (pi[:, None] * agg_e) / pi_sub[None, :]
    trans_rows = model.transition @ agg_e
    emit_rows = model.emission @ agg_f
    if check:
        for k in range(sub_latent.n_states):
            members = np.nonzero(agg_e[:, k])[0]
            t_dev = float(np.max(np.abs(trans_rows[members] - trans_rows[members[0]])))
            e_dev = float(np.max(np.abs(emit_rows[members] - emit_rows[members[0]])))
            if t_dev > 1e-8:
                raise DomainError(
                    f"latent margin is not autonomous: transition rows differ by {t_dev:.3e}"
                )
            if e_dev > 1e-8:
                raise DomainError(
                    f"observable margin depends on dropped latents: rows differ by {e_dev:.3e}"
                )
    transition = weights.T @ trans_rows
    emission = weights.T @ emit_rows
    return MhmmModel.from_tables(sub_latent, sub_obs, transition, emission)


def joint_law(model: MhmmModel, steps: int, latent_subset=None, obs_subset=None) -> np.ndarray:
    """Exhaustive joint law of (latent margin, observable margin) over a few
    steps, axes ordered e_0..e_{k-1}, f_0..f_{k-1}. Intended for small cases."""
    lat_names = model.latent_scheme.names if latent_subset is None else tuple(latent_subset)
    obs_names = model.obs_scheme.names if obs_subset is None else tuple(obs_subset)
    sub_latent = _sub_scheme(model.latent_scheme, lat_names)
    sub_obs = _sub_scheme(model.obs_scheme, obs_names)
    agg_e = _aggregator(model.latent_scheme, sub_latent)
    agg_f = _aggregator(model.obs_scheme, sub_obs)
    ne, nf = model.latent_scheme.n_states, model.obs_scheme.n_states
    shape = (sub_latent.n_states,) * steps + (sub_obs.n_states,) * steps
    law = np.zeros(shape)
    for path in itertools.product(range(ne), repeat=steps):
        weight = model.initial[path[0]]
        for a, b in zip(path, path[1:]):
            weight *= model.transition[a, b]
        if weight == 0.0:
            continue
        emit = [model.emission[i] @ agg_f for i in path]
        block = emit[0]
        for e in emit[1:]:
            block = np.multiply.outer(block, e)
        key = tuple(int(np.argmax(agg_e[i])) for i in path)
        law[key] += weight * block
    return law


# -- model files -----------------------------------------------------------------


def write_model(model: MhmmModel) -> str:
    """Serialize a model; probabilities round-trip at 17 significant digits."""
    out = io.StringIO()
    out.write("[variables]\n")
    for name, count in model.latent_scheme.variables:
        out.write(f"latent {name} {count}\n")
    for name, count in model.obs_scheme.variables:
        out.write(f"observed {name} {count}\n")
    e_states = model.latent_scheme.states
    f_states = model.obs_scheme.states
    out.write("[transition]\n")
    for i, prev in enumerate(e_states):
        for j, nxt in enumerate(e_states):
            key = ",".join(map(str, prev + nxt))
            out.write(f"{key} {model.transition[i, j]:.17g}\n")
    out.write("[emission]\n")
    for i, state in enumerate(e_states):
        for j, cats in enumerate(f_states):
            key = ",".join(map(str, state + cats))
            out.write(f"{key} {model.emission[i, j]:.17g}\n")
    out.write("[initial]\n")
    for i, state in enumerate(e_states):
        key = ",".join(map(str, state))
        out.write(f"{key} {model.initial[i]:.17g}\n")
    return out.getvalue()


def read_model(text: str) -> MhmmModel:
    """Parse the flat model format written by write_model."""
    section = None
    latent_vars: list[tuple[str, int]] = []
    obs_vars: list[tuple[str, int]] = []
    body: dict[str, dict[tuple[int, ...], float]] = {
        "transition": {},
        "emission": {},
        "initial": {},
    }
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[]").strip()
            if name not in ("variables", "transition", "emission", "initial"):
                raise ParseError(f"line {lineno}: unknown section {name!r}")
            section = name
            continue
        if section == "variables":
            parts = line.split()
            if len(parts) != 3 or parts[0] not in ("latent", "observed"):
                raise ParseError(f"line {lineno}: expected 'latent|observed name count'")
            try:
                count = int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: bad count {parts[2]!r}")
            (latent_vars if parts[0] == "latent" else obs_vars).append((parts[1], count))
        elif section in body:
            try:
                key_text, value_text = line.split()
                key = tuple(int(v) for v in key_text.split(","))
                value = float(value_text)
            except ValueError:
                raise ParseError(f"line {lineno}: expected 'i,j,... probability'")
            body[section][key] = value
        else:
            raise ParseError(f"line {lineno}: content before any section header")
    if not latent_vars or not obs_vars:
        raise ParseError("model file must declare latent and observed variables")
    latent_scheme = VariableScheme(tuple(latent_vars))
    obs_scheme = VariableScheme(tuple(obs_vars))
    ne, nf = latent_scheme.n_states, obs_scheme.n_states
    r = latent_scheme.size
    transition = np.zeros((ne, ne))
    emission = np.zeros((ne, nf))
    initial = np.zeros(ne)
    try:
        for key, value in body["transition"].items():
            transition[
                latent_scheme.state_index(key[:r]), latent_scheme.state_index(key[r:])
            ] = value
        for key, value in body["emission"].items():
            emission[latent_scheme.state_index(key[:r]), obs_scheme.state_index(key[r:])] = value
        for key, value in body["initial"].items():
            initial[latent_scheme.state_index(key)] = value
    except DomainError as exc:
        raise ParseError(f"bad state key in model file: {exc}")
    return MhmmModel(
        latent_scheme=latent_scheme,
        obs_scheme=obs_scheme,
        transition=transition,
        emission=emission,
        initial=initial,
    )


# -- series files -----------------------------------------------------------------


def write_series_csv(series: ObservedSeries) -> str:
    """A header row of variable names, then one row of categories per time
    point, looked up by joint state index in a table of the scheme's states."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(series.scheme.names)
    table = [",".join(map(str, state)) + "\n" for state in series.scheme.states]
    out.write("".join(map(table.__getitem__, series.state_indices.tolist())))
    return out.getvalue()


def read_series_csv(text: str, scheme: VariableScheme) -> ObservedSeries:
    """Parse a header-plus-integer-rows CSV against an observable scheme.

    Columns may appear in any order but must match the scheme names exactly,
    up to surrounding spaces, and one leading byte-order mark (U+FEFF, as
    "CSV UTF-8" exports write it) is dropped. Records whose cells are all
    blank are skipped; every other record needs one cell per column, each
    read by int(), so surrounding spaces, signs, leading zeros and digit
    underscores are accepted. Errors name the record (the header is line 1): the first
    record that has the wrong number of cells or a cell that is not an
    integer or lies beyond int64. The cells are split by csv.reader and
    converted in one pass over all of them, with no Python code per row.
    """
    records = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"))))
    if not records:
        raise ParseError("empty series file")
    header = [h.strip() for h in records[0]]
    if sorted(header) != sorted(scheme.names):
        raise ParseError(
            f"series columns {header} do not match observable variables {list(scheme.names)}"
        )
    order = [header.index(name) for name in scheme.names]
    k = len(header)
    body = records[1:]
    lengths = np.fromiter(map(len, body), np.intp, len(body))
    cells = list(itertools.chain.from_iterable(body))
    # filled[c] counts the non-blank cells before cell c: a record whose
    # cells add none is blank
    filled = np.zeros(len(cells) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(bool, map(str.strip, cells)), bool, len(cells)), out=filled[1:])
    ends = np.cumsum(lengths)
    kept = filled[ends] > filled[ends - lengths]
    ragged = np.flatnonzero(kept & (lengths != k))
    if ragged.size:
        # the records after the first ragged one are never read
        kept[ragged[0] :] = False
    rows = np.flatnonzero(kept)
    if rows.size < len(body):
        cells = list(itertools.compress(cells, np.repeat(kept, lengths).tolist()))
    remaining = iter(cells)
    try:
        values = np.fromiter(map(int, remaining), np.int64, len(cells))
    except (ValueError, OverflowError) as exc:
        bad = len(cells) - sum(1 for _ in remaining) - 1
        what = "must be integers" if isinstance(exc, ValueError) else "exceed the int64 range"
        raise ParseError(f"line {rows[bad // k] + 2}: categories {what}") from None
    if ragged.size:
        line = ragged[0]
        raise ParseError(f"line {line + 2}: expected {k} cells, got {lengths[line]}")
    if not rows.size:
        raise ParseError("series file has no data rows")
    return ObservedSeries(scheme, values.reshape(-1, k)[:, order])
