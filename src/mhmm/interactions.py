"""Marginal log-linear interactions for conditional probability tables.

A conditional table assigns a distribution over the joint states of a
response scheme to every state of a conditioning scheme. For each response
margin P and non-baseline category combination, the marginal contrast is the
alternating sum of log marginal probabilities over the cells obtained by
switching subsets of P back to baseline. Contrasts are then expanded
factorially over the conditioning states with baseline coding, giving one
interaction coefficient per (response margin, conditioning margin, response
categories, conditioning categories). The map from strictly positive tables
to interaction coefficients is a smooth bijection; the inverse is computed
by a damped Newton iteration per conditioning state.

Transition tables use the latent scheme on both axes (coefficients
conventionally written delta), emission tables condition the observable
scheme on the latent one (theta). Both cases share the machinery here and
differ only in the `kind` tag of the space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError, ParseError
from .schemes import BASELINE, VariableScheme, _subsets

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 200
NEWTON_MAX_HALVINGS = 20
PROB_FLOOR = 1e-12
LOG_BOUND = 300.0


@dataclass(frozen=True, order=True)
class InteractionIndex:
    """Identifies one interaction coefficient.

    kind is 'delta' for transition coefficients and 'theta' for emission
    ones. Response and conditioning variables are named; all categories sit
    strictly above baseline. An empty conditioning margin has empty tuples.
    """

    kind: str
    response_vars: tuple[str, ...]
    cond_vars: tuple[str, ...]
    response_cats: tuple[int, ...]
    cond_cats: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("theta", "delta"):
            raise DomainError(f"interaction kind must be theta or delta, got {self.kind!r}")
        if not self.response_vars:
            raise DomainError("response margin must be nonempty")
        if len(self.response_vars) != len(self.response_cats):
            raise DomainError("response variables and categories differ in length")
        if len(self.cond_vars) != len(self.cond_cats):
            raise DomainError("conditioning variables and categories differ in length")
        if any(c <= BASELINE for c in self.response_cats + self.cond_cats):
            raise DomainError("interaction categories must sit strictly above baseline")


class InteractionSpace:
    """Index bookkeeping and linear operators for one coefficient table.

    Precomputes, for a (response, conditioning) scheme pair:

    * the marginalization matrix stacking every response margin,
    * the alternating-sum contrast matrix over those margins,
    * the baseline-coded expansion (Moebius) matrix over conditioning
      states and its inverse.

    Conditioning margins are identified with conditioning states: the pair
    (Q, non-baseline categories on Q) corresponds to the state that carries
    those categories on Q and baseline elsewhere.
    """

    def __init__(self, response: VariableScheme, condition: VariableScheme, kind: str):
        if kind not in ("theta", "delta"):
            raise DomainError(f"interaction kind must be theta or delta, got {kind!r}")
        self.response = response
        self.condition = condition
        self.kind = kind

    # -- response-side layout -------------------------------------------------

    @cached_property
    def margins(self) -> tuple[tuple[int, ...], ...]:
        """Nonempty response margins as position tuples, by (size, order)."""
        return _subsets(range(self.response.size))[1:]

    @cached_property
    def _margin_layout(self):
        """Per margin: cell list, index map, offset into the stacked vector."""
        counts = self.response.counts
        layout = {}
        offset = 0
        for P in self.margins:
            cells = tuple(itertools.product(*[range(1, counts[i] + 1) for i in P]))
            layout[P] = (cells, {c: k for k, c in enumerate(cells)}, offset)
            offset += len(cells)
        return layout, offset

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Contrast columns as (margin positions, non-baseline categories)."""
        counts = self.response.counts
        cols = []
        for P in self.margins:
            for cats in itertools.product(*[range(2, counts[i] + 1) for i in P]):
                cols.append((P, cats))
        return tuple(cols)

    @cached_property
    def column_index(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
        return {col: k for k, col in enumerate(self.columns)}

    @property
    def n_columns(self) -> int:
        return self.response.n_states - 1

    @cached_property
    def marginalizer(self) -> np.ndarray:
        """0/1 matrix mapping cell probabilities to stacked margins."""
        layout, total = self._margin_layout
        m = np.zeros((total, self.response.n_states))
        for P, (cells, index, offset) in layout.items():
            for j, state in enumerate(self.response.states):
                key = tuple(state[i] for i in P)
                m[offset + index[key], j] = 1.0
        return m

    @cached_property
    def contrast(self) -> np.ndarray:
        """Signed matrix applying alternating sums over log margins."""
        layout, total = self._margin_layout
        a = np.zeros((self.n_columns, total))
        for k, (P, cats) in enumerate(self.columns):
            cells, index, offset = layout[P]
            by_pos = dict(zip(P, cats))
            for keep in _subsets(P):
                cell = tuple(by_pos[i] if i in keep else BASELINE for i in P)
                sign = (-1) ** (len(P) - len(keep))
                a[k, offset + index[cell]] += sign
        return a

    # -- conditioning-side layout ----------------------------------------------

    @cached_property
    def combos(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Conditioning margins as (positions, categories), one per state."""
        out = []
        for state in self.condition.states:
            support = self.condition.support(state)
            out.append((support, tuple(state[i] for i in support)))
        return tuple(out)

    @cached_property
    def combo_index(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
        return {combo: r for r, combo in enumerate(self.combos)}

    @cached_property
    def zeta(self) -> np.ndarray:
        """0/1 evaluation matrix: contrasts from coefficients, per state."""
        states = self.condition.states
        n = len(states)
        z = np.zeros((n, n))
        for r, state in enumerate(states):
            for c, (support, cats) in enumerate(self.combos):
                if all(state[i] == v for i, v in zip(support, cats)):
                    z[r, c] = 1.0
        return z

    @cached_property
    def moebius(self) -> np.ndarray:
        """Signed inverse of the evaluation matrix (baseline coding)."""
        states = self.condition.states
        n = len(states)
        w = np.zeros((n, n))
        index = self.condition.state_index
        for r, (support, cats) in enumerate(self.combos):
            by_pos = dict(zip(support, cats))
            for keep in _subsets(support):
                state = tuple(
                    by_pos[i] if i in keep else BASELINE for i in range(self.condition.size)
                )
                w[r, index(state)] += (-1) ** (len(support) - len(keep))
        return w

    # -- index enumeration ------------------------------------------------------

    @property
    def total_count(self) -> int:
        return self.condition.n_states * self.n_columns

    def index_at(self, row: int, col: int) -> InteractionIndex:
        P, fcats = self.columns[col]
        Q, ecats = self.combos[row]
        return InteractionIndex(
            kind=self.kind,
            response_vars=self.response.names_at(P),
            cond_vars=self.condition.names_at(Q),
            response_cats=fcats,
            cond_cats=ecats,
        )

    def locate(self, index: InteractionIndex) -> tuple[int, int]:
        if index.kind != self.kind:
            raise DomainError(f"index kind {index.kind!r} does not match space {self.kind!r}")
        rims = [self.response.positions([name])[0] for name in index.response_vars]
        rv = sorted(zip(rims, index.response_cats))
        P = tuple(i for i, _ in rv)
        fcats = tuple(c for _, c in rv)
        qims = [self.condition.positions([name])[0] for name in index.cond_vars]
        qv = sorted(zip(qims, index.cond_cats))
        Q = tuple(i for i, _ in qv)
        ecats = tuple(c for _, c in qv)
        for i, c in zip(P, fcats):
            if not 2 <= c <= self.response.counts[i]:
                raise DomainError(f"response category {c} out of range for margin position {i}")
        for i, c in zip(Q, ecats):
            if not 2 <= c <= self.condition.counts[i]:
                raise DomainError(f"conditioning category {c} out of range for position {i}")
        return self.combo_index[(Q, ecats)], self.column_index[(P, fcats)]

    @cached_property
    def _serial_order(self) -> tuple[tuple[int, int], ...]:
        cond_order = sorted(
            range(len(self.combos)), key=lambda r: (len(self.combos[r][0]), self.combos[r])
        )
        ordered = []
        for P in self.margins:
            col_block = [k for k, (p, _) in enumerate(self.columns) if p == P]
            for r in cond_order:
                for k in col_block:
                    ordered.append((r, k))
        return tuple(ordered)

    def indices(self):
        """(row, col) positions in serialization order: by response margin
        size and identity, then conditioning margin size and identity, then
        categories."""
        return self._serial_order


@dataclass
class InteractionTable:
    """Dense coefficient table over an interaction space.

    values has one row per conditioning state (equivalently, per
    conditioning margin and category combination) and one column per
    response contrast.
    """

    space: InteractionSpace
    values: np.ndarray

    def __post_init__(self):
        expected = (self.space.condition.n_states, self.space.n_columns)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != expected:
            raise DomainError(
                f"interaction table shape {self.values.shape} does not match space {expected}"
            )

    def __getitem__(self, index: InteractionIndex) -> float:
        row, col = self.space.locate(index)
        return float(self.values[row, col])

    def entries(self):
        for row, col in self.space.indices():
            yield self.space.index_at(row, col), float(self.values[row, col])

    def copy(self) -> "InteractionTable":
        return InteractionTable(self.space, self.values.copy())


# -- forward maps ---------------------------------------------------------------


def _validate_table(space: InteractionSpace, probs: np.ndarray) -> np.ndarray:
    """A conditional table, or a stack of them along leading axes, checked
    for strictly positive cells and unit row sums."""
    probs = np.asarray(probs, dtype=float)
    expected = (space.condition.n_states, space.response.n_states)
    if probs.shape[-2:] != expected:
        raise DomainError(f"conditional table shape {probs.shape}, expected {expected}")
    rows = probs.reshape(-1, expected[1])
    if np.any(rows <= 0.0):
        row, col = np.argwhere(rows <= 0.0)[0]
        raise DomainError(
            f"table must be strictly positive; cell {space.response.states[col]} given "
            f"{space.condition.states[row % expected[0]]} is {rows[row, col]}"
        )
    sums = rows.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-12:
        row = int(np.argmax(np.abs(sums - 1.0)))
        raise DomainError(
            f"slice for conditioning state {space.condition.states[row % expected[0]]} "
            f"sums to {sums[row]!r}"
        )
    return probs


def contrast_of_distribution(space: InteractionSpace, p: np.ndarray) -> np.ndarray:
    """Contrast vector of a strictly positive distribution over the response
    cells, or of every distribution along the last axis of a stack; the
    input is not checked (see contrasts_from_table)."""
    return np.log(p @ space.marginalizer.T) @ space.contrast.T


def contrasts_from_table(space: InteractionSpace, probs: np.ndarray) -> np.ndarray:
    """Marginal contrasts of a conditional table, one row per conditioning
    state, or of a stack of tables along leading axes. Requires strictly
    positive tables with unit row sums."""
    return contrast_of_distribution(space, _validate_table(space, probs))


def interactions_from_table(space: InteractionSpace, probs: np.ndarray) -> InteractionTable:
    """Forward map: conditional table to interaction coefficients."""
    eta = contrasts_from_table(space, probs)
    return expand_factorial(space, eta)


def expand_factorial(space: InteractionSpace, eta: np.ndarray) -> InteractionTable:
    """Baseline-coded expansion of per-state contrasts over conditioning
    margins."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (space.condition.n_states, space.n_columns):
        raise DomainError(
            f"contrast array shape {eta.shape}, expected "
            f"{(space.condition.n_states, space.n_columns)}"
        )
    return InteractionTable(space, space.moebius @ eta)


def collapse_factorial(table: InteractionTable) -> np.ndarray:
    """Evaluate coefficients back to per-state contrasts."""
    return table.space.zeta @ table.values


# -- inverse map -----------------------------------------------------------------


def _softmax_rows(x_free: np.ndarray) -> np.ndarray:
    """Distributions from free log-probabilities, one per row along the last
    axis, cell 0 pinned."""
    x = np.concatenate([np.zeros((*x_free.shape[:-1], 1)), x_free], axis=-1)
    x = x - x.max(axis=-1, keepdims=True)
    p = np.exp(x)
    return p / p.sum(axis=-1, keepdims=True)


def _jacobian_rows(space: InteractionSpace, p: np.ndarray) -> np.ndarray:
    """Per-row derivative of the contrast vector in free log-probability
    coordinates (cell 0 pinned at zero); rows along the last axis of p but
    one, so (rows, n_cells) gives (rows, m, m)."""
    margins = p @ space.marginalizer.T
    weighted = space.marginalizer / margins[..., :, None]
    dlog = space.contrast @ weighted
    eye = np.eye(p.shape[-1])[:, 1:]
    dp = p[..., :, None] * (eye - p[..., None, 1:])
    return dlog @ dp


def _invert_rows(
    space: InteractionSpace,
    target: np.ndarray,
    x0: np.ndarray | None = None,
    block: int | None = None,
) -> tuple[np.ndarray, dict[int, NumericalError]]:
    """Solve for the distributions carrying the requested contrast rows.

    Damped Newton on all rows at once, parameterized by free
    log-probabilities with the all-baseline cell pinned at zero; rows start
    from the uniform distribution unless warm-started and drop out as they
    converge. The rows form consecutive blocks of `block` rows (by default
    one block of all rows), and each block succeeds or fails as a call on
    its rows alone would: the ridge fallback for a singular Jacobian and
    the stall and iteration-limit tests look at the block's own rows, and a
    failing block drops out without changing the other rows. Returns
    (x, errors): errors maps the number of each failing block, in order, to
    the NumericalError of that block, and x holds every other block's
    solution.
    """
    target = np.asarray(target, dtype=float)
    rows, m = target.shape
    block = block or rows
    x = np.zeros((rows, m)) if x0 is None else np.array(x0, dtype=float)

    def contrasts(p, at):
        return _by_block(lambda q: contrast_of_distribution(space, q), p, at, block)

    def fail(at, message):
        """Drop the blocks of rows at, each with an error that formats its
        worst residual into message."""
        for b, part in _block_parts(at, block):
            errors[b] = NumericalError(message.format(worst=float(err[at[part]].max())))
            live[b * block : (b + 1) * block] = False

    p = _softmax_rows(x)
    residual = contrasts(p, np.arange(rows)) - target
    err = np.abs(residual).max(axis=1)
    live = np.ones(rows, dtype=bool)
    errors = {}
    for _ in range(NEWTON_MAX_ITER):
        # a NaN residual never compares as converged
        active = np.flatnonzero(live & ~(err <= NEWTON_TOL))
        if active.size == 0:
            break
        jac = _by_block(lambda q: _jacobian_rows(space, q), p[active], active, block)
        rhs = -residual[active][:, :, None]
        step, ok = _linalg_blocks(np.linalg.solve, jac, rhs, rows=active, block=block)
        if not ok.all():
            retry = np.flatnonzero(~ok)
            step[retry], ok[retry] = _linalg_blocks(
                np.linalg.solve, jac[retry] + 1e-12 * np.eye(m), rhs[retry],
                rows=active[retry], block=block,
            )
            fail(active[~ok], "contrast inversion met a singular Jacobian")
            active, step = active[ok], step[ok]
        step = step[:, :, 0]
        scale = 1.0
        pending = np.arange(active.size)
        for _ in range(NEWTON_MAX_HALVINGS):
            g = active[pending]
            trial = np.clip(x[g] + scale * step[pending], -LOG_BOUND, LOG_BOUND)
            p_try = _softmax_rows(trial)
            res_try = contrasts(p_try, g) - target[g]
            err_try = np.abs(res_try).max(axis=1)
            ok = np.isfinite(err_try) & (err_try < err[g])
            hit = g[ok]
            x[hit] = trial[ok]
            p[hit] = p_try[ok]
            residual[hit] = res_try[ok]
            err[hit] = err_try[ok]
            pending = pending[~ok]
            if pending.size == 0:
                break
            scale *= 0.5
        fail(active[pending], "contrast inversion stalled at residual {worst:.3e}")
    fail(
        np.flatnonzero(live & ~(err <= NEWTON_TOL)),
        f"contrast inversion did not converge within {NEWTON_MAX_ITER} iterations; "
        "residual {worst:.3e}",
    )
    return x, dict(sorted(errors.items()))


def _by_block(fn, values: np.ndarray, rows: np.ndarray, block: int) -> np.ndarray:
    """fn(values), where values holds the sorted row numbers rows of a stack,
    computed as a call on each block's rows alone computes it.

    A matrix product rounds differently with the number of rows it spans
    (one row takes a matrix-vector kernel, and large products switch
    kernels with size), so fn runs on blocks stacked along a new leading
    axis, one call per distinct number of rows a block has.
    """
    blocks = rows // block
    if rows.size == 0 or blocks[0] == blocks[-1]:
        return fn(values)
    sizes = np.bincount(blocks)[blocks]
    out = None
    for size in np.flatnonzero(np.bincount(sizes)):
        at = np.flatnonzero(sizes == size)
        part = fn(values[at].reshape(-1, size, *values.shape[1:]))
        part = part.reshape(at.size, *part.shape[2:])
        if at.size == rows.size:
            return part
        if out is None:
            out = np.empty((rows.size, *part.shape[1:]))
        out[at] = part
    return out


def _block_parts(rows: np.ndarray, block: int) -> list[tuple[int, np.ndarray]]:
    """(block number, positions in rows) for every block of `block` rows
    that the sorted row numbers rows touch."""
    if rows.size == 0:
        return []
    cuts = np.flatnonzero(np.diff(rows // block)) + 1
    return [(int(rows[part[0]]) // block, part) for part in np.split(np.arange(rows.size), cuts)]


def _linalg_blocks(fn, *stacks: np.ndarray, rows: np.ndarray | None = None, block: int = 1):
    """(fn(*stacks), ok) for a numpy.linalg function fn on stacked matrices,
    with ok saying for each stack entry whether its block succeeded.

    numpy raises LinAlgError for a whole stack when one matrix fails, so
    only then fn runs once per block of `block` entries, which rows numbers
    (sorted; by default 0, 1, ...). A failed block's result stays zero. The
    result has the shape of the last stack, as for solve and cholesky.
    """
    try:
        return fn(*stacks), np.ones(len(stacks[0]), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.zeros_like(stacks[-1])
    ok = np.zeros(len(out), dtype=bool)
    for _, part in _block_parts(np.arange(len(out)) if rows is None else rows, block):
        try:
            out[part] = fn(*(stack[part] for stack in stacks))
            ok[part] = True
        except np.linalg.LinAlgError:
            pass
    return out, ok


def table_from_interactions(table: InteractionTable) -> np.ndarray:
    """Inverse map: interaction coefficients to the conditional table.

    Raises a domain error if the solution carries a probability below the
    positivity floor or a coefficient is not finite, and a numerical error
    on non-convergence.
    """
    space = table.space
    if not np.all(np.isfinite(table.values)):
        row, col = np.argwhere(~np.isfinite(table.values))[0]
        raise DomainError(
            f"interaction coefficient {table.values[row, col]} at row {row}, column {col} "
            "is not finite"
        )
    eta = collapse_factorial(table)
    x, errors = _invert_rows(space, eta)
    if errors:
        raise errors[0]
    probs = _softmax_rows(x)
    if probs.min() < PROB_FLOOR:
        row, col = np.unravel_index(np.argmin(probs), probs.shape)
        raise DomainError(
            f"interactions imply probability {probs[row, col]:.3e} below {PROB_FLOOR:.0e} "
            f"at state {space.response.states[col]} given {space.condition.states[row]}"
        )
    return probs


# -- serialization ----------------------------------------------------------------


def _fmt_group(names) -> str:
    return ",".join(str(n) for n in names) if names else "-"


def _parse_group(token: str) -> tuple[str, ...]:
    """The names of a comma-joined list, '-' for the empty one."""
    return () if token == "-" else tuple(token.split(","))


def serialize_interactions(tables) -> str:
    """Flat text form of one or more coefficient tables, deterministic order."""
    lines = []
    for table in tables:
        for index, value in table.entries():
            lines.append(
                "{} {} {} {} {} {:.17g}".format(
                    index.kind.upper(),
                    _fmt_group(index.response_vars),
                    _fmt_group(index.cond_vars),
                    _fmt_group(index.response_cats),
                    _fmt_group(index.cond_cats),
                    value,
                )
            )
    return "\n".join(lines) + "\n"


def parse_interaction_lines(text: str):
    """Yield (InteractionIndex, value) pairs from the flat text form; a
    malformed line raises ParseError naming it."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        kind, pvars, qvars, fcats, ecats, value = parts
        if kind not in ("THETA", "DELTA"):
            raise ParseError(f"line {lineno}: unknown table tag {kind!r}")

        def cats(s):
            try:
                return tuple(int(v) for v in _parse_group(s))
            except ValueError:
                raise ParseError(f"line {lineno}: bad category list {s!r}")

        try:
            number = float(value)
        except ValueError:
            raise ParseError(f"line {lineno}: bad value {value!r}")
        if not math.isfinite(number):
            raise ParseError(f"line {lineno}: value {value!r} is not finite")
        response_cats, cond_cats = cats(fcats), cats(ecats)
        try:
            index = InteractionIndex(
                kind=kind.lower(),
                response_vars=_parse_group(pvars),
                cond_vars=_parse_group(qvars),
                response_cats=response_cats,
                cond_cats=cond_cats,
            )
        except DomainError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        yield index, number
