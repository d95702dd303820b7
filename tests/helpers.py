"""Brute-force oracles shared across the test suite.

Everything here trades speed for directness: the quantities are computed by
explicit enumeration straight from their definitions, so the vectorized
implementations have something independent to agree with.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import mhmm.model
from mhmm import BASELINE, MhmmModel, NumericalError, VariableScheme
from mhmm.interactions import _jacobian_rows


def subsets(items):
    items = tuple(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


# -- likelihood -------------------------------------------------------------


def path_sum_log_likelihood(model, series) -> float:
    """Joint density summed over every latent path, then logged."""
    n = model.latent_scheme.n_states
    T = series.data.shape[0]
    obs = [series.scheme.state_index(tuple(row)) for row in series.data]
    total = 0.0
    for path in itertools.product(range(n), repeat=T):
        p = model.initial[path[0]] * model.emission[path[0], obs[0]]
        for t in range(1, T):
            p *= model.transition[path[t - 1], path[t]] * model.emission[path[t], obs[t]]
        total += p
    return math.log(total)


def stepwise_forward(models, series):
    """Scaled forward pass of a stack of models, one time step after the
    other over the whole series: (b, alpha, scales) as model._forward
    returns them."""
    emission = np.stack([model.emission for model in models])
    b = emission.transpose(2, 0, 1)[series.state_indices]
    T, R, n = b.shape
    initial = np.stack([model.initial for model in models])
    transition = np.stack([model.transition for model in models])
    alpha = np.empty((T, R, 1, n))
    scales = np.empty((T, R, 1, 1))
    b_rows = b[:, :, None, :]
    matmul, multiply, divide, add = np.matmul, np.multiply, np.divide, np.add.reduce
    with np.errstate(divide="ignore", invalid="ignore"):
        multiply(initial[:, None, :], b_rows[0], alpha[0])
        add(alpha[0], -1, None, scales[0], True)
        divide(alpha[0], scales[0], alpha[0])
        for prev, cur, b_t, scale in zip(alpha, alpha[1:], b_rows[1:], scales[1:]):
            matmul(prev, transition, cur)
            multiply(cur, b_t, cur)
            add(cur, -1, None, scale, True)
            divide(cur, scale, cur)
    return b, alpha.reshape(T, R, n), scales.reshape(T, R)


def stepwise_counts(models, series):
    """model.expected_counts of a stack, from stepwise_forward, with the
    emission counts summed by np.add.at: per model (transition counts,
    emission counts, log-likelihood), or the NumericalError of a row whose
    recursion underflowed."""
    b, alpha, scales = stepwise_forward(models, series)
    beta = mhmm.model._backward(models, b, scales)
    out = []
    for r, model in enumerate(models):
        try:
            log_lik = mhmm.model._row_log_likelihood(scales[:, r])
        except NumericalError as exc:
            out.append(exc)
            continue
        counts_trans = mhmm.model._transition_counts(
            alpha[:, r], beta[:, r], scales[:, r], b[:, r], model.transition
        )
        counts_emit = np.zeros(model.emission.shape)
        gamma = mhmm.model._state_posteriors(alpha[:, r], beta[:, r])
        np.add.at(counts_emit.T, series.state_indices, gamma)
        out.append((counts_trans, counts_emit, log_lik))
    return out


def stepwise_viterbi(model, series):
    """Viterbi by the step loop over the whole series, backpointers kept
    per step: (path of 1-based categories as model.viterbi returns it,
    running scores (T, n)). Ties go to the smallest state index: max is
    exact and argmax returns the first maximum."""
    with np.errstate(divide="ignore"):
        log_a = np.log(model.transition)
        log_b = np.log(model.emission.T[series.state_indices])
        log_pi = np.log(model.initial)
    T, n = log_b.shape
    # row j of candidate holds score[i] + log P(i -> j) over i
    log_into = np.ascontiguousarray(log_a.T)
    scores = np.empty((T, n))
    np.add(log_pi, log_b[0], scores[0])
    back = np.empty((T, n), dtype=np.intp)
    candidate = np.empty((n, n))
    add, maximum = np.add, np.maximum.reduce
    for prev, score, back_t, log_b_t in zip(scores, scores[1:], back[1:], log_b[1:]):
        add(prev, log_into, candidate)
        candidate.argmax(1, back_t)
        maximum(candidate, 1, None, score)
        add(score, log_b_t, score)
    state = int(np.argmax(scores[-1]))
    path = [state]
    for t in range(T - 1, 0, -1):
        state = int(back[t, state])
        path.append(state)
    return np.array(model.latent_scheme.states, dtype=int)[path[::-1]], scores


def brute_posteriors(model, series):
    """Smoothed state posteriors by normalizing full path probabilities."""
    n = model.latent_scheme.n_states
    T = series.data.shape[0]
    obs = [series.scheme.state_index(tuple(row)) for row in series.data]
    gamma = np.zeros((T, n))
    xi = np.zeros((max(T - 1, 0), n, n))
    for path in itertools.product(range(n), repeat=T):
        p = model.initial[path[0]] * model.emission[path[0], obs[0]]
        for t in range(1, T):
            p *= model.transition[path[t - 1], path[t]] * model.emission[path[t], obs[t]]
        for t in range(T):
            gamma[t, path[t]] += p
        for t in range(T - 1):
            xi[t, path[t], path[t + 1]] += p
    total = gamma[0].sum()
    return gamma / total, xi / total


def brute_viterbi(model, series):
    """Best latent path by scoring every candidate; ties to the first.

    Paths enumerate in state-index order, so keeping strict improvements
    matches the lexicographically-smallest tie rule. Returns, like the
    implementation, the path as rows of 1-based categories.
    """
    n = model.latent_scheme.n_states
    T = series.data.shape[0]
    obs = [series.scheme.state_index(tuple(row)) for row in series.data]
    best, best_score = None, -np.inf
    for path in itertools.product(range(n), repeat=T):
        p = math.log(model.initial[path[0]]) + math.log(model.emission[path[0], obs[0]])
        for t in range(1, T):
            p += math.log(model.transition[path[t - 1], path[t]])
            p += math.log(model.emission[path[t], obs[t]])
        if p > best_score + 1e-12:
            best, best_score = path, p
    states = model.latent_scheme.states
    return np.array([states[i] for i in best], dtype=int)


# -- marginal contrasts and factorial expansion ------------------------------


def brute_contrasts(space, probs):
    """Alternating sums of log marginal probabilities, cell by cell."""
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    states = space.response.states
    out = np.zeros((probs.shape[0], len(space.columns)))
    for col, (P, cats) in enumerate(space.columns):
        for keep in subsets(range(len(P))):
            cell = {P[i]: (cats[i] if i in keep else BASELINE) for i in range(len(P))}
            hit = [
                j
                for j, s in enumerate(states)
                if all(s[pos] == val for pos, val in cell.items())
            ]
            sign = (-1) ** (len(P) - len(keep))
            out[:, col] += sign * np.log(probs[:, hit].sum(axis=1))
    return out


def brute_factorial(space, contrasts):
    """Baseline-coded inclusion-exclusion over conditioning states."""
    cond = space.condition
    contrasts = np.atleast_2d(np.asarray(contrasts, dtype=float))
    out = np.zeros_like(contrasts)
    for i, state in enumerate(cond.states):
        q = cond.support(state)
        for sub in subsets(q):
            cell = tuple(state[p] if p in sub else BASELINE for p in range(cond.size))
            j = cond.state_index(cell)
            out[i] += (-1) ** (len(q) - len(sub)) * contrasts[j]
    return out


def dense_gradient_and_info(space, counts, probs):
    """M-step score and expected information in interaction coordinates,
    by inverting the full k x k chart Jacobian kron(moebius, I) blockdiag(J_e)."""
    counts = np.asarray(counts, dtype=float)
    totals = counts.sum(axis=1)
    n_cond, m = probs.shape[0], space.n_columns
    k = n_cond * m
    jac = np.zeros((k, k))
    g_x = np.empty(k)
    info_x = np.zeros((k, k))
    blocks = _jacobian_rows(space, probs)
    p_free = probs[:, 1:]
    for e in range(n_cond):
        lo = e * m
        hi = lo + m
        jac[lo:hi, lo:hi] = blocks[e]
        g_x[lo:hi] = counts[e][1:] - totals[e] * p_free[e]
        info_x[lo:hi, lo:hi] = totals[e] * (np.diag(p_free[e]) - np.outer(p_free[e], p_free[e]))
    a = np.kron(space.moebius, np.eye(m)) @ jac
    a_inv = np.linalg.inv(a)
    return a_inv.T @ g_x, a_inv.T @ info_x @ a_inv


# -- conditional independence checks on probability tables -------------------


def margin_cells(scheme, positions):
    return list(itertools.product(*[range(1, scheme.counts[p] + 1) for p in positions]))


def margin_of_rows(rows, scheme, positions):
    """Per-row margins of a row-stochastic table over the given positions."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    cells = margin_cells(scheme, positions)
    index = {c: k for k, c in enumerate(cells)}
    out = np.zeros((rows.shape[0], len(cells)))
    for j, state in enumerate(scheme.states):
        out[:, index[tuple(state[p] for p in positions)]] += rows[:, j]
    return out


def rows_agree_given(margins, scheme, cond_positions):
    """Max spread of margins among rows sharing a conditioning projection."""
    groups = {}
    for i, state in enumerate(scheme.states):
        groups.setdefault(tuple(state[p] for p in cond_positions), []).append(i)
    gap = 0.0
    for idx in groups.values():
        block = margins[idx]
        gap = max(gap, float(np.max(block.max(axis=0) - block.min(axis=0))))
    return gap


def factorization_gap(rows, scheme, left_positions, right_positions):
    """Max |P(l, r) - P(l) P(r)| over rows and cell pairs."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    lp, rp = tuple(left_positions), tuple(right_positions)
    left = margin_of_rows(rows, scheme, lp)
    right = margin_of_rows(rows, scheme, rp)
    l_index = {c: k for k, c in enumerate(margin_cells(scheme, lp))}
    r_index = {c: k for k, c in enumerate(margin_cells(scheme, rp))}
    joint = np.zeros((rows.shape[0], len(l_index), len(r_index)))
    for j, state in enumerate(scheme.states):
        a = l_index[tuple(state[p] for p in lp)]
        b = r_index[tuple(state[p] for p in rp)]
        joint[:, a, b] += rows[:, j]
    return float(np.max(np.abs(joint - left[:, :, None] * right[:, None, :])))


def statement_gap(model, stmt) -> float:
    """Numeric violation of one independence statement in a model's tables.

    Statements read off a graph always have cond + right covering the
    conditioning block, so grouping rows by the cond projection lets
    exactly the right-hand variables vary.
    """
    lat, obs = model.latent_scheme, model.obs_scheme
    if stmt.kind == "granger":
        assert set(stmt.right) | set(stmt.cond) == set(lat.names)
        margins = margin_of_rows(model.transition, lat, lat.positions(stmt.left))
        return rows_agree_given(margins, lat, lat.positions(stmt.cond))
    if stmt.kind == "contemporaneous":
        return factorization_gap(
            model.transition, lat, lat.positions(stmt.left), lat.positions(stmt.right)
        )
    if stmt.kind == "local":
        return factorization_gap(
            model.emission, obs, obs.positions(stmt.left), obs.positions(stmt.right)
        )
    assert set(stmt.right) | set(stmt.cond) == set(lat.names)
    margins = margin_of_rows(model.emission, obs, obs.positions(stmt.left))
    return rows_agree_given(margins, lat, lat.positions(stmt.cond))


# -- connected subsets oracle -------------------------------------------------


def brute_connected_subsets(nodes, edges):
    """All nonempty subsets inducing a connected undirected subgraph."""
    adjacency = {n: set() for n in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    family = set()
    for r in range(1, len(nodes) + 1):
        for subset in itertools.combinations(nodes, r):
            seen = {subset[0]}
            frontier = [subset[0]]
            inside = set(subset)
            while frontier:
                v = frontier.pop()
                for w in adjacency[v] & inside - seen:
                    seen.add(w)
                    frontier.append(w)
            if seen == inside:
                family.add(frozenset(subset))
    return frozenset(family)


# -- random model factories ---------------------------------------------------


def random_scheme(rng, prefix, n_vars, max_cats=3):
    pairs = [(f"{prefix}{i + 1}", int(rng.integers(2, max_cats + 1))) for i in range(n_vars)]
    return VariableScheme.of(*pairs)


def random_rows(rng, n_rows, n_cells, floor=1e-4):
    rows = rng.dirichlet(np.full(n_cells, 1.5), size=n_rows)
    rows = np.maximum(rows, floor)
    return rows / rows.sum(axis=1, keepdims=True)


def random_model(rng, latent_scheme, obs_scheme, floor=1e-4):
    transition = random_rows(rng, latent_scheme.n_states, latent_scheme.n_states, floor)
    emission = random_rows(rng, latent_scheme.n_states, obs_scheme.n_states, floor)
    return MhmmModel.from_tables(latent_scheme, obs_scheme, transition, emission)


# -- laws with graph-implied independencies built in --------------------------


def _factor_kernel(rng, scheme, parent_positions, parent_counts, edge_slots, floor=0.05):
    """Per-variable tables indexed by (parent cell, shared factor levels).

    Each bi-directed edge contributes an independent binary factor; a
    variable's distribution may depend on its own parents' cell and on the
    factors of edges incident to it. Marginalizing the factors couples
    exactly the edge-connected variables.
    """
    tables = []
    for pos in range(scheme.size):
        n_par = int(np.prod([parent_counts[pos][i] for i in range(len(parent_positions[pos]))] or [1]))
        n_fac = 2 ** len(edge_slots[pos])
        rows = rng.dirichlet(np.full(scheme.counts[pos], 1.0), size=n_par * n_fac)
        rows = np.maximum(rows, floor)
        rows /= rows.sum(axis=1, keepdims=True)
        tables.append(rows.reshape(n_par, n_fac, scheme.counts[pos]))
    return tables


def structured_kernel(rng, resp_scheme, cond_scheme, parents, bidirected, floor=0.05):
    """Row-stochastic table over resp states per cond state, Markov to a graph.

    parents maps each response name to a tuple of conditioning names;
    bidirected is an iterable of response name pairs. The construction draws
    one independent binary factor per bi-directed edge and one conditional
    table per response variable given (own parents, incident factors), then
    sums the factors out. Margins over any response subset P then depend on
    the conditioning state only through the union of P's parents, and
    subsets not connected through edges are conditionally independent.
    """
    edges = [tuple(e) for e in bidirected]
    parent_positions = []
    parent_counts = []
    edge_slots = []
    for pos, name in enumerate(resp_scheme.names):
        ppos = [cond_scheme.names.index(p) for p in parents.get(name, ())]
        parent_positions.append(tuple(ppos))
        parent_counts.append(tuple(cond_scheme.counts[i] for i in ppos))
        edge_slots.append(tuple(k for k, (a, b) in enumerate(edges) if name in (a, b)))
    tables = _factor_kernel(rng, resp_scheme, parent_positions, parent_counts, edge_slots, floor)
    factor_probs = rng.uniform(0.25, 0.75, size=len(edges))

    out = np.zeros((cond_scheme.n_states, resp_scheme.n_states))
    for i, cond_state in enumerate(cond_scheme.states):
        for levels in itertools.product((0, 1), repeat=len(edges)):
            w = 1.0
            for k, lv in enumerate(levels):
                w *= factor_probs[k] if lv else 1.0 - factor_probs[k]
            dist = np.ones(1)
            for pos in range(resp_scheme.size):
                par_cell = 0
                for p, c in zip(parent_positions[pos], parent_counts[pos]):
                    par_cell = par_cell * c + (cond_state[p] - 1)
                fac_cell = 0
                for k in edge_slots[pos]:
                    fac_cell = fac_cell * 2 + levels[k]
                dist = np.kron(dist, tables[pos][par_cell, fac_cell])
            out[i] += w * dist
    return out


def structured_model(rng, graph, latent_scheme, obs_scheme, floor=0.05):
    """MHMM whose tables satisfy every independence implied by the graph."""
    lat_parents = {v: tuple(sorted(graph.parents([v]))) for v in graph.latent}
    obs_parents = {w: tuple(sorted(graph.parents([w]))) for w in graph.observed}
    transition = structured_kernel(
        rng, latent_scheme, latent_scheme, lat_parents, graph.bidirected_latent, floor
    )
    emission = structured_kernel(
        rng, obs_scheme, latent_scheme, obs_parents, graph.bidirected_obs, floor
    )
    return MhmmModel.from_tables(latent_scheme, obs_scheme, transition, emission)


def random_mixed_graph(rng, latent_names, obs_names, p_dir=0.4, p_bidir=0.4, p_emit=0.6):
    """Random mixed-chain graph; every observable keeps at least one parent."""
    from mhmm import MixedChainGraph

    directed = [
        (a, b)
        for a in latent_names
        for b in latent_names
        if a != b and rng.random() < p_dir
    ]
    bid_lat = [
        (a, b)
        for i, a in enumerate(latent_names)
        for b in latent_names[i + 1 :]
        if rng.random() < p_bidir
    ]
    bid_obs = [
        (a, b)
        for i, a in enumerate(obs_names)
        for b in obs_names[i + 1 :]
        if rng.random() < p_bidir
    ]
    emit = [(a, b) for a in latent_names for b in obs_names if rng.random() < p_emit]
    covered = {b for _, b in emit}
    for b in obs_names:
        if b not in covered:
            emit.append((latent_names[int(rng.integers(len(latent_names)))], b))
    return MixedChainGraph.build(
        latent=latent_names,
        observed=obs_names,
        directed_latent=directed,
        bidirected_latent=bid_lat,
        emit=emit,
        bidirected_obs=bid_obs,
    )
