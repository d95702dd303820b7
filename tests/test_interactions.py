import math

import numpy as np
import pytest
from pytest import approx

from mhmm import (
    NumericalError,
    DomainError,
    ParseError,
    InteractionIndex,
    InteractionSpace,
    InteractionTable,
    VariableScheme,
    interactions_from_table,
    parse_interaction_lines,
    serialize_interactions,
    table_from_interactions,
)
from mhmm.interactions import (
    NEWTON_TOL,
    _invert_rows,
    _jacobian_rows,
    _linalg_blocks,
    _softmax_rows,
    collapse_factorial,
    contrast_of_distribution,
    contrasts_from_table,
    expand_factorial,
)
from helpers import brute_contrasts, brute_factorial, random_rows


def theta_space(resp_vars, cond_vars):
    return InteractionSpace(
        VariableScheme.of(*resp_vars), VariableScheme.of(*cond_vars), "theta"
    )


ONE_BIN = theta_space([("F1", 2)], [("E1", 2)])
TWO_BIN = theta_space([("F1", 2), ("F2", 2)], [("E1", 2)])
LAT2 = InteractionSpace(
    VariableScheme.of(("E1", 2), ("E2", 2)), VariableScheme.of(("E1", 2), ("E2", 2)), "delta"
)


def test_margins_order_by_size_then_position():
    space = theta_space([("F1", 2), ("F2", 3), ("F3", 2)], [("E1", 2)])
    assert space.margins == ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


def test_column_count_matches_free_cells():
    space = theta_space([("F1", 3), ("F2", 3), ("F3", 3)], [("E1", 2)])
    assert space.n_columns == space.response.n_states - 1
    assert space.total_count == space.n_columns * space.condition.n_states


def test_index_at_locate_roundtrip():
    space = theta_space([("F1", 3), ("F2", 2)], [("E1", 2), ("E2", 3)])
    for row in range(space.condition.n_states):
        for col in range(space.n_columns):
            idx = space.index_at(row, col)
            assert space.locate(idx) == (row, col)
    listed = list(space.indices())
    assert len(listed) == space.total_count
    assert len(set(listed)) == space.total_count


def test_index_validation():
    with pytest.raises(DomainError):
        InteractionIndex("theta", ("F1",), (), (1,), ())
    with pytest.raises(DomainError):
        InteractionIndex("theta", (), (), (), ())
    with pytest.raises(DomainError):
        InteractionIndex("gamma", ("F1",), (), (2,), ())


def test_univariate_logit():
    c = contrast_of_distribution(ONE_BIN, np.array([0.2, 0.8]))
    assert c == approx([math.log(4.0)])


def test_independent_pair_kills_two_way_contrast():
    p = np.outer([0.5, 0.5], [0.5, 0.5]).ravel()
    space = theta_space([("F1", 2), ("F2", 2)], [("E1", 2)])
    c = contrast_of_distribution(space, p)
    (pair_col,) = [k for k, (P, _) in enumerate(space.columns) if P == (0, 1)]
    assert c[pair_col] == approx(0.0, abs=1e-12)
    # and, with dependence, it is the log odds ratio of the 2x2 joint
    q = np.array([0.4, 0.1, 0.2, 0.3])
    c = contrast_of_distribution(space, q)
    assert c[pair_col] == approx(math.log(0.4 * 0.3 / (0.1 * 0.2)))


def test_uniform_table_has_zero_contrasts():
    rows = np.full((4, 4), 0.25)
    assert contrasts_from_table(LAT2, rows) == approx(np.zeros((4, 3)), abs=1e-12)


def test_product_transition_zeroes_pair_contrast():
    rng = np.random.default_rng(7)
    a = random_rows(rng, 4, 2)
    b = random_rows(rng, 4, 2)
    rows = np.einsum("ri,rj->rij", a, b).reshape(4, 4)
    c = contrasts_from_table(LAT2, rows)
    (pair_col,) = [k for k, (P, _) in enumerate(LAT2.columns) if P == (0, 1)]
    assert c[:, pair_col] == approx(np.zeros(4), abs=1e-12)


def test_concentrated_diagonal_sign_pattern():
    # near-identity transition: the own-lag logit is positive after state 2
    rows = np.full((4, 4), 0.01)
    np.fill_diagonal(rows, 0.97)
    c = contrasts_from_table(LAT2, rows)
    (e1_col,) = [
        k for k, (P, cats) in enumerate(LAT2.columns) if P == (0,) and cats == (2,)
    ]
    for i, state in enumerate(LAT2.condition.states):
        assert (c[i, e1_col] > 0) == (state[0] == 2)


def test_contrasts_match_brute_force(rng):
    for resp in ([("F1", 3), ("F2", 3)], [("F1", 2), ("F2", 2), ("F3", 3)]):
        space = theta_space(resp, [("E1", 2), ("E2", 2)])
        rows = random_rows(rng, space.condition.n_states, space.response.n_states)
        assert contrasts_from_table(space, rows) == approx(
            brute_contrasts(space, rows), abs=1e-10
        )


def test_factorial_expansion_matches_brute_force(rng):
    space = theta_space([("F1", 3)], [("E1", 2), ("E2", 3)])
    eta = rng.normal(size=(space.condition.n_states, space.n_columns))
    table = expand_factorial(space, eta)
    assert table.values == approx(brute_factorial(space, eta), abs=1e-12)


def test_factorial_round_trip_is_identity(rng):
    space = theta_space([("F1", 2), ("F2", 3)], [("E1", 2), ("E2", 2)])
    eta = rng.normal(size=(space.condition.n_states, space.n_columns))
    assert collapse_factorial(expand_factorial(space, eta)) == approx(eta, abs=1e-12)


def test_constant_eta_leaves_only_empty_margin():
    space = theta_space([("F1", 3)], [("E1", 2), ("E2", 2)])
    eta = np.tile(np.array([0.3, -0.7]), (4, 1))
    table = expand_factorial(space, eta)
    for (index, value) in table.entries():
        if index.cond_vars:
            assert value == approx(0.0, abs=1e-12)
        else:
            assert abs(value) > 0.1


def test_additive_eta_loads_single_conditioning_margin():
    space = theta_space([("F1", 2)], [("E1", 2), ("E2", 2)])
    a, b = 0.4, -1.1
    eta = np.array([[a + b * (e1 == 2)] for e1, e2 in space.condition.states])
    table = expand_factorial(space, eta)
    got = {
        (index.cond_vars, index.cond_cats): value for index, value in table.entries()
    }
    assert got[((), ())] == approx(a)
    assert got[(("E1",), (2,))] == approx(b)
    assert got[(("E2",), (2,))] == approx(0.0, abs=1e-12)
    assert got[(("E1", "E2"), (2, 2))] == approx(0.0, abs=1e-12)


def test_zero_interactions_invert_to_uniform():
    table = InteractionTable(LAT2, np.zeros((4, 3)))
    assert table_from_interactions(table) == approx(np.full((4, 4), 0.25), abs=1e-12)


def test_inverse_logit_example():
    space = theta_space([("F1", 2)], [("E1", 2)])
    table = expand_factorial(space, np.array([[math.log(4.0)], [math.log(4.0)]]))
    probs = table_from_interactions(table)
    assert probs == approx(np.array([[0.2, 0.8], [0.2, 0.8]]))


def test_round_trip_random_tables(rng):
    for resp, cond in (
        ([("F1", 3), ("F2", 3)], [("E1", 2), ("E2", 2)]),
        ([("F1", 2), ("F2", 2), ("F3", 2)], [("E1", 3)]),
        ([("F1", 4)], [("E1", 2)]),
    ):
        space = theta_space(resp, cond)
        for _ in range(5):
            rows = random_rows(rng, space.condition.n_states, space.response.n_states)
            back = table_from_interactions(interactions_from_table(space, rows))
            assert back == approx(rows, abs=1e-9)


def test_round_trip_concentrated_table():
    rows = np.full((4, 4), 0.01)
    np.fill_diagonal(rows, 0.97)
    back = table_from_interactions(interactions_from_table(LAT2, rows))
    assert back == approx(rows, abs=1e-9)


def test_extreme_interactions_hit_positivity_floor():
    space = theta_space([("F1", 2)], [("E1", 2)])
    table = expand_factorial(space, np.array([[60.0], [60.0]]))
    with pytest.raises(DomainError):
        table_from_interactions(table)


def test_zero_probability_rejected_forward():
    rows = np.array([[0.5, 0.5, 0.0, 0.0]] * 4)
    with pytest.raises(DomainError):
        interactions_from_table(LAT2, rows)


def test_serialize_parse_round_trip(rng):
    space = theta_space([("F1", 3), ("F2", 2)], [("E1", 2)])
    rows = random_rows(rng, 2, 6)
    table = interactions_from_table(space, rows)
    text = serialize_interactions([table])
    pairs = list(parse_interaction_lines(text))
    assert len(pairs) == space.total_count
    rebuilt = table.copy()
    for index, value in pairs:
        row, col = space.locate(index)
        assert rebuilt.values[row, col] == approx(value, abs=1e-15)
    assert serialize_interactions([table]) == text


def test_parse_interaction_lines_rejects_garbage():
    with pytest.raises(DomainError):
        list(parse_interaction_lines("THETA F1 - 2\n"))
    with pytest.raises(DomainError):
        list(parse_interaction_lines("SIGMA F1 - 2 - 0.5\n"))
    # a baseline category and an empty response margin name their line
    for line in ("THETA F1 - 1 - 0.5\n", "THETA - - 2 - 0.5\n"):
        with pytest.raises(ParseError, match="^line 1: "):
            list(parse_interaction_lines(line))


def test_non_finite_coefficients_are_rejected():
    for bad in (np.nan, np.inf):
        values = np.zeros((4, 3))
        values[1, 2] = bad
        with pytest.raises(DomainError, match="not finite"):
            table_from_interactions(InteractionTable(LAT2, values))


def test_inversion_never_counts_a_nan_residual_as_converged():
    target = np.zeros((4, 3))
    target[1, 2] = np.nan
    _, errors = _invert_rows(LAT2, target)
    assert isinstance(errors.get(0), NumericalError)


def test_parse_interaction_lines_rejects_non_finite_values():
    for value in ("nan", "inf", "-inf", "NaN"):
        with pytest.raises(DomainError, match="not finite"):
            list(parse_interaction_lines(f"THETA F1 - 2 - {value}\n"))


def test_stacked_inversion_fails_per_block(rng):
    # blocks of four rows; the middle block asks for an unreachable contrast
    targets = [
        contrasts_from_table(LAT2, random_rows(rng, 4, 4)),
        np.full((4, 3), 400.0),
        contrasts_from_table(LAT2, random_rows(rng, 4, 4)),
    ]
    _, alone = _invert_rows(LAT2, targets[1])
    x, errors = _invert_rows(LAT2, np.concatenate(targets), block=4)
    assert list(errors) == [1]
    assert str(errors[1]) == str(alone[0])
    for b in (0, 2):
        assert np.array_equal(x[4 * b : 4 * b + 4], _invert_rows(LAT2, targets[b])[0])


def test_stacked_inversion_equals_lone_blocks():
    # blocks whose rows converge at different iterations, so the number of
    # rows a lone call still iterates on differs from block to block
    space = theta_space([("F1", 3), ("F2", 3), ("F3", 3)], [("E1", 2), ("E2", 2)])
    for seed in range(4):
        rng = np.random.default_rng(seed)
        targets = [contrasts_from_table(space, random_rows(rng, 4, 27)) for _ in range(8)]
        starts = [rng.normal(scale=0.5 * (b % 3), size=(4, 26)) for b in range(8)]
        stacked, _ = _invert_rows(space, np.concatenate(targets), np.concatenate(starts), block=4)
        for b, (target, start) in enumerate(zip(targets, starts)):
            assert np.array_equal(stacked[4 * b : 4 * b + 4], _invert_rows(space, target, start)[0])


def test_linalg_blocks_flags_a_singular_block_and_keeps_the_others(rng):
    # three blocks of three systems; the middle block holds a singular matrix
    a = rng.normal(size=(9, 5, 5))
    a[4, :, 0] = 0.0
    b = rng.normal(size=(9, 5, 2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, b)
    x, ok = _linalg_blocks(np.linalg.solve, a, b, block=3)
    assert ok.tolist() == [True] * 3 + [False] * 3 + [True] * 3
    assert np.all(x[3:6] == 0.0)
    for lo in (0, 6):
        assert np.array_equal(x[lo : lo + 3], np.linalg.solve(a[lo : lo + 3], b[lo : lo + 3]))
    # rows numbers the entries, here rows 4, 5 and 8 in blocks of two
    x, ok = _linalg_blocks(np.linalg.solve, a[3:6], b[3:6], rows=np.array([4, 5, 8]), block=2)
    assert ok.tolist() == [False, False, True]
    assert np.array_equal(x[2], np.linalg.solve(a[5], b[5]))


def test_linalg_blocks_flags_only_the_indefinite_matrix(rng):
    root = rng.normal(size=(4, 6, 6))
    stack = root @ root.swapaxes(-1, -2) + np.eye(6)
    stack[2] -= 100.0 * np.eye(6)
    factors, ok = _linalg_blocks(np.linalg.cholesky, stack)
    assert ok.tolist() == [True, True, False, True]
    for i in (0, 1, 3):
        assert np.array_equal(factors[i], np.linalg.cholesky(stack[i]))


def test_inversion_block_rescued_by_the_ridge_is_not_failed(rng, monkeypatch):
    # the plain solve fails on the middle block's first Jacobians, which
    # the ridge shifts by 1e-12 on the diagonal
    targets = np.concatenate([contrasts_from_table(LAT2, random_rows(rng, 4, 4)) for _ in range(3)])
    x0 = np.zeros((12, 3))
    x0[4:8] = rng.normal(size=(4, 3))
    poisoned = _jacobian_rows(LAT2, _softmax_rows(x0[4:8]))
    solve, refused = np.linalg.solve, []

    def failing_solve(a, b):
        if np.any(np.abs(a[:, None] - poisoned).max(axis=(-2, -1)) < 1e-14):
            refused.append(len(a))
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    x, errors = _invert_rows(LAT2, targets, x0, block=4)
    monkeypatch.undo()
    assert refused == [12, 4]
    assert errors == {}
    assert np.abs(contrast_of_distribution(LAT2, _softmax_rows(x)) - targets).max() <= NEWTON_TOL
