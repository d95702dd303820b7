import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mhmm import BASELINE, DomainError, VariableScheme
from mhmm.schemes import validate_categories
from helpers import loop_aggregator


def test_state_order_row_major_last_fastest():
    s = VariableScheme.of(("A", 2), ("B", 3))
    assert s.states == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))
    assert s.state_index((1, 1)) == 0
    assert s.state_index((2, 3)) == 5


def test_basic_properties():
    s = VariableScheme.of(("E1", 2), ("E2", 4))
    assert s.names == ("E1", "E2")
    assert s.counts == (2, 4)
    assert s.size == 2
    assert s.n_states == 8
    assert str(s) == "E1(2), E2(4)"


def test_baseline_state_is_index_zero():
    s = VariableScheme.of(("A", 3), ("B", 2), ("C", 2))
    assert s.state_index(tuple([BASELINE] * 3)) == 0


def test_positions_follow_scheme_order():
    s = VariableScheme.of(("A", 2), ("B", 2), ("C", 2))
    assert s.positions(["C", "A"]) == (0, 2)
    assert s.names_at((0, 2)) == ("A", "C")
    with pytest.raises(DomainError):
        s.positions(["Z"])


def test_support_lists_non_baseline_positions():
    s = VariableScheme.of(("A", 3), ("B", 2), ("C", 2))
    assert s.support((1, 1, 1)) == ()
    assert s.support((3, 1, 2)) == (0, 2)


def test_validation_rejects_bad_schemes():
    with pytest.raises(DomainError):
        VariableScheme.of(("A", 1))
    with pytest.raises(DomainError):
        VariableScheme.of(("A", 2), ("A", 3))
    with pytest.raises(DomainError):
        VariableScheme.of()


@given(
    st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_state_index_roundtrip(counts, pick):
    s = VariableScheme.of(*((f"V{i}", c) for i, c in enumerate(counts)))
    i = pick % s.n_states
    assert s.state_index(s.states[i]) == i


def test_validate_categories_accepts_and_rejects():
    s = VariableScheme.of(("A", 2), ("B", 3))
    validate_categories(s, np.array([[1, 3], [2, 1]]))
    with pytest.raises(DomainError):
        validate_categories(s, np.array([[1, 4]]))
    with pytest.raises(DomainError):
        validate_categories(s, np.array([[0, 1]]))
    with pytest.raises(DomainError):
        validate_categories(s, np.array([1, 2]))


@pytest.mark.parametrize("n_vars", [1, 2, 3, 4])
def test_margin_equals_the_loop_aggregator_for_every_subset(n_vars):
    """For every scheme of n_vars variables with 2-4 categories each,
    margin(positions) is the state-by-state 0/1 aggregation onto the
    sub-scheme of those positions, byte for byte with the same strides; the
    empty subset gives a column of ones."""
    for counts in itertools.product((2, 3, 4), repeat=n_vars):
        scheme = VariableScheme.of(*[(f"V{i + 1}", c) for i, c in enumerate(counts)])
        for r in range(1, n_vars + 1):
            for positions in itertools.combinations(range(n_vars), r):
                sub = VariableScheme(tuple(scheme.variables[i] for i in positions))
                got, want = scheme.margin(positions), loop_aggregator(scheme, sub)
                assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
                assert got.tobytes() == want.tobytes()
        assert scheme.margin(()).tobytes() == np.ones((scheme.n_states, 1)).tobytes()
