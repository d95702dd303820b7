"""Categorical variable schemes and joint state enumeration.

A scheme fixes an ordered list of named categorical variables. Categories
are 1-based and category 1 is the baseline of every variable. Joint states
enumerate in row-major order, last variable fastest, so state index 0 is
the all-baseline state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

BASELINE = 1


def _subsets(items) -> tuple[tuple, ...]:
    """All subsets of items as tuples, by size then position; the empty
    subset comes first, so `_subsets(items)[1:]` are the nonempty ones."""
    items = tuple(items)
    return tuple(
        itertools.chain.from_iterable(
            itertools.combinations(items, r) for r in range(len(items) + 1)
        )
    )


@dataclass(frozen=True)
class VariableScheme:
    """Ordered collection of categorical variables with category counts."""

    variables: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.variables]
        if not names:
            raise DomainError("a variable scheme needs at least one variable")
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate variable names in scheme: {names}")
        for name, count in self.variables:
            if count < 2:
                raise DomainError(
                    f"variable {name!r} needs at least 2 categories, got {count}"
                )

    @classmethod
    def of(cls, *variables: tuple[str, int]) -> "VariableScheme":
        return cls(tuple((str(n), int(c)) for n, c in variables))

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    @cached_property
    def counts(self) -> tuple[int, ...]:
        return tuple(count for _, count in self.variables)

    @property
    def size(self) -> int:
        return len(self.variables)

    @cached_property
    def n_states(self) -> int:
        out = 1
        for c in self.counts:
            out *= c
        return out

    @cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        """All joint states as 1-based tuples, row-major order."""
        ranges = [range(1, c + 1) for c in self.counts]
        return tuple(itertools.product(*ranges))

    @cached_property
    def _state_index(self) -> dict[tuple[int, ...], int]:
        return {state: i for i, state in enumerate(self.states)}

    def state_index(self, state: tuple[int, ...]) -> int:
        try:
            return self._state_index[tuple(state)]
        except KeyError:
            raise DomainError(f"state {tuple(state)} not in scheme {self.names}")

    def positions(self, names) -> tuple[int, ...]:
        """0-based positions of the given variable names, in scheme order."""
        wanted = set(names)
        unknown = wanted - set(self.names)
        if unknown:
            raise DomainError(f"unknown variables {sorted(unknown)}; scheme has {self.names}")
        return tuple(i for i, name in enumerate(self.names) if name in wanted)

    def names_at(self, positions) -> tuple[str, ...]:
        return tuple(self.names[i] for i in positions)

    def support(self, state) -> tuple[int, ...]:
        """Positions where a state sits above baseline."""
        return tuple(i for i, v in enumerate(state) if v != BASELINE)

    def __str__(self) -> str:
        return ", ".join(f"{n}({c})" for n, c in self.variables)


def validate_categories(scheme: VariableScheme, rows: np.ndarray) -> None:
    """Check that every entry of an integer array is a valid category."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != scheme.size:
        raise DomainError(
            f"expected rows of {scheme.size} categories for scheme ({scheme}), "
            f"got shape {rows.shape}"
        )
    for j, (name, count) in enumerate(scheme.variables):
        col = rows[:, j]
        bad = (col < 1) | (col > count)
        if bad.any():
            t = int(np.argmax(bad))
            raise DomainError(
                f"category {col[t]} out of range 1..{count} for variable {name!r} at row {t}"
            )
