"""Zero constraints on interaction coefficients and free-parameter counts.

A mixed-chain graph translates into linear zero restrictions: lagged
(granger) structure zeroes transition coefficients whose conditioning margin
escapes the parents of the response margin, contemporaneous structure zeroes
transition coefficients whose response margin is not bi-connected, and the
observable block does the same for emission coefficients (emission parents
and local bi-connectedness). Two further hypothesis families are graph-free:
additivity zeroes every coefficient with two or more conditioning variables,
and invariant association zeroes every coefficient whose response margin has
two or more variables and whose conditioning margin is nonempty, leaving the
state-free association term untouched.

Each zeroed index records the set of families that produced it. Free
parameter counts tally graph-derived, user and additivity restrictions once
per distinct index, while invariant-association restrictions are tallied as
stated, on top of any graph restriction hitting the same index. That
convention matches the conventional accounting for combined hypotheses and
keeps reported degrees of freedom additive across hypothesis families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .graphs import MixedChainGraph
from .interactions import InteractionIndex, InteractionSpace
from .schemes import VariableScheme

IA_FAMILY = "invariant_association"


@dataclass
class ConstraintSet:
    """Zeroed interaction indices with per-index provenance."""

    latent_scheme: VariableScheme
    obs_scheme: VariableScheme | None
    entries: dict[InteractionIndex, frozenset[str]] = field(default_factory=dict)

    def add(self, index: InteractionIndex, family: str) -> None:
        if index.kind == "theta" and self.obs_scheme is None:
            raise DomainError("theta constraint on a model without observables")
        current = self.entries.get(index, frozenset())
        self.entries[index] = current | {family}

    def merge(self, other: "ConstraintSet") -> "ConstraintSet":
        if other.latent_scheme != self.latent_scheme or other.obs_scheme != self.obs_scheme:
            raise DomainError("cannot merge constraint sets over different schemes")
        merged = ConstraintSet(self.latent_scheme, self.obs_scheme, dict(self.entries))
        for index, families in other.entries.items():
            merged.entries[index] = merged.entries.get(index, frozenset()) | families
        return merged

    def indices(self, kind: str) -> set[InteractionIndex]:
        return {i for i in self.entries if i.kind == kind}

    def mask(self, space: InteractionSpace):
        """Boolean zero mask over a space, rows by conditioning state."""
        out = np.zeros((space.condition.n_states, space.n_columns), dtype=bool)
        for index in self.indices(space.kind):
            row, col = space.locate(index)
            out[row, col] = True
        return out

    def family_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for families in self.entries.values():
            for fam in families:
                counts[fam] = counts.get(fam, 0) + 1
        return counts

    def distinct_count(self) -> int:
        return len(self.entries)

    def tallied_count(self) -> int:
        """Restriction count used for reported degrees of freedom.

        Distinct indices outside the invariant-association family count
        once; the invariant-association family then counts in full, so an
        index carrying both a graph and an association provenance
        contributes twice.
        """
        non_ia = sum(1 for fams in self.entries.values() if fams - {IA_FAMILY})
        ia = sum(1 for fams in self.entries.values() if IA_FAMILY in fams)
        return non_ia + ia


def check_nested(restricted: ConstraintSet, full: ConstraintSet, labels: tuple[str, str]) -> None:
    """Raise DomainError unless the model of restricted is nested in that of
    full: both have the same latent and observable schemes, and restricted
    zeroes every index that full zeroes (and possibly more). labels name
    the two models in the message."""
    not_nested = f"model {labels[0]!r} is not nested in {labels[1]!r}"
    schemes = restricted.latent_scheme, restricted.obs_scheme
    if schemes != (full.latent_scheme, full.obs_scheme):
        raise DomainError(
            f"{not_nested}: latent {schemes[0]}, observed {schemes[1]}"
            f" against latent {full.latent_scheme}, observed {full.obs_scheme}"
        )
    if not set(full.entries) <= set(restricted.entries):
        raise DomainError(not_nested)


def _zero_blocks(cs, space, family, zeroed):
    """Zero every coefficient of a space whose (response margin P,
    conditioning margin Q) block satisfies zeroed(P, Q)."""
    for row, (Q, _) in enumerate(space.combos):
        for col, (P, _) in enumerate(space.columns):
            if zeroed(P, Q):
                cs.add(space.index_at(row, col), family)


def _space(latent_scheme, obs_scheme, target):
    if target == "transition":
        return InteractionSpace(latent_scheme, latent_scheme, "delta")
    if target == "emission":
        if obs_scheme is None:
            raise DomainError("emission constraints need an observable scheme")
        return InteractionSpace(obs_scheme, latent_scheme, "theta")
    raise DomainError(f"target must be transition or emission, got {target!r}")


def graph_constraints(
    graph: MixedChainGraph,
    latent_scheme: VariableScheme,
    obs_scheme: VariableScheme | None,
) -> ConstraintSet:
    """Compile a mixed-chain graph into its zero restrictions."""
    if tuple(graph.latent) != latent_scheme.names:
        raise DomainError(
            f"graph latent nodes {graph.latent} do not match scheme {latent_scheme.names}"
        )
    if graph.observed and (obs_scheme is None or tuple(graph.observed) != obs_scheme.names):
        have = None if obs_scheme is None else obs_scheme.names
        raise DomainError(f"graph observable nodes {graph.observed} do not match scheme {have}")
    cs = ConstraintSet(latent_scheme, obs_scheme)
    blocks = (
        ("transition", "latent", "granger", "contemporaneous"),
        ("emission", "observable", "emission", "local"),
    )
    for target, block, lagged, association in blocks:
        if block == "observable" and not graph.observed:
            continue
        space = _space(latent_scheme, obs_scheme, target)
        names, cond_names = space.response.names_at, space.condition.names_at
        parents = {P: graph.parents(names(P)) for P in space.margins}
        bi_connected = graph.bi_connected_family(block)
        _zero_blocks(cs, space, lagged, lambda P, Q: not set(cond_names(Q)) <= parents[P])
        _zero_blocks(cs, space, association, lambda P, Q: frozenset(names(P)) not in bi_connected)
    return cs


def additivity_constraints(
    latent_scheme: VariableScheme,
    obs_scheme: VariableScheme | None,
    target: str,
) -> ConstraintSet:
    """Zero every coefficient conditioned on two or more variables."""
    space = _space(latent_scheme, obs_scheme, target)
    cs = ConstraintSet(latent_scheme, obs_scheme)
    _zero_blocks(cs, space, "additivity", lambda P, Q: len(Q) > 1)
    return cs


def invariant_association_constraints(
    latent_scheme: VariableScheme,
    obs_scheme: VariableScheme | None,
    target: str,
) -> ConstraintSet:
    """Make all higher-order response margins state-free.

    Zeroes coefficients with two or more response variables and a nonempty
    conditioning margin; the state-free association term stays free.
    """
    space = _space(latent_scheme, obs_scheme, target)
    cs = ConstraintSet(latent_scheme, obs_scheme)
    _zero_blocks(cs, space, IA_FAMILY, lambda P, Q: len(P) > 1 and len(Q) > 0)
    return cs


def user_zero_constraints(
    latent_scheme: VariableScheme,
    obs_scheme: VariableScheme | None,
    kind: str,
    response_vars,
    cond_vars,
) -> ConstraintSet:
    """Zero one (response margin, conditioning margin) block by name."""
    target = "transition" if kind == "delta" else "emission"
    space = _space(latent_scheme, obs_scheme, target)
    rpos = space.response.positions(response_vars)
    qpos = space.condition.positions(cond_vars)
    if not rpos:
        raise DomainError("user zero needs a nonempty response margin")
    cs = ConstraintSet(latent_scheme, obs_scheme)
    _zero_blocks(cs, space, "user", lambda P, Q: P == rpos and Q == qpos)
    return cs


def total_parameter_count(
    latent_scheme: VariableScheme, obs_scheme: VariableScheme | None
) -> int:
    total = latent_scheme.n_states * (latent_scheme.n_states - 1)
    if obs_scheme is not None:
        total += latent_scheme.n_states * (obs_scheme.n_states - 1)
    return total


def count_free_parameters(
    latent_scheme: VariableScheme,
    obs_scheme: VariableScheme | None,
    constraints: ConstraintSet,
) -> int:
    """Free parameters of a constrained model under the reporting tally."""
    if constraints.latent_scheme != latent_scheme or constraints.obs_scheme != obs_scheme:
        raise DomainError("constraint set does not match the given schemes")
    return total_parameter_count(latent_scheme, obs_scheme) - constraints.tallied_count()
