import hashlib

import numpy as np
import pytest

from mhmm import (
    ConstraintSet,
    DomainError,
    InteractionIndex,
    InteractionSpace,
    MixedChainGraph,
    VariableScheme,
    additivity_constraints,
    count_free_parameters,
    graph_constraints,
    invariant_association_constraints,
    parse_model_spec,
    total_parameter_count,
    user_zero_constraints,
)
from mhmm.constraints import check_nested
from conftest import TRIAD_TABLE, PANEL_TABLE

LAT = VariableScheme.of(("E1", 2), ("E2", 2))
OBS = VariableScheme.of(("F1", 3), ("F2", 3), ("F3", 3))


def panel_graph(directed=(), emit="full", obs_bidir=True):
    emits = {
        "full": tuple((f"E{i}", f"F{j}") for i in (1, 2) for j in (1, 2, 3)),
        "ci": (("E1", "F1"), ("E2", "F2"), ("E2", "F3")),
    }[emit]
    return MixedChainGraph.build(
        latent=("E1", "E2"),
        observed=("F1", "F2", "F3"),
        directed_latent=directed,
        bidirected_latent=(("E1", "E2"),),
        emit=emits,
        bidirected_obs=(("F1", "F2"), ("F1", "F3"), ("F2", "F3")) if obs_bidir else (),
    )


def test_total_parameter_count_panel():
    # 4 rows x 3 free transition cells + 4 states x 26 free emission cells
    assert total_parameter_count(LAT, OBS) == 116
    assert total_parameter_count(LAT, None) == 12


def test_complete_graph_compiles_to_nothing():
    g = panel_graph(directed=(("E1", "E2"), ("E2", "E1")))
    cs = graph_constraints(g, LAT, OBS)
    assert cs.distinct_count() == 0
    assert count_free_parameters(LAT, OBS, cs) == 116


def test_granger_family_zeroes_four_transition_indices():
    cs = graph_constraints(panel_graph(), LAT, OBS)
    assert cs.family_counts().get("granger") == 4
    for index in cs.indices("delta"):
        # each zeroed coefficient ties one chain to the other chain's lag
        (resp,) = index.response_vars
        other = {"E1": "E2", "E2": "E1"}[resp]
        assert other in index.cond_vars
    assert count_free_parameters(LAT, OBS, cs) == 112


def test_emission_family_zeroes_twenty_indices():
    full = graph_constraints(
        panel_graph(directed=(("E1", "E2"), ("E2", "E1")), emit="ci"), LAT, OBS
    )
    assert full.family_counts().get("emission") == 20
    assert count_free_parameters(LAT, OBS, full) == 96


def test_local_family_without_observable_couplings():
    cs = graph_constraints(
        panel_graph(directed=(("E1", "E2"), ("E2", "E1")), emit="ci", obs_bidir=False),
        LAT,
        OBS,
    )
    # every multi-variable response margin dies, under all conditioning margins
    assert cs.family_counts().get("local") == 80
    assert count_free_parameters(LAT, OBS, cs) == 24


def test_contemporaneous_family_zeroes_pair_margin():
    g = MixedChainGraph.build(
        latent=("E1", "E2"),
        directed_latent=(("E1", "E2"), ("E2", "E1")),
    )
    cs = graph_constraints(g, LAT, None)
    # the latent pair is not bi-connected: its margin dies for every Q
    assert cs.family_counts().get("contemporaneous") == 4
    assert all(i.response_vars == ("E1", "E2") for i in cs.indices("delta"))


def test_additivity_counts():
    single = additivity_constraints(VariableScheme.of(("E1", 2)), OBS, "emission")
    assert single.distinct_count() == 0
    cs = additivity_constraints(LAT, OBS, "emission")
    assert cs.distinct_count() == 26
    assert all(len(i.cond_vars) > 1 for i in cs.indices("theta"))
    lat3 = VariableScheme.of(("E1", 2), ("E2", 2), ("E3", 2))
    obs3 = VariableScheme.of(("F1", 2), ("F2", 2), ("F3", 2))
    cs3 = additivity_constraints(lat3, obs3, "emission")
    # margins with 2 or 3 conditioning variables: (3 + 1) x 7 response cells
    assert cs3.distinct_count() == 28


def test_invariant_association_counts():
    cs = invariant_association_constraints(LAT, OBS, "transition")
    assert cs.distinct_count() == 3
    assert all(i.response_vars == ("E1", "E2") and i.cond_vars for i in cs.indices("delta"))
    none = invariant_association_constraints(VariableScheme.of(("E1", 4)), None, "transition")
    assert none.distinct_count() == 0
    # the conditioning-free association coefficient stays untouched
    free = InteractionIndex("delta", ("E1", "E2"), (), (2, 2), ())
    assert free not in cs.entries


def test_user_zero_constraints():
    cs = user_zero_constraints(LAT, OBS, "theta", ("F1", "F2"), ("E1",))
    assert cs.distinct_count() == 4
    assert all(i.response_vars == ("F1", "F2") for i in cs.indices("theta"))
    with pytest.raises(DomainError):
        user_zero_constraints(LAT, OBS, "theta", ("E1",), ())
    with pytest.raises(DomainError):
        user_zero_constraints(LAT, None, "theta", ("F1",), ())


def test_merge_unions_provenance():
    a = graph_constraints(panel_graph(directed=(("E1", "E2"), ("E2", "E1")), emit="ci"), LAT, OBS)
    b = invariant_association_constraints(LAT, OBS, "emission")
    merged = a.merge(b)
    overlap = set(a.entries) & set(b.entries)
    assert len(overlap) == 8
    assert merged.distinct_count() == len(set(a.entries) | set(b.entries))
    for index in overlap:
        assert merged.entries[index] == {"emission", "invariant_association"}
    with pytest.raises(DomainError):
        a.merge(ConstraintSet(VariableScheme.of(("X", 2)), None))


def test_tallied_count_double_counts_association_overlap():
    a = graph_constraints(panel_graph(directed=(("E1", "E2"), ("E2", "E1")), emit="ci"), LAT, OBS)
    b = invariant_association_constraints(LAT, OBS, "emission")
    merged = a.merge(b)
    assert merged.tallied_count() == merged.distinct_count() + 8


def test_mask_matches_indices():
    cs = graph_constraints(panel_graph(), LAT, OBS)
    space = InteractionSpace(LAT, LAT, "delta")
    mask = cs.mask(space)
    assert mask.sum() == 4
    for index in cs.indices("delta"):
        row, col = space.locate(index)
        assert mask[row, col]


def test_nesting_by_index_superset():
    small = graph_constraints(panel_graph(directed=(("E1", "E2"), ("E2", "E1"))), LAT, OBS)
    big = graph_constraints(panel_graph(), LAT, OBS)
    check_nested(big, small, ("big", "small"))
    with pytest.raises(DomainError, match="model 'small' is not nested in 'big'"):
        check_nested(small, big, ("small", "big"))


@pytest.mark.parametrize("label", sorted(PANEL_TABLE))
def test_panel_parameter_counts(label):
    text, expected = PANEL_TABLE[label]
    spec = parse_model_spec(text, label=label)
    cs = spec.compile()
    assert count_free_parameters(spec.latent_scheme, spec.obs_scheme, cs) == expected


@pytest.mark.parametrize("label", sorted(TRIAD_TABLE))
def test_triad_parameter_counts(label):
    text, expected = TRIAD_TABLE[label]
    spec = parse_model_spec(text, label=label)
    cs = spec.compile()
    assert count_free_parameters(spec.latent_scheme, spec.obs_scheme, cs) == expected


def test_triad_partition_classification():
    linked = parse_model_spec(TRIAD_TABLE["linked"][0], label="linked")
    coupled = parse_model_spec(TRIAD_TABLE["coupled"][0], label="coupled")
    lat_parts = (("E1",), ("E2",), ("E3",))
    obs_parts = (("F1",), ("F2",), ("F3",))
    assert linked.graph.classify(lat_parts, obs_parts) == "linked"
    assert coupled.graph.classify(lat_parts, obs_parts) == "coupled"


# sha256 over every conftest spec's compiled zero set and rendered graph
# statements, recorded before the graph and hypothesis compilers were
# rewritten; any change to an index, a provenance, a mask or a statement
# (text or order) moves it.
GOLDEN_COMPILE = "8bb28ddfac79a3d10ff77dc3e815df3ba14fb5b65564f9895a72f5c14dc1e792"


def test_compiled_specs_match_golden_digest():
    digest = hashlib.sha256()
    for table_name, table in (("panel", PANEL_TABLE), ("triad", TRIAD_TABLE)):
        for label, (text, _) in table.items():
            spec = parse_model_spec(text, label=label)
            cs = spec.compile()
            digest.update(f"{table_name}/{label}\n".encode())
            for index in sorted(cs.entries):
                digest.update(f"{index!r} {sorted(cs.entries[index])}\n".encode())
            lat, obs = spec.latent_scheme, spec.obs_scheme
            for space in (InteractionSpace(lat, lat, "delta"), InteractionSpace(obs, lat, "theta")):
                digest.update(cs.mask(space).tobytes())
            for minimal_only in (False, True):
                for statement in spec.graph.independencies(minimal_only):
                    digest.update(f"{statement.render()}\n".encode())
    assert digest.hexdigest() == GOLDEN_COMPILE
