import time

import numpy as np
import pytest

from mhmm import CapacityError, DomainError, IndependenceStatement, MixedChainGraph, graphs_equivalent
from helpers import brute_connected_subsets, brute_graphs_equivalent, random_mixed_graph


def chain(bidir_lat=(), directed=(), emit=(), bidir_obs=(), obs=("F1", "F2"), self_parents=True):
    return MixedChainGraph.build(
        latent=("E1", "E2", "E3"),
        observed=obs,
        directed_latent=directed,
        bidirected_latent=bidir_lat,
        emit=emit or tuple(("E1", f) for f in obs),
        bidirected_obs=bidir_obs,
        self_parents=self_parents,
    )


def test_build_adds_self_loops_by_default():
    g = chain()
    assert ("E1", "E1") in g.directed_latent
    assert ("E2", "E2") in g.directed_latent
    g0 = chain(self_parents=False)
    assert g0.directed_latent == frozenset()


def test_parents_and_spouses():
    g = chain(bidir_lat=(("E1", "E2"),), directed=(("E1", "E3"),))
    assert g.parents(["E3"]) == frozenset({"E1", "E3"})
    assert g.parents(["E1", "E3"]) == frozenset({"E1", "E3"})
    assert g.spouses(["E1"]) == frozenset({"E1", "E2"})
    assert g.spouses(["E3"]) == frozenset({"E3"})
    assert g.parents(["F1"]) == frozenset({"E1"})
    with pytest.raises(DomainError):
        g.spouses(["E1", "F1"])


def test_node_validation():
    with pytest.raises(DomainError):
        MixedChainGraph.build(latent=("E1", "E1"))
    with pytest.raises(DomainError):
        MixedChainGraph.build(latent=("X",), observed=("X",))
    with pytest.raises(DomainError):
        MixedChainGraph.build(latent=("E1",), observed=("F1",), emit=(("F1", "E1"),))
    with pytest.raises(DomainError):
        MixedChainGraph.build(latent=("E1", "E2"), bidirected_latent=(("E1", "E1"),))
    with pytest.raises(CapacityError):
        MixedChainGraph.build(latent=tuple(f"E{i}" for i in range(17)))


def test_bi_connected_family_matches_enumeration(rng):
    for _ in range(25):
        names = tuple(f"E{i}" for i in range(1, int(rng.integers(2, 7))))
        edges = [
            (a, b)
            for i, a in enumerate(names)
            for b in names[i + 1 :]
            if rng.random() < 0.45
        ]
        g = MixedChainGraph.build(latent=names, bidirected_latent=edges)
        assert g.bi_connected_family("latent") == brute_connected_subsets(names, edges)


def test_bi_connected_family_observable_block():
    g = chain(bidir_obs=(("F1", "F2"),))
    fam = g.bi_connected_family("observable")
    assert frozenset({"F1", "F2"}) in fam
    assert frozenset({"F1"}) in fam
    with pytest.raises(DomainError):
        g.bi_connected_family("emission")


def test_granger_statements_two_chain():
    g = MixedChainGraph.build(latent=("E1", "E2"), directed_latent=())
    stmts = {s.render() for s in g.latent_independencies() if s.kind == "granger"}
    assert "E[E1](t) _||_ E[E2](t-1) | E[E1](t-1)" in stmts
    assert "E[E2](t) _||_ E[E1](t-1) | E[E2](t-1)" in stmts


def test_contemporaneous_statements_condition_on_full_past():
    g = MixedChainGraph.build(latent=("E1", "E2", "E3"), bidirected_latent=(("E1", "E2"),))
    stmts = [s for s in g.latent_independencies() if s.kind == "contemporaneous"]
    by_left = {tuple(sorted(s.left)): s for s in stmts}
    s = by_left[("E3",)]
    assert s.right == frozenset({"E1", "E2"})
    assert s.cond == frozenset({"E1", "E2", "E3"})
    s = by_left[("E1",)]
    assert s.right == frozenset({"E3"})


def test_full_graph_has_no_statements():
    g = MixedChainGraph.build(
        latent=("E1", "E2"),
        observed=("F1",),
        directed_latent=(("E1", "E2"), ("E2", "E1")),
        bidirected_latent=(("E1", "E2"),),
        emit=(("E1", "F1"), ("E2", "F1")),
    )
    assert g.independencies() == []


def test_emission_and_local_statements():
    g = MixedChainGraph.build(
        latent=("E1", "E2"),
        observed=("F1", "F2"),
        emit=(("E1", "F1"), ("E2", "F2")),
    )
    rendered = {s.render() for s in g.observation_independencies()}
    assert "F[F1](t) _||_ E[E2](t) | E[E1](t)" in rendered
    assert "F[F1](t) _||_ F[F2](t) | E[E1,E2](t)" in rendered
    # multi-target emission statements pool the parents
    both = [
        s
        for s in g.observation_independencies()
        if s.kind == "emission" and s.left == frozenset({"F1", "F2"})
    ]
    assert both == []


def test_minimal_only_drops_implied_statements():
    # one driver, no self-loops: every target shares the parent set {E1}
    g = MixedChainGraph.build(
        latent=("E1", "E2", "E3"),
        directed_latent=(("E1", "E1"), ("E1", "E2"), ("E1", "E3")),
        self_parents=False,
    )
    full = [s for s in g.latent_independencies() if s.kind == "granger"]
    kept = [s for s in g.latent_independencies(minimal_only=True) if s.kind == "granger"]
    assert len(full) == 7
    assert len(kept) == 1
    assert kept[0].left == frozenset({"E1", "E2", "E3"})
    assert kept[0].cond == frozenset({"E1"})


def test_granger_sides_may_share_names_across_time():
    g = MixedChainGraph.build(latent=("E1", "E2"), self_parents=False)
    stmts = [s for s in g.latent_independencies() if s.kind == "granger"]
    # no parents at all: everything at time t is independent of the past
    assert any(s.left == frozenset({"E1", "E2"}) and s.right == frozenset({"E1", "E2"}) for s in stmts)
    with pytest.raises(DomainError):
        IndependenceStatement("granger", frozenset({"E1"}), frozenset({"E2"}), frozenset({"E2"}))


def test_statement_validation_and_render():
    with pytest.raises(DomainError):
        IndependenceStatement("contemporaneous", frozenset({"E1"}), frozenset({"E1"}), frozenset())
    with pytest.raises(DomainError):
        IndependenceStatement("weird", frozenset({"E1"}), frozenset({"E2"}), frozenset())
    s = IndependenceStatement(
        "granger", frozenset({"E1"}), frozenset({"E2"}), frozenset({"E1", "E3"})
    )
    assert str(s) == "E[E1](t) _||_ E[E2](t-1) | E[E1,E3](t-1)"


# one rendered statement per kind: block letters and time tags of each side
RENDERED = {
    "granger": (({"E1"}, {"E1", "E2"}, {"E3"}), "E[E1](t) _||_ E[E1,E2](t-1) | E[E3](t-1)"),
    "contemporaneous": (
        ({"E2"}, {"E1", "E3"}, {"E1", "E2", "E3"}), "E[E2](t) _||_ E[E1,E3](t) | E[E1,E2,E3](t-1)"
    ),
    "local": (({"F2"}, {"F1", "F3"}, {"E1"}), "F[F2](t) _||_ F[F1,F3](t) | E[E1](t)"),
    "emission": (({"F1"}, {"E2"}, {"E1", "E3"}), "F[F1](t) _||_ E[E2](t) | E[E1,E3](t)"),
}


@pytest.mark.parametrize("kind", RENDERED)
def test_statement_renders_each_kind(kind):
    sides, text = RENDERED[kind]
    assert IndependenceStatement(kind, *map(frozenset, sides)).render() == text


def linked_graph():
    return MixedChainGraph.build(
        latent=("E1", "E2"),
        observed=("F1", "F2"),
        bidirected_latent=(("E1", "E2"),),
        emit=(("E1", "F1"), ("E2", "F2")),
    )


def coupled_graph():
    return MixedChainGraph.build(
        latent=("E1", "E2"),
        observed=("F1", "F2"),
        directed_latent=(("E1", "E2"), ("E2", "E1")),
        emit=(("E1", "F1"), ("E2", "F2")),
    )


def test_classify_partitioned_families():
    parts = ((("E1",), ("E2",)), (("F1",), ("F2",)))
    assert linked_graph().classify(*parts) == "linked"
    assert coupled_graph().classify(*parts) == "coupled"
    plain = MixedChainGraph.build(
        latent=("E1", "E2"), observed=("F1", "F2"), emit=(("E1", "F1"), ("E2", "F2"))
    )
    assert plain.classify(*parts) == "both"
    crossed = MixedChainGraph.build(
        latent=("E1", "E2"),
        observed=("F1", "F2"),
        emit=(("E1", "F1"), ("E2", "F2"), ("E2", "F1")),
    )
    assert crossed.classify(*parts) == "neither"
    with pytest.raises(DomainError):
        plain.classify((("E1",),), (("F1",), ("F2",)))


def test_preserves_marginal():
    assert linked_graph().preserves_marginal(["E1"], ["F1"])
    assert not coupled_graph().preserves_marginal(["E1"], ["F1"])
    # observable parents must come from inside the kept latent set
    g = MixedChainGraph.build(
        latent=("E1", "E2"),
        observed=("F1",),
        emit=(("E1", "F1"), ("E2", "F1")),
    )
    assert not g.preserves_marginal(["E1"], ["F1"])
    assert g.preserves_marginal(["E1", "E2"], ["F1"])
    with pytest.raises(DomainError):
        g.preserves_marginal([], ["F1"])


def generic_specific(generic, spec_a, spec_b):
    """One latent chain drives both observables, two others one each."""
    return MixedChainGraph.build(
        latent=("G", "A", "B"),
        observed=("F1", "F2"),
        directed_latent=((generic, spec_a), (generic, spec_b)),
        emit=((generic, "F1"), (generic, "F2"), (spec_a, "F1"), (spec_b, "F2")),
    )


def test_graphs_equivalent_under_latent_relabeling():
    g1 = generic_specific("G", "A", "B")
    g2 = generic_specific("G", "B", "A")
    nu = graphs_equivalent(g1, g2)
    assert nu is not None
    assert nu["G"] == "G" and nu["A"] == "B" and nu["B"] == "A"
    assert graphs_equivalent(g1, g1) is not None


def test_graphs_equivalent_respects_cardinalities():
    g1 = generic_specific("G", "A", "B")
    g2 = generic_specific("G", "B", "A")
    assert graphs_equivalent(g1, g2, {"G": 3, "A": 2, "B": 2}) is not None
    assert graphs_equivalent(g1, g2, {"G": 2, "A": 3, "B": 2}) is None
    assert (
        graphs_equivalent(g1, g2, {"G": 2, "A": 3, "B": 2}, {"G": 2, "B": 3, "A": 2})
        is not None
    )


def test_graphs_equivalent_breaks_on_emission_change():
    g1 = generic_specific("G", "A", "B")
    moved = MixedChainGraph.build(
        latent=("G", "A", "B"),
        observed=("F1", "F2"),
        directed_latent=(("G", "A"), ("G", "B")),
        emit=(("G", "F1"), ("G", "F2"), ("A", "F2"), ("B", "F2")),
    )
    assert graphs_equivalent(g1, moved) is None


def test_graphs_equivalent_requires_matching_observable_block():
    g1 = chain(bidir_obs=(("F1", "F2"),))
    g2 = chain()
    assert graphs_equivalent(g1, g2) is None


def relabeled(g, nu):
    """The graph with every latent name a renamed nu[a]."""
    return MixedChainGraph(
        latent=g.latent,
        observed=g.observed,
        directed_latent=frozenset((nu[a], nu[b]) for a, b in g.directed_latent),
        bidirected_latent=frozenset(
            tuple(sorted((nu[a], nu[b]))) for a, b in g.bidirected_latent
        ),
        directed_emit=frozenset((nu[a], f) for a, f in g.directed_emit),
        bidirected_obs=g.bidirected_obs,
    )


def toggled(g, rng):
    """The graph with one latent or emission edge added or removed."""
    latent = sorted(g.latent)
    kind = int(rng.integers(3))
    a, b = (latent[int(i)] for i in rng.integers(len(latent), size=2))
    if kind == 0:
        return MixedChainGraph(
            g.latent, g.observed, g.directed_latent ^ {(a, b)}, g.bidirected_latent,
            g.directed_emit, g.bidirected_obs,
        )
    if kind == 1 and a != b:
        return MixedChainGraph(
            g.latent, g.observed, g.directed_latent, g.bidirected_latent ^ {tuple(sorted((a, b)))},
            g.directed_emit, g.bidirected_obs,
        )
    f = g.observed[int(rng.integers(len(g.observed)))]
    return MixedChainGraph(
        g.latent, g.observed, g.directed_latent, g.bidirected_latent,
        g.directed_emit ^ {(a, f)}, g.bidirected_obs,
    )


def test_graphs_equivalent_agrees_with_the_exhaustive_search(rng):
    """On random pairs of up to 6 latents, each graph against a relabeling
    of itself, perturbed by one edge or one state count half the time, the
    backtracking search gives the exhaustive search's answer: the same
    first bijection, or None."""
    found = missed = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        names = [f"L{i}" for i in range(n)]
        density = rng.uniform(0.0, 0.6)
        g1 = random_mixed_graph(
            rng, names, ["F1", "F2"], p_dir=density, p_bidir=density, p_emit=density
        )
        nu = dict(zip(names, rng.permutation(names).tolist()))
        g2 = relabeled(g1, nu)
        cards1 = {a: int(c) for a, c in zip(names, rng.integers(2, 4, size=n))}
        cards2 = {nu[a]: c for a, c in cards1.items()}
        if rng.random() < 0.5:
            if rng.random() < 0.8:
                g2 = toggled(g2, rng)
            else:
                cards2[names[0]] += 1
        want = brute_graphs_equivalent(g1, g2, cards1, cards2)
        assert graphs_equivalent(g1, g2, cards1, cards2) == want
        assert graphs_equivalent(g1, g2) == brute_graphs_equivalent(g1, g2)
        found += want is not None
        missed += want is None
    assert found > 50 and missed > 50


@pytest.mark.parametrize("case", ["chain-reversed", "bidirected-edge-added", "cycle-split"])
def test_graphs_equivalent_refuses_large_inequivalent_pairs_at_once(case):
    """12 latents admit 12! relabelings, which the exhaustive search cannot
    try; a pair whose node signatures differ, or whose partial maps break
    an edge early, is refused in well under a second."""
    names = [f"L{i:02d}" for i in range(12)]
    if case == "chain-reversed":
        steps = list(zip(names, names[1:]))
        g1 = MixedChainGraph.build(names, ("F1",), directed_latent=steps, emit=[("L00", "F1")])
        g2 = MixedChainGraph.build(
            names, ("F1",), directed_latent=[(b, a) for a, b in steps], emit=[("L00", "F1")]
        )
    elif case == "bidirected-edge-added":
        g1 = MixedChainGraph.build(names, ("F1",), emit=[(a, "F1") for a in names])
        g2 = MixedChainGraph.build(
            names, ("F1",), bidirected_latent=[("L00", "L01")], emit=[(a, "F1") for a in names]
        )
    else:
        # one 12-cycle against two 6-cycles: every node has the same signature
        emit = [(a, "F1") for a in names]
        g1 = MixedChainGraph.build(names, ("F1",), zip(names, names[1:] + names[:1]), emit=emit)
        halves = [names[:6], names[6:]]
        split = [(h[i], h[(i + 1) % 6]) for h in halves for i in range(6)]
        g2 = MixedChainGraph.build(names, ("F1",), split, emit=emit)
    start = time.perf_counter()
    assert graphs_equivalent(g1, g2) is None
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_graphs_equivalent_refuses_a_long_cycle_against_two_short_ones_at_once(seed):
    """A bi-directed 16-cycle against two 8-cycles over shuffled latent
    names, every latent emitting F1: all nodes share degree and emissions,
    and the sorted names do not follow the edges, so only the component
    sizes in the signature tell the graphs apart in time."""
    names = [f"L{i:02d}" for i in range(16)]
    order = [str(a) for a in np.random.default_rng(seed).permutation(names)]
    emit = [(a, "F1") for a in names]
    cycle = [(order[i], order[(i + 1) % 16]) for i in range(16)]
    halves = [order[:8], order[8:]]
    split = [(h[i], h[(i + 1) % 8]) for h in halves for i in range(8)]
    g1 = MixedChainGraph.build(names, ("F1",), bidirected_latent=cycle, emit=emit)
    g2 = MixedChainGraph.build(names, ("F1",), bidirected_latent=split, emit=emit)
    start = time.perf_counter()
    assert graphs_equivalent(g1, g2) is None
    assert time.perf_counter() - start < 1.0
