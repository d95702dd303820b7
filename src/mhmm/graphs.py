"""Mixed-chain graphs over latent and observable variables.

A mixed graph on the latent block carries directed edges (lagged influence,
including self-loops) and bi-directed edges (contemporaneous association).
The chain extension adds emission edges from latent to observable nodes and
bi-directed edges within the observable block. Nodes are identified by name;
latent and observable names must be disjoint. By convention every node is
its own spouse, and latent nodes are their own parents unless self-loops are
explicitly disabled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import CapacityError, DomainError
from .schemes import _subsets

BLOCK_CAP = 16


def _norm_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class IndependenceStatement:
    """One conditional independence read off a mixed-chain graph.

    kind is one of 'granger', 'contemporaneous', 'local', 'emission'.
    Time tags follow the kind: granger statements condition on the past,
    contemporaneous ones condition on the full past state, local and
    emission ones live at a single time point.
    """

    kind: str
    left: frozenset[str]
    right: frozenset[str]
    cond: frozenset[str]

    def __post_init__(self):
        if self.kind not in ("granger", "contemporaneous", "local", "emission"):
            raise DomainError(f"unknown statement kind {self.kind!r}")
        # only sets living at the same time point must be disjoint; a granger
        # left side names time-t copies and may reuse right/cond names
        if self.kind in ("contemporaneous", "local") and self.left & self.right:
            raise DomainError("statement sides at a shared time point must be disjoint")
        if self.kind in ("granger", "emission") and self.right & self.cond:
            raise DomainError("right side and conditioning set must be disjoint")
        if self.kind == "local" and (self.left | self.right) & self.cond:
            raise DomainError("conditioning set overlaps a statement side")

    # (block letter, time tag) of the left side, right side and conditioning set
    _SIDES = {
        "granger": (("E", "t"), ("E", "t-1"), ("E", "t-1")),
        "contemporaneous": (("E", "t"), ("E", "t"), ("E", "t-1")),
        "local": (("F", "t"), ("F", "t"), ("E", "t")),
        "emission": (("F", "t"), ("E", "t"), ("E", "t")),
    }

    def render(self) -> str:
        sides = (self.left, self.right, self.cond)
        left, right, cond = (
            f"{block}[{','.join(sorted(names))}]({tag})"
            for (block, tag), names in zip(self._SIDES[self.kind], sides)
        )
        return f"{left} _||_ {right} | {cond}"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class MixedChainGraph:
    """Mixed graph on latent nodes plus a chain extension to observables."""

    latent: tuple[str, ...]
    observed: tuple[str, ...]
    directed_latent: frozenset[tuple[str, str]]
    bidirected_latent: frozenset[tuple[str, str]]
    directed_emit: frozenset[tuple[str, str]]
    bidirected_obs: frozenset[tuple[str, str]]

    def __post_init__(self):
        if len(set(self.latent)) != len(self.latent):
            raise DomainError("duplicate latent node names")
        if len(set(self.observed)) != len(self.observed):
            raise DomainError("duplicate observable node names")
        if set(self.latent) & set(self.observed):
            raise DomainError("latent and observable node names must be disjoint")
        if len(self.latent) > BLOCK_CAP or len(self.observed) > BLOCK_CAP:
            raise CapacityError(
                f"subset enumeration is explicit; blocks are capped at {BLOCK_CAP} nodes"
            )
        if not self.latent:
            raise DomainError("a mixed-chain graph needs at least one latent node")
        lat, obs = set(self.latent), set(self.observed)
        for a, b in self.directed_latent:
            if a not in lat or b not in lat:
                raise DomainError(f"directed latent edge {a}->{b} leaves the latent block")
        for a, b in self.bidirected_latent:
            if a not in lat or b not in lat:
                raise DomainError(f"bi-directed latent edge {a}<->{b} leaves the latent block")
            if a == b:
                raise DomainError(f"bi-directed self edge {a}<->{a} is meaningless")
        for a, b in self.directed_emit:
            if a not in lat or b not in obs:
                raise DomainError(f"emission edge {a}->{b} must run latent to observable")
        for a, b in self.bidirected_obs:
            if a not in obs or b not in obs:
                raise DomainError(f"bi-directed observable edge {a}<->{b} leaves the block")
            if a == b:
                raise DomainError(f"bi-directed self edge {a}<->{a} is meaningless")

    @classmethod
    def build(
        cls,
        latent,
        observed=(),
        directed_latent=(),
        bidirected_latent=(),
        emit=(),
        bidirected_obs=(),
        self_parents: bool = True,
    ) -> "MixedChainGraph":
        """Normalize edge sets; add latent self-loops unless disabled."""
        latent = tuple(latent)
        observed = tuple(observed)
        directed = {(a, b) for a, b in directed_latent}
        if self_parents:
            directed |= {(v, v) for v in latent}
        return cls(
            latent=latent,
            observed=observed,
            directed_latent=frozenset(directed),
            bidirected_latent=frozenset(_norm_pair(a, b) for a, b in bidirected_latent),
            directed_emit=frozenset((a, b) for a, b in emit),
            bidirected_obs=frozenset(_norm_pair(a, b) for a, b in bidirected_obs),
        )

    # -- node bookkeeping ---------------------------------------------------

    def kind(self, name: str) -> str:
        if name in self.latent:
            return "latent"
        if name in self.observed:
            return "observable"
        raise DomainError(f"unknown node {name!r}")

    def _check_nodes(self, names) -> set[str]:
        names = set(names)
        for n in names:
            self.kind(n)
        return names

    # -- parents and spouses ------------------------------------------------

    def parents(self, nodes) -> frozenset[str]:
        """Union of direct parents of the given nodes.

        Latent targets collect tails of directed latent edges, observable
        targets collect tails of emission edges. Self-parenthood enters only
        through explicit self-loops.
        """
        nodes = self._check_nodes(nodes)
        out = set()
        for a, b in self.directed_latent:
            if b in nodes:
                out.add(a)
        for a, b in self.directed_emit:
            if b in nodes:
                out.add(a)
        return frozenset(out)

    def spouses(self, nodes) -> frozenset[str]:
        """Bi-directed neighbours of the given nodes, within one block.

        Every node is its own spouse, so the result always contains the
        input set.
        """
        nodes = self._check_nodes(nodes)
        kinds = {self.kind(n) for n in nodes}
        if len(kinds) > 1:
            raise DomainError("spouses are defined within a single block")
        edges = self.bidirected_latent if kinds == {"latent"} else self.bidirected_obs
        out = set(nodes)
        for a, b in edges:
            if a in nodes:
                out.add(b)
            if b in nodes:
                out.add(a)
        return frozenset(out)

    # -- bi-connected subsets -----------------------------------------------

    def bi_connected_family(self, block: str = "latent") -> frozenset[frozenset[str]]:
        """All nonempty subsets of a block that induce a connected
        bi-directed subgraph. Singletons are always connected."""
        if block == "latent":
            nodes, edges = self.latent, self.bidirected_latent
        elif block == "observable":
            nodes, edges = self.observed, self.bidirected_obs
        else:
            raise DomainError(f"unknown block {block!r}")
        adjacency = {n: set() for n in nodes}
        for a, b in edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        subsets = _subsets(nodes)[1:]
        return frozenset(frozenset(s) for s in subsets if _connected(set(s), adjacency))

    # -- independence statements ---------------------------------------------

    def latent_independencies(self, minimal_only: bool = False) -> list[IndependenceStatement]:
        """Granger and contemporaneous statements implied by the latent part.

        With minimal_only, only maximal target sets per parent image
        (granger) or spouse image (contemporaneous) are kept; the dropped
        statements are implied by marginalization.
        """
        granger, contemp = self._block_independencies(
            self.latent, "granger", "contemporaneous", minimal_only
        )
        return granger + contemp

    def observation_independencies(self, minimal_only: bool = False) -> list[IndependenceStatement]:
        """Local and emission statements implied by the observable part."""
        emission, local = self._block_independencies(
            self.observed, "emission", "local", minimal_only
        )
        return local + emission

    def _block_independencies(self, nodes, parent_kind, spouse_kind, minimal_only):
        """Per nonempty target set of one block: its parent statement (the
        latent nodes outside its parents, given them) and its spouse
        statement (the block nodes outside its spouses, given the whole
        latent block). Returns the two lists in target order."""
        latent, block = frozenset(self.latent), frozenset(nodes)
        by_parents, by_spouses = [], []
        for target in map(frozenset, _subsets(nodes)[1:]):
            pa = self.parents(target)
            if latent - pa:
                by_parents.append(IndependenceStatement(parent_kind, target, latent - pa, pa))
            sp = self.spouses(target)
            if block - sp:
                by_spouses.append(IndependenceStatement(spouse_kind, target, block - sp, latent))
        if minimal_only:
            return _keep_maximal(by_parents), _keep_maximal(by_spouses)
        return by_parents, by_spouses

    def independencies(self, minimal_only: bool = False) -> list[IndependenceStatement]:
        return self.latent_independencies(minimal_only) + self.observation_independencies(
            minimal_only
        )

    # -- structural classification -------------------------------------------

    def classify(self, latent_partition, obs_partition) -> str:
        """Classify the graph against paired partitions of the two blocks.

        Returns 'linked', 'coupled', 'both' or 'neither'. Component i pairs
        the i-th latent part with the i-th observable part. Linked requires
        each latent part to be closed under parents, coupled requires closure
        under spouses; both require the observable parts to be spouse-closed
        and driven exactly by their paired latent part.
        """
        latent_parts = [frozenset(p) for p in latent_partition]
        obs_parts = [frozenset(p) for p in obs_partition]
        if len(latent_parts) != len(obs_parts):
            raise DomainError("partitions must have the same number of components")
        _check_partition(latent_parts, set(self.latent), "latent")
        _check_partition(obs_parts, set(self.observed), "observable")
        shared = True
        for t_i, r_i in zip(latent_parts, obs_parts):
            if self.parents(r_i) != t_i or self.spouses(r_i) != r_i:
                shared = False
                break
        linked = shared and all(self.parents(t) == t for t in latent_parts)
        coupled = shared and all(self.spouses(t) == t for t in latent_parts)
        if linked and coupled:
            return "both"
        if linked:
            return "linked"
        if coupled:
            return "coupled"
        return "neither"

    def preserves_marginal(self, latent_subset, obs_subset) -> bool:
        """Whether the sub-process on the given nodes is again of the same
        hidden Markov form.

        Requires the latent subset to be parent-closed and the observable
        subset to draw its parents from within the latent subset. The second
        condition is a subset check: a proper subset already suffices for
        preservation, even though the closed-form statement asks for
        equality.
        """
        t = self._check_nodes(latent_subset)
        r = self._check_nodes(obs_subset)
        if any(self.kind(n) != "latent" for n in t):
            raise DomainError("latent_subset must contain latent nodes only")
        if any(self.kind(n) != "observable" for n in r):
            raise DomainError("obs_subset must contain observable nodes only")
        if not t:
            raise DomainError("latent_subset must be nonempty")
        return self.parents(t) == frozenset(t) and self.parents(r) <= frozenset(t)


def _connected(subset: set[str], adjacency: dict[str, set[str]]) -> bool:
    start = next(iter(subset))
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency[node] & subset:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen == subset


def _keep_maximal(statements: list[IndependenceStatement]) -> list[IndependenceStatement]:
    by_class: dict[frozenset[str], list[IndependenceStatement]] = {}
    for st in statements:
        by_class.setdefault(st.cond, []).append(st)
    kept = []
    for group in by_class.values():
        for st in group:
            if not any(other.left > st.left for other in group):
                kept.append(st)
    return kept


def _check_partition(parts, universe, label):
    union = set()
    for p in parts:
        if not p:
            raise DomainError(f"empty component in {label} partition")
        if p & union:
            raise DomainError(f"{label} partition components overlap")
        union |= p
    if union != universe:
        raise DomainError(f"{label} partition must cover {sorted(universe)}")


def graphs_equivalent(
    g1: MixedChainGraph,
    g2: MixedChainGraph,
    latent_cardinalities: dict[str, int] | None = None,
    latent_cardinalities2: dict[str, int] | None = None,
) -> dict[str, str] | None:
    """Search for a latent relabeling turning one graph into the other.

    Observable nodes stay fixed. A bijection must preserve latent state
    counts, map every latent edge to an edge of the same type in both
    directions, and preserve emission parenthood of every observable node.
    Returns the bijection as a dict, or None. The observable blocks must
    match exactly, including their bi-directed edges. Cardinality maps
    default to all-equal; the second map defaults to the first.
    """
    if set(g1.latent) != set(g2.latent) or tuple(g1.observed) != tuple(g2.observed):
        return None
    if g1.bidirected_obs != g2.bidirected_obs:
        return None
    cards1 = latent_cardinalities or {}
    cards2 = latent_cardinalities2 if latent_cardinalities2 is not None else cards1
    names = sorted(g1.latent)
    for image in itertools.permutations(names):
        nu = dict(zip(names, image))
        if _preserves_structure(g1, g2, nu, cards1, cards2):
            return nu
    return None


def _preserves_structure(g1, g2, nu, cards1, cards2) -> bool:
    for a in g1.latent:
        if cards1.get(a, 2) != cards2.get(nu[a], 2):
            return False
    for a in g1.latent:
        for b in g1.latent:
            if ((a, b) in g1.directed_latent) != ((nu[a], nu[b]) in g2.directed_latent):
                return False
            if a < b:
                p1 = _norm_pair(a, b) in g1.bidirected_latent
                p2 = _norm_pair(nu[a], nu[b]) in g2.bidirected_latent
                if p1 != p2:
                    return False
        for f in g1.observed:
            if ((a, f) in g1.directed_emit) != ((nu[a], f) in g2.directed_emit):
                return False
    return True
