"""Interrogation of a combined network: arc posteriors and smoothed networks.

All posteriors here are normalized over the *stored alive* parent sets of
each lattice.  That is an approximation to the normalization over all
subsets of predecessors; it is exact in the permissive-search regime where
every nontrivial subset is stored and alive.

Arc posteriors are summed per lattice: the lattice says which predecessors
are mandatory and which are candidates, and one pass over its alive nodes'
keys collects the weights of every candidate at once.

Each lattice remembers its last arc posteriors (``ParentLattice.arc_memo``,
in memory only) stamped with what they depend on.  With two or more alive
nodes that is the active scoring model, the log's length and the key of
every alive node: a node's score is a function of exactly these, since
every stored node counts the whole log, the log only grows and a log
prior is fixed when its node is built.  With one alive node it is that
node's key alone: its candidate parents then read 1 and the others 0
whatever its score, -inf and NaN included, so a lattice that has
converged to one set keeps its memo as the log grows.
A query of a lattice whose stamp still matches reads the memo and
normalizes nothing.

Queries change nothing but the score cache of the nodes they read
(``engine._node_score``) and the arc posterior memo of the lattices they
read, neither of which a session stores, so a query never changes what a
later save writes; callers must not mutate the network concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import ConcreteNetwork, DomainSchema, config_codes
from .engine import CombinedNetwork, _node_score
from .kernels import concentration, expected_theta, log_sum_exp, rows_log_likelihood
from .lattice import LatticeNode, LatticeStateError, ParentLattice, alive_leaves


@dataclass(frozen=True)
class ArcPosteriorMatrix:
    """Posterior probability of every ordering-consistent arc."""

    schema: DomainSchema
    entries: dict[tuple[int, int], float]

    def named_entries(self) -> list[tuple[str, str, float]]:
        return [
            (self.schema.name(y), self.schema.name(x), p)
            for (y, x), p in sorted(self.entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        ]


@dataclass(frozen=True)
class SmoothedVariable:
    """One variable's slice of a smoothed network.

    ``leaf`` is the sampled leaf parent set (full, sorted positions);
    ``table`` the posterior-weighted average of the CPTs of every stored
    alive subset of the leaf, laid out over the leaf's configurations;
    ``arc_probs`` the within-leaf arc probabilities; ``mass`` the total
    normalized alive weight of the subsets merged into this leaf.
    """

    leaf: tuple[int, ...]
    table: np.ndarray
    arc_probs: dict[int, float]
    mass: float


@dataclass(frozen=True)
class SmoothedNetwork:
    schema: DomainSchema
    variables: tuple[SmoothedVariable, ...]
    seed: int


def _alive_weights(
    net: CombinedNetwork, lattice: ParentLattice
) -> tuple[list[LatticeNode], np.ndarray]:
    """Alive nodes with their scores normalized to probabilities (log-sum-exp).

    Raises ``LatticeStateError`` when the lattice has no alive node: there
    is then no distribution to normalize, and every posterior would read 0.
    """
    alive = sorted(lattice.alive_nodes(), key=lambda n: n.key)
    if not alive:
        raise LatticeStateError(f"no alive parent set for {net.schema.name(lattice.x)!r}")
    scores = [_node_score(net, lattice, n) for n in alive]
    norm = log_sum_exp(scores)
    weights = np.array([math.exp(s - norm) for s in scores])
    return alive, weights


def _lattice_arc_posteriors(
    net: CombinedNetwork, lattice: ParentLattice
) -> dict[tuple[int, int], float]:
    """Posterior probability of each arc into the lattice's variable, keyed
    ``(y, x)`` by ascending parent position y.

    Mandatory predecessors report exactly 1 and forbidden ones exactly 0.
    A candidate reports the summed normalized weight of the alive sets
    containing it: one pass over the alive keys collects each candidate's
    weights, which are then summed exactly (``math.fsum``) and capped at 1,
    since the weights are normalized and any excess over 1 is rounding.
    The result is remembered against the lattice's stamp (see above) and
    returned as it is while the stamp matches: callers must only read it.
    A lone alive set is stamped with its key alone, a bare int that no
    multi-set stamp equals, and is still scored on the whole log, as a
    recompute would score it.  Should the alive window go, the lone alive
    set becomes the lone stored set.
    """
    alive = lattice.alive_nodes()
    if len(alive) == 1:
        _node_score(net, lattice, alive[0])
        stamp = alive[0].key
    else:
        stamp = (net.scoring_model, net.n_total, [n.key for n in alive])
    memo = lattice.arc_memo
    if memo is not None and memo[0] == stamp:
        return memo[1]
    alive, weights = _alive_weights(net, lattice)
    held: list[list[float]] = [[] for _ in lattice.candidates]
    for node, w in zip(alive, weights.tolist()):
        key = node.key
        while key:
            low = key & -key
            held[low.bit_length() - 1].append(w)
            key ^= low
    x = lattice.x
    posteriors = [0.0] * x
    for y in lattice.mandatory:
        posteriors[y] = 1.0
    for y, ws in zip(lattice.candidates, held):
        posteriors[y] = min(1.0, math.fsum(ws))
    lattice.arc_memo = (stamp, {(y, x): p for y, p in enumerate(posteriors)})
    return lattice.arc_memo[1]


def arc_posterior(net: CombinedNetwork, y: int, x: int) -> float:
    """Posterior probability that y is a parent of x, for ``0 <= y < x < len(schema)``.

    Mandatory arcs report exactly 1 and forbidden arcs exactly 0; anything
    else is the summed normalized weight of alive parent sets containing y.
    """
    if not 0 <= y < x < len(net.schema):
        raise ValueError(
            f"({y}, {x}) is not an arc: need 0 <= parent < child < {len(net.schema)}"
        )
    return _lattice_arc_posteriors(net, net.lattices[x])[(y, x)]


def all_arc_posteriors(net: CombinedNetwork) -> ArcPosteriorMatrix:
    """Arc posterior for every pair consistent with the variable ordering."""
    entries: dict[tuple[int, int], float] = {}
    for lattice in net.lattices:
        entries.update(_lattice_arc_posteriors(net, lattice))
    return ArcPosteriorMatrix(schema=net.schema, entries=entries)


def leaf_masses(
    net: CombinedNetwork, x: int
) -> tuple[list[LatticeNode], list[list[LatticeNode]], np.ndarray]:
    """Alive leaves of x's lattice with their subset families and masses.

    For each alive leaf L, the family is every stored alive subset of L
    (including L itself) and the mass is the family's total normalized
    alive weight.  One alive set can sit under several leaves, so masses
    need not sum to 1; they are renormalized before a leaf is drawn.
    """
    lattice = net.lattices[x]
    alive, weights = _alive_weights(net, lattice)
    weight_of = {n.key: w for n, w in zip(alive, weights)}
    leaves = sorted(alive_leaves(lattice), key=lambda n: n.key)
    families = [
        [n for n in alive if n.key & leaf.key == n.key]
        for leaf in leaves
    ]
    masses = np.array(
        [sum(weight_of[n.key] for n in family) for family in families]
    )
    return leaves, families, masses


def draw_index(rng: np.random.Generator, masses: np.ndarray) -> int:
    """Draw an index proportional to the (unnormalized) masses, one uniform deep."""
    cumulative = np.cumsum(masses / masses.sum())  # may end below a draw: take the last
    return min(int(np.searchsorted(cumulative, rng.random(), side="right")), len(masses) - 1)


def _merged_variable(
    net: CombinedNetwork,
    x: int,
    leaf: LatticeNode,
    family: list[LatticeNode],
    mass: float,
) -> SmoothedVariable:
    schema = net.schema
    lattice = net.lattices[x]
    scores = [_node_score(net, lattice, n) for n in family]
    norm = log_sum_exp(scores)
    within = np.array([math.exp(s - norm) for s in scores])
    leaf_parents = leaf.parents
    # every configuration of the leaf's parents, in code order, as (n, V) rows
    arities = tuple(schema.arity(p) for p in leaf_parents)
    configs = np.zeros((math.prod(arities), len(schema)), dtype=np.int64)
    configs[:, list(leaf_parents)] = np.indices(arities).reshape(len(arities), len(configs)).T
    table = np.zeros((len(configs), schema.arity(x)))
    for node, w in zip(family, within):
        theta = expected_theta(node.counts, concentration(node.counts, lattice.alpha))
        table += w * theta[config_codes(configs, node.parents, schema)]
    # the weights are normalized, so any sum above 1 is rounding (as in _lattice_arc_posteriors)
    arc_probs = {
        y: min(1.0, math.fsum(w for n, w in zip(family, within.tolist()) if y in n.parents))
        for y in leaf_parents
    }
    return SmoothedVariable(leaf=leaf_parents, table=table, arc_probs=arc_probs, mass=mass)


def sample_smoothed(net: CombinedNetwork, seed: int) -> SmoothedNetwork:
    """Draw one representative smoothed network.

    Per variable: enumerate alive leaves, draw one in proportion to its
    family mass, and average the family's posterior-mean CPTs with weights
    renormalized within the family.  The draw uses one uniform variate per
    variable from a PCG64 generator, so a fixed seed reproduces the same
    network on any platform.
    """
    rng = np.random.default_rng(seed)
    merged = []
    for x in range(len(net.schema)):
        leaves, families, masses = leaf_masses(net, x)
        pick = draw_index(rng, masses)
        merged.append(
            _merged_variable(net, x, leaves[pick], families[pick], float(masses[pick]))
        )
    return SmoothedNetwork(schema=net.schema, variables=tuple(merged), seed=seed)


def loglik_dataset(network: ConcreteNetwork, data) -> float:
    """Total log likelihood of a dataset under one concrete network.

    ``data`` is an iterable of examples or an integer (n, V) array; it is
    validated and coded once (``encode_rows``), then scored per variable.
    """
    return rows_log_likelihood(network, network.schema.encode_rows(data))
