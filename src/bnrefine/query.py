"""Interrogation of a combined network: arc posteriors and smoothed networks.

All posteriors here are normalized over the *stored alive* parent sets of
each lattice.  That is an approximation to the normalization over all
subsets of predecessors; it is exact in the permissive-search regime where
every nontrivial subset is stored and alive.

Queries change nothing but the score cache of the nodes they read
(``engine._node_score``); callers must not mutate the network concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import ConcreteNetwork, DomainSchema, config_codes
from .engine import CombinedNetwork, _node_score
from .kernels import expected_theta, log_sum_exp, rows_log_likelihood
from .lattice import LatticeNode, LatticeStateError, ParentLattice, alive_leaves


@dataclass(frozen=True)
class ArcPosteriorMatrix:
    """Posterior probability of every ordering-consistent arc."""

    schema: DomainSchema
    entries: dict[tuple[int, int], float]

    def probability(self, y: int, x: int) -> float:
        return self.entries[(y, x)]

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


def _arc_mass(alive: list[LatticeNode], weights: np.ndarray, bit: int) -> float:
    """Summed weight of the alive sets containing the candidate ``bit``.

    Summed exactly and capped at 1: the weights are normalized, so any
    excess over 1 is rounding.
    """
    return min(1.0, math.fsum(w for n, w in zip(alive, weights) if n.key & bit))


def arc_posterior(net: CombinedNetwork, y: int, x: int) -> float:
    """Posterior probability that y is a parent of x.

    Mandatory arcs report exactly 1 and forbidden arcs exactly 0; anything
    else is the summed normalized weight of alive parent sets containing y.
    """
    if y >= x:
        raise ValueError(f"({y}, {x}): parent must precede child")
    p = net.priors.prior(y, x)
    if p == 1.0:
        return 1.0
    if p == 0.0:
        return 0.0
    lattice = net.lattices[x]
    bit = 1 << lattice.candidate_bit(y)
    alive, weights = _alive_weights(net, lattice)
    return _arc_mass(alive, weights, bit)


def all_arc_posteriors(net: CombinedNetwork) -> ArcPosteriorMatrix:
    """Arc posterior for every pair consistent with the variable ordering."""
    entries: dict[tuple[int, int], float] = {}
    for x in range(len(net.schema)):
        lattice = net.lattices[x]
        alive, weights = _alive_weights(net, lattice)
        for y in net.schema.predecessors(x):
            p = net.priors.prior(y, x)
            if p == 1.0:
                entries[(y, x)] = 1.0
            elif p == 0.0:
                entries[(y, x)] = 0.0
            else:
                entries[(y, x)] = _arc_mass(alive, weights, 1 << lattice.candidate_bit(y))
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
    cumulative = np.cumsum(masses / masses.sum())
    return int(np.searchsorted(cumulative, rng.random(), side="right"))


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
    # every configuration of the leaf's parents, in config_index order, as (n, V) rows
    arities = tuple(schema.arity(p) for p in leaf_parents)
    configs = np.zeros((math.prod(arities), len(schema)), dtype=np.int64)
    configs[:, list(leaf_parents)] = np.indices(arities).reshape(len(arities), len(configs)).T
    table = np.zeros((len(configs), schema.arity(x)))
    for node, w in zip(family, within):
        theta = expected_theta(node.counts, node.alpha_x)
        table += w * theta[config_codes(configs, node.parents, schema)]
    arc_probs = {
        y: float(sum(w for n, w in zip(family, within) if y in n.parents))
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
