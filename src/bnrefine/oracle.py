"""Brute-force reference implementations for small problems.

These enumerate what the engine approximates: exact normalized parent-set
posteriors, exact arc posteriors, the materialized full joint, and a 1-d
quadrature marginal.  Hard size guards fail fast instead of degrading;
nothing here is meant to run on large inputs.

They rest on the model's formulas written out from the spec, one value at
a time, independently of how the program computes them: a parent set's
concentration (``alpha_for``) and log prior over every predecessor
(``log_structure_prior``), which ``lattice.insert_node`` derives from a
key; one example's configuration code (``config_index``), which
``domain.config_codes`` computes for whole arrays; and one CPT entry
(``theta``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    ArcPriorMatrix,
    ConcreteNetwork,
    DomainSchema,
    Example,
    PriorConfig,
    config_count,
)
from .kernels import NEG_INF, log_marginal_likelihood, log_sum_exp

MAX_CANDIDATES = 15
MAX_JOINT_STATES = 2**20


class OracleSizeError(ValueError):
    """Input exceeds the brute-force guards."""


def alpha_for(
    x: int, parent_set, config: PriorConfig, schema: DomainSchema
) -> float:
    """Per-cell Dirichlet concentration for variable x with the given parents."""
    parents = tuple(sorted(parent_set))
    if any(p >= x for p in parents):
        raise ValueError(f"parent set {parents} not a subset of predecessors of {x}")
    return config.alpha / (schema.arity(x) * config_count(schema, parents))


def log_structure_prior(
    x: int, parent_set, priors: ArcPriorMatrix, schema: DomainSchema
) -> float:
    """Log prior of a parent set as an independent product over potential arcs.

    Returns -inf exactly when the set includes a forbidden (prior-0) arc or
    excludes a mandatory (prior-1) arc.
    """
    parents = frozenset(parent_set)
    if any(p >= x for p in parents):
        raise ValueError(f"parent set {sorted(parents)} not a subset of predecessors of {x}")
    total = 0.0
    for y in schema.predecessors(x):
        p = priors.prior(y, x)
        if y in parents:
            if p == 0.0:
                return NEG_INF
            total += math.log(p)
        else:
            if p == 1.0:
                return NEG_INF
            total += math.log1p(-p)
    return total


def config_index(example: Example, parents: tuple[int, ...], schema: DomainSchema) -> int:
    """Configuration code of one example's parent values, one parent at a
    time: first parent most significant, as ``domain.config_codes`` codes
    whole arrays."""
    idx = 0
    for p in parents:
        idx = idx * schema.arity(p) + example[p]
    return idx


def theta(network: ConcreteNetwork, x: int, example: Example) -> float:
    """Probability of the example's value of x given its parent values."""
    row = config_index(example, network.parents[x], network.schema)
    return float(network.tables[x][row, example[x]])


@dataclass(frozen=True)
class ExactPosterior:
    """Exact posterior over all feasible parent sets of one variable.

    ``log_scores`` holds unnormalized log(prior * marginal likelihood) per
    parent set (keyed by frozenset of variable positions, mandatory parents
    included); ``posterior`` the normalized probabilities.
    """

    x: int
    log_scores: dict[frozenset[int], float]
    posterior: dict[frozenset[int], float]

    def arc_mass(self, y: int) -> float:
        """Summed exactly and capped at 1, as the engine's arc posteriors are:
        the posterior is normalized, so any excess over 1 is rounding."""
        return min(1.0, math.fsum(p for s, p in self.posterior.items() if y in s))

    def map_set(self) -> frozenset[int]:
        return max(self.posterior, key=lambda s: (self.posterior[s], -len(s)))


def _counts_for(
    x: int, parents: tuple[int, ...], data: list[Example], schema: DomainSchema
) -> np.ndarray:
    """Count rows of x's values, one per observed parent configuration, counted
    example by example into a plain dict: independent of ``CountTable``."""
    rows: dict[tuple[int, ...], list[int]] = {}
    for example in data:
        config = tuple(example[p] for p in parents)
        rows.setdefault(config, [0] * schema.arity(x))[example[x]] += 1
    return np.array(list(rows.values()), dtype=np.int64).reshape(-1, schema.arity(x))


def exhaustive_posterior(
    x: int,
    data: list[Example],
    priors: ArcPriorMatrix,
    config: PriorConfig,
    schema: DomainSchema,
) -> ExactPosterior:
    """Enumerate every feasible parent set of x and normalize exactly.

    Feasible sets are all unions of the mandatory parents with subsets of
    the uncertain candidates; sets containing a forbidden arc or missing a
    mandatory one have probability exactly 0 and are omitted.
    """
    mandatory = priors.mandatory_parents(x, schema)
    candidates = priors.candidate_parents(x, schema)
    if len(candidates) > MAX_CANDIDATES:
        raise OracleSizeError(
            f"{len(candidates)} candidate parents exceeds the {MAX_CANDIDATES}-candidate guard"
        )
    log_scores: dict[frozenset[int], float] = {}
    for r in range(len(candidates) + 1):
        for chosen in itertools.combinations(candidates, r):
            parents = tuple(sorted(mandatory + chosen))
            key = frozenset(parents)
            alpha_x = alpha_for(x, parents, config, schema)
            counts = _counts_for(x, parents, data, schema)
            log_scores[key] = log_structure_prior(x, parents, priors, schema) + (
                log_marginal_likelihood(counts, alpha_x)
            )
    norm = log_sum_exp(log_scores.values())
    posterior = {s: math.exp(v - norm) for s, v in log_scores.items()}
    return ExactPosterior(x=x, log_scores=log_scores, posterior=posterior)


def exhaustive_arc_posterior(
    y: int,
    x: int,
    data: list[Example],
    priors: ArcPriorMatrix,
    config: PriorConfig,
    schema: DomainSchema,
) -> float:
    """Exact probability that y is a parent of x: total mass of sets containing y."""
    if y >= x:
        raise ValueError(f"({y}, {x}): parent must precede child")
    return exhaustive_posterior(x, data, priors, config, schema).arc_mass(y)


def full_joint_enumeration(network: ConcreteNetwork) -> dict[Example, float]:
    """Materialize the joint distribution by multiplying CPT entries per assignment."""
    schema = network.schema
    arities = [schema.arity(x) for x in range(len(schema))]
    if math.prod(arities) > MAX_JOINT_STATES:
        raise OracleSizeError(f"joint has more than {MAX_JOINT_STATES} states")
    table: dict[Example, float] = {}
    for assignment in itertools.product(*(range(a) for a in arities)):
        p = 1.0
        for x in range(len(schema)):
            p *= theta(network, x, assignment)
        table[assignment] = p
    return table


def quadrature_marginal_1d(
    log_likelihood,
    log_prior_density,
    grid: np.ndarray,
) -> float:
    """Log of the trapezoid-rule integral of likelihood * prior over a 1-d grid.

    Computed stably by factoring out the max log-integrand.  Refine the grid
    until doubling it no longer moves the result.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    log_f = np.array([log_likelihood(t) + log_prior_density(t) for t in grid])
    top = float(np.max(log_f))
    if top == float("-inf"):
        return float("-inf")
    return top + math.log(np.trapezoid(np.exp(log_f - top), grid))
