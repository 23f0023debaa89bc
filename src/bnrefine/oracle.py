"""Brute-force exact parent-set posteriors for small problems: what the
``oracle`` command prints and the engine approximates.

``exhaustive_posterior`` enumerates every feasible parent set of one
variable and normalizes exactly; a hard size guard fails fast instead of
degrading, so nothing here is meant to run on large inputs.  It rests on
the model's formulas written out from the spec, one value at a time,
independently of how the program computes them: a parent set's
concentration (``alpha_for``; ``kernels.concentration`` reads it from a
count table) and log prior over every predecessor (``log_structure_prior``;
``lattice.insert_node`` derives it from a key), and its counts, tallied
example by example (``_counts_for``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    ArcPriorMatrix,
    DomainSchema,
    Example,
    PriorConfig,
    config_count,
)
from .kernels import NEG_INF, log_marginal_likelihood, log_sum_exp

MAX_CANDIDATES = 15


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
