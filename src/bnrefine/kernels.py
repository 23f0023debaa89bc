"""Log-space numerical kernels for Dirichlet-multinomial network scoring.

Everything is computed and stored in natural-log space; probability-space
products over hundreds of examples underflow float64.  The key quantities:

- multivariate Beta function
      Beta_C(n_1, ..., n_C) = prod_i Gamma(n_i) / Gamma(sum_i n_i)

- the per-variable concentration alpha_x = alpha / (m_x * |v(parents)|),
  read from a count table's shape (``concentration``)

- the marginal likelihood of one variable's data under a symmetric
  Dirichlet(alpha_x) prior on each CPT row:
      sum over observed configs j of
          log Beta_m(n_{.|j} + alpha_x) - log Beta_m(alpha_x, ..., alpha_x)
  Configurations never observed contribute exactly 0.

- the posterior-mean CPT entry
      (n_{i|j} + alpha_x) / (n_{.|j} + m_x * alpha_x)
"""

from __future__ import annotations

import math

import numpy as np

from .domain import ConcreteNetwork, CountTable, config_codes

NEG_INF = float("-inf")


def concentration(counts: CountTable, alpha: float) -> float:
    """alpha_x of a count table: one integer product of its shape (1 for no
    parents), then one division, so equal shapes give equal bits."""
    return alpha / (counts.m_x * math.prod(counts.arities))


def _log_beta_symmetric(alpha_x: float, m_x: int) -> float:
    return m_x * math.lgamma(alpha_x) - math.lgamma(m_x * alpha_x)


def log_marginal_likelihood(cells: np.ndarray, alpha_x: float) -> float:
    """Log marginal likelihood of count rows under a symmetric Dirichlet prior.

    ``cells`` holds one row of per-value counts per observed configuration
    (``CountTable.cells``); configurations never observed contribute 0.
    The rows are summed exactly (``math.fsum``), so the result depends on
    the counts alone, not on the order of the rows: equal counts always
    give bit-identical scores.
    """
    if alpha_x <= 0:
        raise ValueError(f"alpha_x must be positive, got {alpha_x}")
    return _shifted_log_ml((cells + alpha_x).tolist(), alpha_x, cells.shape[1])


def log_marginal_likelihoods(
    cells: np.ndarray, sizes: list[int], alphas: list[float]
) -> list[float]:
    """``log_marginal_likelihood`` of several tables with one array
    operation: table g is the next ``sizes[g]`` rows of ``cells``, at
    concentration ``alphas[g]``.  Each scores bit for bit as it does alone,
    whatever the order of its rows; an empty one scores 0.0."""
    for alpha_x in alphas:
        if alpha_x <= 0:
            raise ValueError(f"alpha_x must be positive, got {alpha_x}")
    rows = (cells + np.repeat(alphas, sizes)[:, None]).tolist()
    scores, at = [], 0
    for size, alpha_x in zip(sizes, alphas):
        scores.append(_shifted_log_ml(rows[at : at + size], alpha_x, cells.shape[1]))
        at += size
    return scores


def _shifted_log_ml(rows: list[list[float]], alpha_x: float, m_x: int) -> float:
    """The log marginal likelihood of count rows each already shifted by
    ``alpha_x``, summed exactly: the one place the lgamma sum is made."""
    log_beta_prior = _log_beta_symmetric(alpha_x, m_x)
    # log Beta_m of each row, unchecked: every component is a count plus alpha_x > 0
    lgamma = math.lgamma
    return math.fsum([sum(map(lgamma, row)) - lgamma(sum(row)) - log_beta_prior for row in rows])


def expected_theta(counts: CountTable, alpha_x: float) -> np.ndarray:
    """Dense posterior-mean CPT over every configuration of the table's parents.

    Rows follow the configuration codes (``config_codes``): the count rows
    are scattered to their codes, and unobserved configurations get the
    uniform prior mean.  Every entry is strictly inside (0, 1) and each row
    sums to 1 up to float rounding.
    """
    if alpha_x <= 0:
        raise ValueError(f"alpha_x must be positive, got {alpha_x}")
    cells = np.zeros((math.prod(counts.arities), counts.m_x), dtype=np.int64)
    cells[counts.codes] = counts.cells
    return (cells + alpha_x) / (cells.sum(axis=1, keepdims=True) + counts.m_x * alpha_x)


def rows_log_likelihood(network: ConcreteNetwork, rows: np.ndarray) -> float:
    """Summed log probability of the rows of an (n, V) array of value indices.

    Per variable, one gather of ``theta[parent configuration, value]`` over
    every row; -inf as soon as one gathered entry is zero.
    """
    total = 0.0
    for x, (parents, table) in enumerate(zip(network.parents, network.tables)):
        theta = table[config_codes(rows, parents, network.schema), rows[:, x]]
        if not theta.all():
            return NEG_INF
        total += float(np.log(theta).sum())
    return total


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) guarding against underflow; -inf for empty input."""
    arr = [v for v in values if v != NEG_INF]
    if not arr:
        return NEG_INF
    top = max(arr)
    return top + math.log(sum(math.exp(v - top) for v in arr))
