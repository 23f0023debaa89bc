"""Restricted conditional distributions for boolean variables.

Two low-dimensional alternatives to the full conditional table, both for a
boolean child x with boolean parents x_1..x_n:

- noisy-or with parameters q_0..q_n, each strictly inside (0, 1):
      Pr(x = false | parents) = q_0 * prod over true parents of q_i
  (q_0 is the leak; each true parent independently fails to trigger x
  with probability q_i).

- the symmetrized multiplicative logistic form with parameters
  r_i = exp(tau_i):
      Pr(x = false | parents) = R / (1 + R),   R = r_0 * prod r_i^{[x_i]}
  which is plain logistic regression on parent indicators.  The two forms
  approximate each other when the product is small.

Both likelihoods depend on the data only through the node's ``CountTable``:
one row ``[n_false, n_true]`` per observed parent configuration, at most
2^n rows however many examples were seen.  Every function here takes those
counts (``boolean_counts`` builds them from raw boolean rows), and one
kernel per model turns them into the log likelihood, its gradient and its
Hessian, so the cost of a fit depends on the number of observed parent
configurations, not on the number of examples.

Parameters are fitted by maximum posterior in unconstrained coordinates
(tau for logistic, logit q for noisy-or) under an independent normal prior
per coordinate, and integrated out with a multivariate normal expansion
around the fitted point to give a log marginal likelihood comparable to
the exact Dirichlet table score.  The fitted point of a previous call can
seed the next one, so refreshing a score after a few new examples is
cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import CountTable
from .engine import CombinedNetwork, sync_node
from .kernels import log_beta_multi, log_marginal_likelihood
from .lattice import LatticeNode, ParentLattice

LN_2PI = math.log(2.0 * math.pi)
DEFAULT_PRIOR_SCALE = 10.0
# a gain below this many ulps of the objective is lost in its rounding
RESOLUTION = 16.0 * np.finfo(float).eps


class UnsupportedModelError(ValueError):
    """Restricted models require a boolean child and boolean parents."""


class FitConvergenceError(RuntimeError):
    """The iterative fit hit its cap; carries the best point found."""

    def __init__(self, message: str, best: "MapFit"):
        super().__init__(message)
        self.best = best


class LaplaceError(RuntimeError):
    """The curvature at the fitted point is not negative definite."""


@dataclass(frozen=True)
class NoisyOrParams:
    q: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        if not self.q or any(not 0.0 < v < 1.0 for v in self.q):
            raise ValueError(f"noisy-or parameters must lie strictly in (0,1): {self.q}")


@dataclass(frozen=True)
class LogisticParams:
    tau: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", tuple(float(v) for v in self.tau))
        if not self.tau or any(not math.isfinite(v) for v in self.tau):
            raise ValueError(f"logistic parameters must be finite: {self.tau}")


@dataclass(frozen=True)
class MapFit:
    kind: str
    params: NoisyOrParams | LogisticParams
    log_posterior: float
    gradient_norm: float
    iterations: int
    trace: tuple[float, ...]


@dataclass(frozen=True)
class LocalModelScore:
    kind: str
    params: tuple[float, ...] | None
    log_marginal: float


def boolean_counts(x_values, parent_rows) -> CountTable:
    """Boolean (child value, parent row) data as the count table a node keeps.

    Rows are grouped by parent configuration (``np.unique`` over a binary
    code) and counted per child value with one ``np.bincount``; each count
    row is ``[n_false, n_true]``.
    """
    x = np.asarray(x_values, dtype=bool)
    rows = np.asarray(parent_rows, dtype=bool)
    if rows.ndim == 1:
        rows = rows.reshape(len(x), -1)
    if rows.shape[0] != x.shape[0]:
        raise ValueError(f"{x.shape[0]} child values but {rows.shape[0]} parent rows")
    counts = CountTable(2)
    counts.config_len = rows.shape[1]
    code = rows.astype(np.int64) @ (1 << np.arange(rows.shape[1], dtype=np.int64))
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    cells = np.bincount(2 * inverse + x, minlength=2 * len(first)).reshape(-1, 2)
    for config, row in zip(rows[first].astype(int).tolist(), cells):
        counts.add(tuple(config), row)
    return counts


def _blocks(counts: CountTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Activity rows (the always-active leak/intercept column first), n_false
    and n_true, one entry per observed parent configuration in sorted order."""
    configs = sorted(counts.rows)
    n_parents = counts.config_len or 0
    activity = np.ones((len(configs), n_parents + 1))
    activity[:, 1:] = np.array(configs, dtype=float).reshape(len(configs), n_parents)
    cells = np.array([counts.rows[c] for c in configs], dtype=float).reshape(-1, 2)
    return activity, cells[:, 0], cells[:, 1]


def _softplus(t: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, t)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    ez = np.exp(t[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log1mexp(s: np.ndarray) -> np.ndarray:
    """log(1 - exp(s)) for s < 0, stable at both ends."""
    out = np.empty_like(s, dtype=float)
    near = s > -math.log(2.0)
    out[near] = np.log(-np.expm1(s[near]))
    out[~near] = np.log1p(-np.exp(s[~near]))
    return out


def _kernel(
    kind: str, u: np.ndarray, activity: np.ndarray, n_false: np.ndarray, n_true: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log likelihood, gradient and Hessian in unconstrained coordinates
    (tau for logistic, logit q for noisy-or) from per-configuration counts."""
    if kind == "logistic":
        t = activity @ u  # log odds of x = false
        p_false, p_true = _sigmoid(t), _sigmoid(-t)
        ll = -n_false @ _softplus(-t) - n_true @ _softplus(t)
        grad = (n_false * p_true - n_true * p_false) @ activity
        weight = (n_false + n_true) * p_false * p_true
        return float(ll), grad, -(activity.T * weight) @ activity
    if kind == "noisy-or":
        q, one_minus_q = _sigmoid(u), _sigmoid(-u)
        s = activity @ -_softplus(-u)  # log Pr(x = false), stable for large |u|
        p_false, p_true = np.exp(s), -np.expm1(s)
        ll = n_false @ s + n_true @ _log1mexp(s)
        # r = (ds/du) / Pr(x = true) stays bounded as q -> 1, because
        # ds/du_j = a_j (1 - q_j) <= -s; the plain second-derivative weight
        # w (1 + w), w = 1/expm1(-s), overflows there
        r = activity * one_minus_q / p_true[:, None]
        weight = n_true * p_false
        grad = n_false @ activity * one_minus_q - weight @ r
        # d(1 - q_j)/du_j = -q_j (1 - q_j) puts -q_j grad_j on the diagonal
        return float(ll), grad, -(r.T * weight) @ r - np.diag(q * grad)
    raise ValueError(f"unknown model kind {kind!r}")


def _to_u(kind: str, params) -> np.ndarray:
    if kind == "logistic":
        return np.asarray(params.tau, dtype=float)
    q = np.asarray(params.q, dtype=float)
    return np.log(q) - np.log1p(-q)


def _u_to_params(kind: str, u: np.ndarray):
    if kind == "logistic":
        return LogisticParams(tuple(u))
    return NoisyOrParams(tuple(_sigmoid(u)))


def _natural_loglik(kind: str, params, counts: CountTable) -> tuple[float, np.ndarray]:
    """Log likelihood and its gradient in unconstrained coordinates."""
    activity, n_false, n_true = _blocks(counts)
    u = _to_u(kind, params)
    if len(u) != activity.shape[1]:
        raise ValueError(f"{len(u)} parameters for {activity.shape[1] - 1} parents")
    ll, grad, _ = _kernel(kind, u, activity, n_false, n_true)
    return ll, grad


def noisyor_loglik(params: NoisyOrParams, counts: CountTable) -> float:
    """Log likelihood of boolean counts under a noisy-or gate."""
    return _natural_loglik("noisy-or", params, counts)[0]


def noisyor_loglik_grad(params: NoisyOrParams, counts: CountTable) -> np.ndarray:
    """Gradient of the noisy-or log likelihood with respect to q."""
    q = np.asarray(params.q)
    return _natural_loglik("noisy-or", params, counts)[1] / (q * (1.0 - q))


def logistic_loglik(params: LogisticParams, counts: CountTable) -> float:
    """Log likelihood of boolean counts under the multiplicative logistic form."""
    return _natural_loglik("logistic", params, counts)[0]


def logistic_loglik_grad(params: LogisticParams, counts: CountTable) -> np.ndarray:
    """Gradient of the logistic log likelihood with respect to tau."""
    return _natural_loglik("logistic", params, counts)[1]


def _log_posterior(kind: str, counts: CountTable, prior_scale: float):
    """The log posterior as one function of u giving value, gradient and
    Hessian, and its dimension."""
    activity, n_false, n_true = _blocks(counts)
    d = activity.shape[1]
    var = prior_scale * prior_scale
    log_prior_const = -0.5 * d * math.log(2.0 * math.pi * var)

    def evaluate(u: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        ll, grad, hess = _kernel(kind, u, activity, n_false, n_true)
        value = float(ll - 0.5 * np.dot(u, u) / var + log_prior_const)
        return value, grad - u / var, hess - np.eye(d) / var

    return evaluate, d


def fit_map(
    kind: str,
    counts: CountTable,
    *,
    prior_scale: float = DEFAULT_PRIOR_SCALE,
    warm_start=None,
    max_iter: int = 500,
    tol: float = 1e-8,
) -> MapFit:
    """Maximum-posterior fit by damped Newton ascent in unconstrained space.

    The objective (log likelihood plus normal log prior) is non-decreasing
    across iterations, up to its float resolution; convergence means the
    gradient's max-norm fell below ``tol``.  Deterministic given its inputs.
    """
    if not counts.total:
        raise ValueError("fit_map requires at least one data row")
    evaluate, d = _log_posterior(kind, counts, prior_scale)
    u = np.zeros(d) if warm_start is None else _to_u(kind, warm_start)
    fval, g, hess = evaluate(u)
    trace = [fval]
    iterations = 0
    for _ in range(max_iter):
        if float(np.max(np.abs(g))) < tol:
            break
        direction = g
        curvature_ok = False
        try:
            chol = np.linalg.cholesky(-hess)
            direction = np.linalg.solve(chol.T, np.linalg.solve(chol, g))
            curvature_ok = True
        except np.linalg.LinAlgError:
            pass  # curvature not usable here; fall back to the raw gradient
        slope = float(g @ direction)
        if slope <= 0:
            direction, slope = g, float(g @ g)
            curvature_ok = False
        if curvature_ok and slope < RESOLUTION * abs(fval):
            # the predicted gain is below the objective's float resolution,
            # so backtracking cannot see it; the full Newton step polishes
            # the gradient down to tolerance
            u = u + direction
            fval, g, hess = evaluate(u)
        else:
            step = 1.0
            accepted = False
            for _ in range(60):
                candidate = u + step * direction
                if np.array_equal(candidate, u):
                    break  # the step rounded away entirely; no progress this way
                point = evaluate(candidate)
                if point[0] >= fval + 1e-4 * step * slope:
                    u, (fval, g, hess), accepted = candidate, point, True
                    break
                step /= 2.0
            if not accepted:
                break
        trace.append(fval)
        iterations += 1
    grad_norm = float(np.max(np.abs(g)))
    fit = MapFit(
        kind=kind,
        params=_u_to_params(kind, u),
        log_posterior=fval,
        gradient_norm=grad_norm,
        iterations=iterations,
        trace=tuple(trace),
    )
    if grad_norm >= tol:
        raise FitConvergenceError(
            f"{kind} fit stopped after {iterations} iterations with "
            f"gradient norm {grad_norm:.3g}",
            best=fit,
        )
    return fit


def log_det_neg_hessian(hess: np.ndarray) -> float:
    """log det(-H) via Cholesky; raises LaplaceError if -H is not positive definite."""
    try:
        chol = np.linalg.cholesky(-np.asarray(hess))
    except np.linalg.LinAlgError:
        raise LaplaceError("Hessian at the fitted optimum is not negative definite") from None
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def _table_alpha(alpha: float, counts: CountTable) -> float:
    return alpha / (2.0 * 2.0 ** (counts.config_len or 0))


def exact_table_log_marginal(counts: CountTable, *, alpha: float = 1.0) -> float:
    """Exact Dirichlet-multinomial marginal of boolean counts under the full table."""
    return log_marginal_likelihood(counts, _table_alpha(alpha, counts))


def laplace_log_marginal(
    kind: str,
    counts: CountTable,
    *,
    prior_scale: float = DEFAULT_PRIOR_SCALE,
    alpha: float = 1.0,
    warm_start=None,
) -> float:
    """Log marginal likelihood with parameters integrated out approximately.

    For noisy-or and logistic kinds: normal expansion around the MAP,
        log posterior(MAP) + (d/2) log 2*pi - (1/2) log det(-Hessian).
    For the full table: the same expansion applied per parent configuration
    to the Dirichlet integral in logit space (useful as a cross-check
    against the exact value).
    """
    if kind == "table":
        alpha_x = _table_alpha(alpha, counts)
        log_beta_prior = log_beta_multi([alpha_x, alpha_x])
        total = 0.0
        for row in counts.rows.values():
            n0, n1 = float(row[0]) + alpha_x, float(row[1]) + alpha_x
            theta = n1 / (n0 + n1)
            log_peak = n1 * math.log(theta) + n0 * math.log1p(-theta) - log_beta_prior
            curvature = (n0 + n1) * theta * (1.0 - theta)
            total += log_peak + 0.5 * LN_2PI - 0.5 * math.log(curvature)
        return total
    fit = fit_map(kind, counts, prior_scale=prior_scale, warm_start=warm_start)
    evaluate, d = _log_posterior(kind, counts, prior_scale)
    _, _, hess = evaluate(_to_u(kind, fit.params))
    return fit.log_posterior + 0.5 * d * LN_2PI - 0.5 * log_det_neg_hessian(hess)


def boolean_node_data(net: CombinedNetwork, x: int, node: LatticeNode) -> CountTable:
    """The node's counts, synced with the example log, for a boolean family.

    The second value label of a variable is its "true" state, so each count
    row is ``[n_false, n_true]``.
    """
    schema = net.schema
    bad = [v for v in (x, *node.parents) if schema.arity(v) != 2]
    if bad:
        names = ", ".join(schema.name(v) for v in bad)
        raise UnsupportedModelError(f"noisy-or/logistic need boolean variables; not boolean: {names}")
    sync_node(net, net.lattices[x], node)
    return node.counts


def score_node_with_model(
    net: CombinedNetwork,
    x: int,
    node: LatticeNode,
    kind: str,
    *,
    prior_scale: float = DEFAULT_PRIOR_SCALE,
) -> LocalModelScore:
    """Score one lattice node under the chosen model and cache the result.

    The node is synced with the example log first.  The table kind
    reproduces the node's exact Dirichlet marginal; the restricted kinds
    fit their parameters to the node's counts (warm-started from the
    previous fit, if any, and refitted once from a cold start if that fit
    does not converge) and store the normal-expansion marginal in the
    node's parallel score slot, leaving the structure prior and the exact
    table score untouched.
    """
    if kind == "table":
        sync_node(net, net.lattices[x], node)
        return LocalModelScore(kind="table", params=None, log_marginal=node.log_ml)
    if kind not in ("noisy-or", "logistic"):
        raise ValueError(f"unknown model kind {kind!r}")
    counts = boolean_node_data(net, x, node)
    warm_list = node.model_params.get(kind)
    warm = None
    if warm_list is not None:
        warm = (
            LogisticParams(tuple(warm_list))
            if kind == "logistic"
            else NoisyOrParams(tuple(warm_list))
        )
    try:
        fit = fit_map(kind, counts, prior_scale=prior_scale, warm_start=warm)
    except FitConvergenceError:
        if warm is None:
            raise
        # a warm start far from the new optimum can stall where a cold one
        # converges in a few steps; retry once from the origin
        fit = fit_map(kind, counts, prior_scale=prior_scale)
    marginal = laplace_log_marginal(kind, counts, prior_scale=prior_scale, warm_start=fit.params)
    natural = fit.params.tau if kind == "logistic" else fit.params.q
    node.model_ml[kind] = marginal
    node.model_synced[kind] = net.n_total
    node.model_params[kind] = list(natural)
    return LocalModelScore(kind=kind, params=tuple(natural), log_marginal=marginal)


def ensure_model_score(
    net: CombinedNetwork, lattice: ParentLattice, node: LatticeNode, kind: str
) -> None:
    """Refresh the node's cached model score if it lags the example log."""
    if node.model_synced.get(kind) != net.n_total:
        score_node_with_model(net, lattice.x, node, kind)
