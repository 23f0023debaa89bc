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


def _as_data(x_values, parent_rows) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x_values, dtype=bool)
    rows = np.asarray(parent_rows, dtype=bool)
    if rows.ndim == 1:
        rows = rows.reshape(len(x), -1)
    if rows.shape[0] != x.shape[0]:
        raise ValueError(f"{x.shape[0]} child values but {rows.shape[0]} parent rows")
    return x, rows


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


def _activity(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Indicator matrix with the always-active leak/intercept column first."""
    return np.column_stack([np.ones(len(x)), rows.astype(float)])


def noisyor_loglik(params: NoisyOrParams, x_values, parent_rows) -> float:
    """Log likelihood of boolean data under a noisy-or gate."""
    x, rows = _as_data(x_values, parent_rows)
    q = np.asarray(params.q)
    if len(q) != rows.shape[1] + 1:
        raise ValueError(f"{len(q)} parameters for {rows.shape[1]} parents")
    s = _activity(x, rows) @ np.log(q)
    return float(np.sum(s[~x]) + np.sum(_log1mexp(s[x])))


def noisyor_loglik_grad(params: NoisyOrParams, x_values, parent_rows) -> np.ndarray:
    """Gradient of the noisy-or log likelihood with respect to q."""
    x, rows = _as_data(x_values, parent_rows)
    q = np.asarray(params.q)
    a = _activity(x, rows)
    s = a @ np.log(q)
    grad = a[~x].sum(axis=0).astype(float)
    if x.any():
        # d/dq of log(1 - e^s): -e^s / (1 - e^s) per active coordinate
        w = 1.0 / np.expm1(-s[x])
        grad -= (a[x] * w[:, None]).sum(axis=0)
    return grad / q


def logistic_loglik(params: LogisticParams, x_values, parent_rows) -> float:
    """Log likelihood of boolean data under the multiplicative logistic form."""
    x, rows = _as_data(x_values, parent_rows)
    tau = np.asarray(params.tau)
    if len(tau) != rows.shape[1] + 1:
        raise ValueError(f"{len(tau)} parameters for {rows.shape[1]} parents")
    t = _activity(x, rows) @ tau
    return float(-np.sum(_softplus(-t[~x])) - np.sum(_softplus(t[x])))


def logistic_loglik_grad(params: LogisticParams, x_values, parent_rows) -> np.ndarray:
    """Gradient of the logistic log likelihood with respect to tau."""
    x, rows = _as_data(x_values, parent_rows)
    tau = np.asarray(params.tau)
    a = _activity(x, rows)
    t = a @ tau
    sig = _sigmoid(t)
    grad = (a[~x] * (1.0 - sig[~x])[:, None]).sum(axis=0)
    grad -= (a[x] * sig[x][:, None]).sum(axis=0)
    return grad


def _unconstrained_problem(kind: str, x: np.ndarray, rows: np.ndarray, prior_scale: float):
    """Objective/gradient/Hessian of the log posterior in unconstrained coordinates."""
    a = _activity(x, rows)
    d = a.shape[1]
    var = prior_scale * prior_scale
    log_prior_const = -0.5 * d * math.log(2.0 * math.pi * var)

    if kind == "logistic":

        def value(u: np.ndarray) -> float:
            t = a @ u
            ll = -np.sum(_softplus(-t[~x])) - np.sum(_softplus(t[x]))
            return float(ll - 0.5 * np.dot(u, u) / var + log_prior_const)

        def grad(u: np.ndarray) -> np.ndarray:
            t = a @ u
            sig = _sigmoid(t)
            g = (a[~x] * (1.0 - sig[~x])[:, None]).sum(axis=0)
            g -= (a[x] * sig[x][:, None]).sum(axis=0)
            return g - u / var

        def hessian(u: np.ndarray) -> np.ndarray:
            t = a @ u
            w = _sigmoid(t) * _sigmoid(-t)
            return -(a * w[:, None]).T @ a - np.eye(d) / var

    elif kind == "noisy-or":

        def value(u: np.ndarray) -> float:
            lnq = -_softplus(-u)  # log sigmoid(u), stable for large |u|
            s = a @ lnq
            ll = np.sum(s[~x]) + np.sum(_log1mexp(s[x]))
            return float(ll - 0.5 * np.dot(u, u) / var + log_prior_const)

        def grad(u: np.ndarray) -> np.ndarray:
            lnq = -_softplus(-u)
            one_minus_q = _sigmoid(-u)
            s = a @ lnq
            g = (a[~x] * one_minus_q[None, :]).sum(axis=0)
            if x.any():
                w = 1.0 / np.expm1(-s[x])
                g -= (a[x] * w[:, None] * one_minus_q[None, :]).sum(axis=0)
            return g - u / var

        def hessian(u: np.ndarray) -> np.ndarray:
            # central differences of the analytic gradient
            h = 1e-5
            out = np.empty((d, d))
            for j in range(d):
                shift = np.zeros(d)
                shift[j] = h
                out[:, j] = (grad(u + shift) - grad(u - shift)) / (2.0 * h)
            return (out + out.T) / 2.0

    else:
        raise ValueError(f"unknown model kind {kind!r}")

    return value, grad, hessian, d


def _warm_to_u(kind: str, warm_start) -> np.ndarray | None:
    if warm_start is None:
        return None
    if kind == "logistic":
        return np.asarray(warm_start.tau, dtype=float)
    q = np.asarray(warm_start.q, dtype=float)
    return np.log(q) - np.log1p(-q)


def _u_to_params(kind: str, u: np.ndarray):
    if kind == "logistic":
        return LogisticParams(tuple(u))
    return NoisyOrParams(tuple(_sigmoid(u)))


def fit_map(
    kind: str,
    x_values,
    parent_rows,
    *,
    prior_scale: float = DEFAULT_PRIOR_SCALE,
    warm_start=None,
    max_iter: int = 500,
    tol: float = 1e-8,
) -> MapFit:
    """Maximum-posterior fit by damped Newton ascent in unconstrained space.

    The objective (log likelihood plus normal log prior) is non-decreasing
    across iterations; convergence means the gradient's max-norm fell below
    ``tol``.  Deterministic given its inputs.
    """
    x, rows = _as_data(x_values, parent_rows)
    if len(x) == 0:
        raise ValueError("fit_map requires at least one data row")
    value, grad, hessian, d = _unconstrained_problem(kind, x, rows, prior_scale)
    u = _warm_to_u(kind, warm_start)
    u = np.zeros(d) if u is None else u.copy()
    fval = value(u)
    trace = [fval]
    iterations = 0
    converged = False
    for _ in range(max_iter):
        g = grad(u)
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm < tol:
            converged = True
            break
        direction = g
        curvature_ok = False
        try:
            chol = np.linalg.cholesky(-hessian(u))
            direction = np.linalg.solve(chol.T, np.linalg.solve(chol, g))
            curvature_ok = True
        except np.linalg.LinAlgError:
            pass  # curvature not usable here; fall back to the raw gradient
        slope = float(g @ direction)
        if slope <= 0:
            direction, slope = g, float(g @ g)
            curvature_ok = False
        step = 1.0
        accepted = False
        for _ in range(60):
            candidate = u + step * direction
            if np.array_equal(candidate, u):
                break  # the step rounded away entirely; no progress this way
            fnew = value(candidate)
            if fnew >= fval + 1e-4 * step * slope:
                u, fval, accepted = candidate, fnew, True
                break
            step /= 2.0
        if not accepted:
            if curvature_ok and float(np.max(np.abs(direction))) < 1e-6:
                # the true objective gain here is below float resolution, so
                # backtracking cannot see it; the damped-Newton step is the
                # reliable way to polish the gradient down to tolerance
                u = u + direction
                fval = value(u)
            else:
                break
        trace.append(fval)
        iterations += 1
    grad_norm = float(np.max(np.abs(grad(u))))
    fit = MapFit(
        kind=kind,
        params=_u_to_params(kind, u),
        log_posterior=fval,
        gradient_norm=grad_norm,
        iterations=iterations,
        trace=tuple(trace),
    )
    if not (converged or grad_norm < tol):
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


def _table_alpha(alpha: float, n_parents: int) -> float:
    return alpha / (2.0 * 2.0**n_parents)


def _table_counts(x: np.ndarray, rows: np.ndarray) -> CountTable:
    counts = CountTable(2)
    for xi, row in zip(x, rows):
        counts.increment(tuple(int(v) for v in row), int(xi))
    return counts


def exact_table_log_marginal(x_values, parent_rows, *, alpha: float = 1.0) -> float:
    """Exact Dirichlet-multinomial marginal of boolean data under the full table."""
    x, rows = _as_data(x_values, parent_rows)
    return log_marginal_likelihood(_table_counts(x, rows), _table_alpha(alpha, rows.shape[1]))


def laplace_log_marginal(
    kind: str,
    x_values,
    parent_rows,
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
    x, rows = _as_data(x_values, parent_rows)
    if kind == "table":
        alpha_x = _table_alpha(alpha, rows.shape[1])
        counts = _table_counts(x, rows)
        log_beta_prior = log_beta_multi([alpha_x, alpha_x])
        total = 0.0
        for row in counts.rows.values():
            n0, n1 = float(row[0]) + alpha_x, float(row[1]) + alpha_x
            theta = n1 / (n0 + n1)
            log_peak = n1 * math.log(theta) + n0 * math.log1p(-theta) - log_beta_prior
            curvature = (n0 + n1) * theta * (1.0 - theta)
            total += log_peak + 0.5 * LN_2PI - 0.5 * math.log(curvature)
        return total
    fit = fit_map(kind, x, rows, prior_scale=prior_scale, warm_start=warm_start)
    _, _, hessian, d = _unconstrained_problem(kind, x, rows, prior_scale)
    u = _warm_to_u(kind, fit.params)
    return fit.log_posterior + 0.5 * d * LN_2PI - 0.5 * log_det_neg_hessian(hessian(u))


def boolean_node_data(
    net: CombinedNetwork, x: int, parents: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Extract (child values, parent rows) as booleans from the example log.

    The second value label of a variable is its "true" state.
    """
    schema = net.schema
    bad = [v for v in (x, *parents) if schema.arity(v) != 2]
    if bad:
        names = ", ".join(schema.name(v) for v in bad)
        raise UnsupportedModelError(f"noisy-or/logistic need boolean variables; not boolean: {names}")
    log = net.example_log
    return log[:, x] == 1, log[:, list(parents)] == 1


def score_node_with_model(
    net: CombinedNetwork,
    x: int,
    node: LatticeNode,
    kind: str,
    *,
    prior_scale: float = DEFAULT_PRIOR_SCALE,
) -> LocalModelScore:
    """Score one lattice node under the chosen model and cache the result.

    The table kind reproduces the node's exact Dirichlet marginal; the
    restricted kinds fit their parameters (warm-started from the previous
    fit, if any, and refitted once from a cold start if that fit does not
    converge) and store the normal-expansion marginal in the node's
    parallel score slot, leaving the structure prior and the exact table
    score untouched.
    """
    lattice = net.lattices[x]
    if kind == "table":
        sync_node(net, lattice, node)
        return LocalModelScore(kind="table", params=None, log_marginal=node.log_ml)
    if kind not in ("noisy-or", "logistic"):
        raise ValueError(f"unknown model kind {kind!r}")
    x_values, rows = boolean_node_data(net, x, node.parents)
    warm_list = node.model_params.get(kind)
    warm = None
    if warm_list is not None:
        warm = (
            LogisticParams(tuple(warm_list))
            if kind == "logistic"
            else NoisyOrParams(tuple(warm_list))
        )
    try:
        fit = fit_map(kind, x_values, rows, prior_scale=prior_scale, warm_start=warm)
    except FitConvergenceError:
        if warm is None:
            raise
        # a warm start far from the new optimum can stall where a cold one
        # converges in a few steps; retry once from the origin
        fit = fit_map(kind, x_values, rows, prior_scale=prior_scale)
    marginal = laplace_log_marginal(
        kind, x_values, rows, prior_scale=prior_scale, warm_start=fit.params
    )
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
