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
counts, and one kernel per model turns them into the log likelihood, its
gradient and its Hessian, so the cost of a fit depends on the number of
observed parent configurations, not on the number of examples.

Parameters are fitted by maximum posterior in unconstrained coordinates
(tau for logistic, logit q for noisy-or) under an independent normal prior
per coordinate, by Newton steps where the observed curvature allows and
Fisher scoring steps elsewhere, and integrated out with a multivariate
normal expansion at the fitted point (one fit per score) to give a log
marginal likelihood comparable to the exact Dirichlet table score.  Every
fit starts from a point computed from the same counts (``_start``), never
from an earlier fit, so a score is a function of the counts alone.

A step solves one d x d system, d = 1 + the number of parents (a handful:
2 to 5 on the demo network), by a Cholesky factor (``_cholesky``) and two
triangular solves (``_solve``); the start and the normal expansion's log
determinant are computed the same way.  These run on plain Python floats:
at this size a numpy linear-algebra call costs more in dispatch and
error-state handling than its arithmetic, and a fit would make several
per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import CountTable
from .engine import CombinedNetwork, sync_node
from .lattice import LatticeNode

LN_2PI = math.log(2.0 * math.pi)
# read by every fit as it runs: the normal prior's standard deviation per
# coordinate, the iteration cap, and the gradient max-norm of convergence
PRIOR_SCALE = 10.0
MAX_ITER = 500
TOL = 1e-8
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
    hessian: np.ndarray = field(compare=False)  # observed, of the log posterior at params


@dataclass(frozen=True)
class LocalModelScore:
    kind: str
    params: tuple[float, ...] | None
    log_marginal: float


def _blocks(counts: CountTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Activity rows (the always-active leak/intercept column first), n_false
    and n_true, one entry per observed parent configuration in code order;
    a parent's activity is its bit of the code."""
    shifts = np.arange(len(counts.arities) - 1, -1, -1)
    activity = np.ones((len(counts.codes), len(shifts) + 1))
    activity[:, 1:] = counts.codes[:, None] >> shifts & 1
    cells = counts.cells.astype(float)
    return activity, cells[:, 0], cells[:, 1]


def _log_sigmoids(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log sigmoid(t) = -softplus(-t) and log sigmoid(-t) = -softplus(t) from
    one tail = log1p(exp(-|t|)): with pos = max(t, 0), softplus(t) = pos +
    tail and softplus(-t) = (pos - t) + tail.  pos - t is exact, so neither
    side cancels, and the negations are exact."""
    tail = np.log1p(np.exp(-np.abs(t)))
    pos = np.maximum(t, 0.0)
    return (t - pos) - tail, -pos - tail


def _log1mexp(s: np.ndarray) -> np.ndarray:
    """log(1 - exp(s)) for s < 0, stable at both ends."""
    out = np.empty_like(s, dtype=float)
    near = s > -math.log(2.0)
    out[near] = np.log(-np.expm1(s[near]))
    out[~near] = np.log1p(-np.exp(s[~near]))
    return out


def _kernel(
    kind: str, u: np.ndarray, activity: np.ndarray, n_false: np.ndarray, n_true: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Log likelihood, gradient, -H and expected information (-H at the
    expected counts, positive semidefinite) in unconstrained coordinates
    (tau for logistic, logit q for noisy-or) from per-configuration counts.

    Both models take their log probabilities from ``_log_sigmoids``, one
    log1p(exp(-|t|)) per entry, and the probabilities as their exponentials.
    A step solves against -H, or against the information where -H has no
    Cholesky factor, in plain floats: for d x d systems this small, numpy's
    per-call cost would exceed the arithmetic (see the module docstring)."""
    if kind == "logistic":
        t = activity @ u  # log odds of x = false
        log_p_false, log_p_true = _log_sigmoids(t)
        p_false, p_true = np.exp(log_p_false), np.exp(log_p_true)
        ll = n_false @ log_p_false + n_true @ log_p_true
        grad = (n_false * p_true - n_true * p_false) @ activity
        weight = (n_false + n_true) * p_false * p_true
        info = (activity.T * weight) @ activity  # canonical link: -H itself
        return float(ll), grad, info, info
    if kind == "noisy-or":
        log_q, log_one_minus_q = _log_sigmoids(u)
        q, one_minus_q = np.exp(log_q), np.exp(log_one_minus_q)
        s = activity @ log_q  # log Pr(x = false), stable for large |u|
        p_false, p_true = np.exp(s), -np.expm1(s)
        if not p_true.all():
            # every active q rounded to 1 (u beyond ~745), so Pr(x = true)
            # underflowed to 0 and the terms below would divide by it; only
            # a line search's trial step reaches this far, and -inf backs it off
            nan = np.full((len(u), len(u)), np.nan)
            return -math.inf, nan[0], nan, nan
        ll = n_false @ s + n_true @ _log1mexp(s)
        # r = (ds/du) / Pr(x = true) stays bounded as q -> 1, because
        # ds/du_j = a_j (1 - q_j) <= -s; the plain second-derivative weight
        # w (1 + w), w = 1/expm1(-s), overflows there
        r = activity * one_minus_q / p_true[:, None]
        weight = n_true * p_false
        grad = n_false @ activity * one_minus_q - weight @ r
        # d(1 - q_j)/du_j = -q_j (1 - q_j) puts -q_j grad_j on the diagonal
        neg_hess = (r.T * weight) @ r + np.diag(q * grad)
        info = (r.T * ((n_false + n_true) * p_false * p_true)) @ r
        return float(ll), grad, neg_hess, info
    raise ValueError(f"unknown model kind {kind!r}")


def _u_to_params(kind: str, u: np.ndarray):
    if kind == "logistic":
        return LogisticParams(tuple(u))
    return NoisyOrParams(tuple(np.exp(_log_sigmoids(u)[0])))


def _cholesky(matrix) -> list[list[float]] | None:
    """The lower Cholesky factor of a symmetric matrix (its lower triangle is
    read) as rows of floats, or None unless every pivot is > 0; a NaN fails
    that test too."""
    factor: list[list[float]] = []
    for i, row in enumerate(np.asarray(matrix, dtype=float).tolist()):
        lower: list[float] = []
        for j, above in enumerate(factor):
            total = row[j]
            for k in range(j):
                total -= lower[k] * above[k]
            lower.append(total / above[j])
        pivot = row[i]
        for v in lower:
            pivot -= v * v
        if not pivot > 0.0:
            return None
        lower.append(math.sqrt(pivot))
        factor.append(lower)
    return factor


def _solve(factor: list[list[float]], b) -> list[float]:
    """x with ``L L' x = b`` for the lower factor L: forward, then back substitution."""
    d = len(factor)
    x = [0.0] * d
    for i, row in enumerate(factor):
        value = b[i]
        for k in range(i):
            value -= row[k] * x[k]
        x[i] = value / row[i]
    for i in range(d - 1, -1, -1):
        value = x[i]
        for k in range(i + 1, d):
            value -= factor[k][i] * x[k]
        x[i] = value / factor[i][i]
    return x


def _start(kind, activity, n_false, n_true, prior_info) -> np.ndarray:
    """Where a fit starts: one weighted least squares step, ``(A'WA + I /
    sigma^2) s = A'Wy``.  With ``p = (n_false + 1/2) / (n + 1)`` per observed
    configuration, logistic fits the log odds of x = false with weights
    ``n p (1 - p)``, noisy-or fits ``log p`` (linear in log q) with weights
    ``n p / (1 - p)``, its log q clamped at -1e-3 and mapped to logit q."""
    n = n_false + n_true
    p = (n_false + 0.5) / (n + 1.0)
    if kind == "logistic":
        y, w = np.log((n_false + 0.5) / (n_true + 0.5)), n * p * (1.0 - p)
    else:
        y, w = np.log(p), n * p / (1.0 - p)
    weighted = activity.T * w
    # positive definite by the prior term, so the factor exists
    s = np.array(_solve(_cholesky(weighted @ activity + prior_info), (weighted @ y).tolist()))
    if kind == "logistic":
        return s
    s = np.minimum(s, -1e-3)
    return s - np.log(-np.expm1(s))


def _log_posterior(kind: str, counts: CountTable, prior_scale: float):
    """The log posterior as one function of u giving value, gradient, -H and
    expected information (positive definite by the prior), and the fit's
    start, from one read of the counts."""
    activity, n_false, n_true = _blocks(counts)
    d = activity.shape[1]
    var = prior_scale * prior_scale
    prior_info = np.eye(d) / var
    log_prior_const = -0.5 * d * math.log(2.0 * math.pi * var)

    def evaluate(u: np.ndarray):
        ll, grad, neg_hess, info = _kernel(kind, u, activity, n_false, n_true)
        value = float(ll - 0.5 * np.dot(u, u) / var + log_prior_const)
        neg = neg_hess + prior_info
        return value, grad - u / var, neg, neg if info is neg_hess else info + prior_info

    return evaluate, _start(kind, activity, n_false, n_true, prior_info)


def fit_map(kind: str, counts: CountTable) -> MapFit:
    """Maximum-posterior fit by damped Newton-or-Fisher ascent in unconstrained space.

    A step solves against ``-H`` where it has a Cholesky factor and against
    the expected information elsewhere; both are then positive definite, so
    every direction ascends.  The objective (log likelihood plus normal log
    prior) is non-decreasing across iterations, up to its float resolution;
    convergence means the gradient's max-norm fell below ``TOL`` within
    ``MAX_ITER`` iterations.  The fit carries the observed Hessian at its
    point.  Deterministic given the counts and the module's constants.
    """
    if not counts.total:
        raise ValueError("fit_map requires at least one data row")
    evaluate, start = _log_posterior(kind, counts, PRIOR_SCALE)
    return _ascend(kind, evaluate, start)


def _ascend(kind: str, evaluate, u: np.ndarray) -> MapFit:
    """``fit_map``'s ascent of ``evaluate`` from the point ``u``."""
    fval, g, neg, info = evaluate(u)
    trace = [fval]
    iterations = 0
    for _ in range(MAX_ITER):
        gradient = g.tolist()
        if max(map(abs, gradient)) < TOL:
            break
        factor = _cholesky(neg)
        newton = factor is not None
        if not newton:
            factor = _cholesky(info)  # positive definite by the prior term
        solution = _solve(factor, gradient)
        slope = sum(a * b for a, b in zip(gradient, solution))
        direction = np.array(solution)
        if newton and slope < RESOLUTION * abs(fval):
            # the predicted gain is below the objective's float resolution,
            # so backtracking cannot see it; the full Newton step polishes
            # the gradient down to tolerance
            u = u + direction
            fval, g, neg, info = evaluate(u)
        else:
            step = 1.0
            accepted = False
            for _ in range(60):
                candidate = u + step * direction
                if (candidate == u).all():
                    break  # the step rounded away entirely; no progress this way
                point = evaluate(candidate)
                if point[0] >= fval + 1e-4 * step * slope:
                    u, (fval, g, neg, info), accepted = candidate, point, True
                    break
                step /= 2.0
            if not accepted:
                break
        trace.append(fval)
        iterations += 1
    grad_norm = max(map(abs, g.tolist()))
    fit = MapFit(
        kind=kind,
        params=_u_to_params(kind, u),
        log_posterior=fval,
        gradient_norm=grad_norm,
        iterations=iterations,
        trace=tuple(trace),
        hessian=-neg,
    )
    if grad_norm >= TOL:
        raise FitConvergenceError(
            f"{kind} fit stopped after {iterations} iterations with "
            f"gradient norm {grad_norm:.3g}",
            best=fit,
        )
    return fit


def log_det_neg_hessian(hess: np.ndarray) -> float:
    """log det(-H) via Cholesky; raises LaplaceError if -H is not positive definite."""
    factor = _cholesky(-np.asarray(hess))
    if factor is None:
        raise LaplaceError("Hessian at the fitted optimum is not negative definite")
    return 2.0 * sum(math.log(row[i]) for i, row in enumerate(factor))


def _laplace(fit: MapFit) -> float:
    """The normal expansion of the log marginal around a converged fit."""
    d = len(fit.hessian)
    return fit.log_posterior + 0.5 * d * LN_2PI - 0.5 * log_det_neg_hessian(fit.hessian)


def laplace_log_marginal(kind: str, counts: CountTable) -> float:
    """Log marginal likelihood of a restricted kind, parameters integrated out
    by the normal expansion around the MAP:
        log posterior(MAP) + (d/2) log 2*pi - (1/2) log det(-Hessian).
    """
    return _laplace(fit_map(kind, counts))


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
    net: CombinedNetwork, x: int, node: LatticeNode, kind: str
) -> LocalModelScore:
    """Score one lattice node's counts, synced with the log first, under a
    restricted model (noisy-or or logistic).

    The model's parameters are fitted once, from a start computed from the
    counts, and the normal-expansion marginal is taken there; with no counts
    there is nothing to fit, and the marginal is 0 because the parameter
    prior integrates to 1.  The table
    model's exact marginal is ``kernels.log_marginal_likelihood`` of the
    counts.  The search's cache, ``node.scores``, is written by
    ``engine._node_score`` alone.
    """
    if kind not in ("noisy-or", "logistic"):
        raise ValueError(f"{kind!r} is not a restricted model (noisy-or or logistic)")
    counts = boolean_node_data(net, x, node)
    if not counts.total:
        return LocalModelScore(kind=kind, params=None, log_marginal=0.0)
    fit = fit_map(kind, counts)
    natural = fit.params.tau if kind == "logistic" else fit.params.q
    return LocalModelScore(kind=kind, params=natural, log_marginal=_laplace(fit))
