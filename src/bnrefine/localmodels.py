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

Both likelihoods depend on the data only through the family's ``CountTable``:
one row ``[n_false, n_true]`` per observed parent configuration, at most
2^n rows however many examples were seen.  Every function here takes those
counts, never a node, and one kernel per model turns them into the log
posterior, its gradient and its Hessian, so the cost of a fit depends on
the number of observed parent configurations, not on the number of examples.

Parameters are fitted by maximum posterior in unconstrained coordinates
(tau for logistic, logit q for noisy-or) under an independent normal prior
per coordinate, by Newton steps where the observed curvature allows and
Fisher scoring steps elsewhere, and integrated out with a multivariate
normal expansion at the fitted point (one fit per score) to give a log
marginal likelihood comparable to the exact Dirichlet table score.  Every
fit starts from a point computed from the same counts (``_start``), never
from an earlier fit, so a score is a function of the counts alone.

A fit is plain Python float arithmetic from its count rows to its
marginal: ``_blocks`` reads the ``CountTable`` once, and the kernel, the
start, each step (``_cholesky``, ``_solve``) and the log determinant work
on floats and on the rows of lower triangles.  The kernel returns the log
posterior itself, the normal prior added in, and ``_ascend`` factors -H
once at the optimum, so the fit carries the log determinant its Laplace
term needs.  With d = 1 + the number of parents (2 to 5 on the demo
network) and at most 2^(d-1) rows, a numpy call costs more in dispatch
than in arithmetic.  Floats raise where numpy warned (division by zero,
log(0), exp overflow), so the noisy-or kernel returns -inf once
Pr(x = true) underflows, and the line search backs off from it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .domain import CountTable, DomainSchema

LN_2 = math.log(2.0)
LN_2PI = math.log(2.0 * math.pi)
# read by every fit as it runs: the normal prior's standard deviation per
# coordinate, the iteration cap, and the gradient max-norm of convergence
PRIOR_SCALE = 10.0
MAX_ITER = 500
TOL = 1e-8
# a gain below this many ulps of the objective is lost in its rounding
RESOLUTION = 16.0 * sys.float_info.epsilon


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
        if not self.q or any(not 0.0 < v < 1.0 for v in self.q):
            raise ValueError(f"noisy-or parameters must lie strictly in (0,1): {self.q}")


@dataclass(frozen=True)
class LogisticParams:
    tau: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.tau or any(not math.isfinite(v) for v in self.tau):
            raise ValueError(f"logistic parameters must be finite: {self.tau}")


@dataclass(slots=True)
class MapFit:
    params: NoisyOrParams | LogisticParams
    log_posterior: float
    gradient_norm: float
    iterations: int
    trace: tuple[float, ...]
    # log det(-H) of the log posterior at params, from its Cholesky factor;
    # None where -H has none, and then the Laplace expansion raises
    log_det: float | None


def _blocks(counts: CountTable) -> list[tuple[tuple[int, ...], tuple, float, float]]:
    """The counts read once, as one ``(active, lower, n_false, n_true)`` tuple
    per observed parent configuration in code order: the coordinates active
    under it (the leak/intercept 0 first, then i + 1 for each parent i whose
    bit of the code is set), and each active i with the active j <= i, the
    entries of row i of a matrix's lower triangle the configuration adds to."""
    n = len(counts.arities)
    return [
        (*_layout(n, code), n_false, n_true)
        for code, (n_false, n_true) in zip(counts.codes.tolist(), counts.cells.astype(float).tolist())
    ]


@functools.lru_cache(maxsize=1024)  # the same few codes recur in every fit
def _layout(n: int, code: int) -> tuple[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]:
    """``_blocks``' (active, lower) of one configuration code of n parents."""
    active = (0, *[i for i in range(1, n + 1) if code >> (n - i) & 1])
    return active, tuple((i, active[: k + 1]) for k, i in enumerate(active))


def _log_sigmoids(t: float) -> tuple[float, float]:
    """log sigmoid(t) = -softplus(-t) and log sigmoid(-t) = -softplus(t) from
    one tail = log1p(exp(-|t|)): with pos = max(t, 0), softplus(t) = pos +
    tail and softplus(-t) = (pos - t) + tail.  pos - t is exact, so neither
    side cancels, and the negations are exact."""
    tail = math.log1p(math.exp(-abs(t)))
    pos = t if t > 0.0 else 0.0
    return (t - pos) - tail, -pos - tail


def _lower(d: int, value: float = 0.0) -> list[list[float]]:
    """A symmetric d x d matrix as the rows of its lower triangle, filled with value."""
    return [[value] * (i + 1) for i in range(d)]


def _kernel(kind: str, u: list[float], rows, prior) -> tuple[float, list, list, list]:
    """Log posterior, gradient, -H and expected information (-H at the
    expected counts, positive definite under a proper prior) in unconstrained
    coordinates (tau for logistic, logit q for noisy-or) from the
    ``_blocks`` rows and ``_log_posterior``'s prior; each matrix is the rows
    of its lower triangle.

    Both models take their log probabilities from ``_log_sigmoids``, one
    log1p(exp(-|t|)) per entry, and the probabilities as their exponentials.
    The prior, ``(variance, precision, log normalizer)`` of the normal on
    each coordinate, is added after the likelihood's sums."""
    var, precision, log_normalizer = prior
    d = len(u)
    square = 0.0
    ll, grad, info = 0.0, [0.0] * d, _lower(d)
    exp = math.exp
    if kind == "logistic":
        for active, lower, n_false, n_true in rows:
            t = 0.0  # log odds of x = false
            for i in active:
                t += u[i]
            log_p_false, log_p_true = _log_sigmoids(t)
            p_false, p_true = exp(log_p_false), exp(log_p_true)
            ll += n_false * log_p_false + n_true * log_p_true
            residual = n_false * p_true - n_true * p_false
            weight = (n_false + n_true) * p_false * p_true
            for i, below in lower:
                grad[i] += residual
                row = info[i]
                for j in below:
                    row[j] += weight
        for i, v in enumerate(u):
            square += v * v
            grad[i] -= v / var
            info[i][i] += precision
        # canonical link: -H itself
        return ll - 0.5 * square / var + log_normalizer, grad, info, info
    if kind == "noisy-or":
        log_q, log_one_minus_q = zip(*map(_log_sigmoids, u))
        one_minus_q = [exp(v) for v in log_one_minus_q]
        false_mass, neg_hess = [0.0] * d, _lower(d)
        for active, lower, n_false, n_true in rows:
            s = 0.0  # log Pr(x = false), stable for large |u|
            for i in active:
                s += log_q[i]
            p_false, p_true = exp(s), -math.expm1(s)
            if not p_true:
                # every active q rounded to 1 (u beyond ~745), so Pr(x = true)
                # underflowed to 0 and the terms below would divide by it; only
                # a line search's trial step reaches this far, and -inf backs it off
                return -math.inf, [math.nan] * d, _lower(d, math.nan), _lower(d, math.nan)
            # log(1 - exp(s)), stable at both ends
            log_p_true = math.log(p_true) if s > -LN_2 else math.log1p(-p_false)
            ll += n_false * s + n_true * log_p_true
            # r = (ds/du) / Pr(x = true) stays bounded as q -> 1, because
            # ds/du_j = a_j (1 - q_j) <= -s; the plain second-derivative weight
            # w (1 + w), w = 1/expm1(-s), overflows there
            r = [v / p_true for v in one_minus_q]
            weight, expected = n_true * p_false, (n_false + n_true) * p_false * p_true
            for i, below in lower:
                false_mass[i] += n_false
                weighted, spread = weight * r[i], expected * r[i]
                grad[i] -= weighted
                neg_row, info_row = neg_hess[i], info[i]
                for j in below:
                    neg_row[j] += weighted * r[j]
                    info_row[j] += spread * r[j]
        for i, v in enumerate(u):
            square += v * v
            grad[i] += false_mass[i] * one_minus_q[i]
            # d(1 - q_i)/du_i = -q_i (1 - q_i) puts -q_i grad_i on the diagonal
            neg_hess[i][i] += exp(log_q[i]) * grad[i]
            grad[i] -= v / var
            neg_hess[i][i] += precision
            info[i][i] += precision
        return ll - 0.5 * square / var + log_normalizer, grad, neg_hess, info
    raise ValueError(f"unknown model kind {kind!r}")


def _u_to_params(kind: str, u: list[float]):
    if kind == "logistic":
        return LogisticParams(tuple(u))
    return NoisyOrParams(tuple(math.exp(_log_sigmoids(v)[0]) for v in u))


def _cholesky(matrix) -> list[list[float]] | None:
    """The lower Cholesky factor of a symmetric matrix, given as rows of which
    the lower triangle is read, as rows of floats; or None unless every pivot
    is > 0, and a NaN fails that test too."""
    factor: list[list[float]] = []
    for i, row in enumerate(matrix):
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


def _start(kind: str, rows, d: int, prior_precision: float) -> list[float]:
    """Where a fit starts: one weighted least squares step, ``(A'WA + I /
    sigma^2) s = A'Wy``.  With ``p = (n_false + 1/2) / (n + 1)`` per observed
    configuration, logistic fits the log odds of x = false with weights
    ``n p (1 - p)``, noisy-or fits ``log p`` (linear in log q) with weights
    ``n p / (1 - p)``, its log q clamped at -1e-3 and mapped to logit q."""
    normal, rhs = _lower(d), [0.0] * d
    for active, lower, n_false, n_true in rows:
        n = n_false + n_true
        p = (n_false + 0.5) / (n + 1.0)
        if kind == "logistic":
            y, w = math.log((n_false + 0.5) / (n_true + 0.5)), n * p * (1.0 - p)
        else:
            y, w = math.log(p), n * p / (1.0 - p)
        for i, below in lower:
            row = normal[i]
            for j in below:
                row[j] += w
        for i in active:
            rhs[i] += w * y
    for i in range(d):
        normal[i][i] += prior_precision
    # positive definite by the prior term, so the factor exists
    s = _solve(_cholesky(normal), rhs)
    if kind == "logistic":
        return s
    return [v - math.log(-math.expm1(v)) for v in (min(v, -1e-3) for v in s)]


def _log_posterior(kind: str, counts: CountTable, prior_scale: float):
    """The log posterior as ``_kernel`` reads it, from one read of the
    counts: the ``_blocks`` rows, the normal prior of standard deviation
    ``prior_scale`` per coordinate, and the fit's start."""
    rows = _blocks(counts)
    d = len(counts.arities) + 1
    var = prior_scale * prior_scale
    prior = (var, 1.0 / var, -0.5 * d * math.log(2.0 * math.pi * var))
    return rows, prior, _start(kind, rows, d, prior[1])


def fit_map(kind: str, counts: CountTable) -> MapFit:
    """Maximum-posterior fit by damped Newton-or-Fisher ascent in unconstrained space.

    A step solves against ``-H`` where it has a Cholesky factor and against
    the expected information elsewhere; both are then positive definite, so
    every direction ascends.  The objective (log likelihood plus normal log
    prior) is non-decreasing across iterations, up to its float resolution;
    convergence means the gradient's max-norm fell below ``TOL`` within
    ``MAX_ITER`` iterations.  The fit carries log det(-H) at its point.
    Deterministic given the counts and the module's constants.
    """
    if not len(counts.codes):
        raise ValueError("fit_map requires at least one data row")
    return _ascend(kind, *_log_posterior(kind, counts, PRIOR_SCALE))


def _ascend(kind: str, rows, prior, u: list[float]) -> MapFit:
    """``fit_map``'s ascent of the log posterior from the point ``u``, where
    it must be finite (``_start``'s points are: every q < 1); a
    ``ValueError`` naming the start says where it is not."""
    fval, g, neg, info = _kernel(kind, u, rows, prior)
    if not math.isfinite(fval):
        raise ValueError(f"{kind} fit cannot start at u = {u}: its log posterior is {fval}")
    trace = [fval]
    iterations = 0
    for _ in range(MAX_ITER):
        if max(map(abs, g)) < TOL:
            break
        factor = _cholesky(neg)
        newton = factor is not None
        if not newton:
            factor = _cholesky(info)  # positive definite by the prior term
        direction = _solve(factor, g)
        slope = sum(a * b for a, b in zip(g, direction))
        if newton and slope < RESOLUTION * abs(fval):
            # the predicted gain is below the objective's float resolution,
            # so backtracking cannot see it; the full Newton step polishes
            # the gradient down to tolerance
            u = [a + b for a, b in zip(u, direction)]
            fval, g, neg, info = _kernel(kind, u, rows, prior)
        else:
            step = 1.0
            accepted = False
            for _ in range(60):
                candidate = [a + step * b for a, b in zip(u, direction)]
                if candidate == u:
                    break  # the step rounded away entirely; no progress this way
                point = _kernel(kind, candidate, rows, prior)
                if point[0] >= fval + 1e-4 * step * slope:
                    u, (fval, g, neg, info), accepted = candidate, point, True
                    break
                step /= 2.0
            if not accepted:
                break
        trace.append(fval)
        iterations += 1
    grad_norm = max(map(abs, g))
    fit = MapFit(
        params=_u_to_params(kind, u),
        log_posterior=fval,
        gradient_norm=grad_norm,
        iterations=iterations,
        trace=tuple(trace),
        log_det=_log_det(neg),
    )
    if grad_norm >= TOL:
        raise FitConvergenceError(
            f"{kind} fit stopped after {iterations} iterations with "
            f"gradient norm {grad_norm:.3g}",
            best=fit,
        )
    return fit


def _log_det(matrix) -> float | None:
    """log det of a symmetric matrix via its Cholesky factor, from rows of
    which the lower triangle is read; None where it has no factor."""
    factor = _cholesky(matrix)
    if factor is None:
        return None
    return 2.0 * sum(math.log(row[i]) for i, row in enumerate(factor))


def _laplace(fit: MapFit) -> float:
    """The normal expansion of the log marginal around a converged fit;
    raises LaplaceError if -H is not positive definite there."""
    if fit.log_det is None:
        raise LaplaceError("Hessian at the fitted optimum is not negative definite")
    d = len(fit.params.q if isinstance(fit.params, NoisyOrParams) else fit.params.tau)
    return fit.log_posterior + 0.5 * d * LN_2PI - 0.5 * fit.log_det


def laplace_log_marginal(kind: str, counts: CountTable) -> float:
    """Log marginal likelihood of a restricted kind, parameters integrated out
    by the normal expansion around the MAP:
        log posterior(MAP) + (d/2) log 2*pi - (1/2) log det(-Hessian).
    """
    return _laplace(fit_map(kind, counts))


def boolean_node_data(
    schema: DomainSchema, x: int, parents: tuple[int, ...], counts: CountTable
) -> CountTable:
    """The count table of x given ``parents`` as it stands, once the family
    is checked boolean (an error names each variable that is not).  The
    second value label is "true", so each count row is ``[n_false, n_true]``."""
    bad = [v for v in (x, *parents) if schema.arity(v) != 2]
    if bad:
        names = ", ".join(schema.name(v) for v in bad)
        raise UnsupportedModelError(f"noisy-or/logistic need boolean variables; not boolean: {names}")
    return counts


def score_node_with_model(kind: str, counts: CountTable) -> float:
    """The log marginal of a boolean family's counts under a restricted
    model (noisy-or or logistic): ``laplace_log_marginal``, one fit.  With
    no counts there is nothing to fit, and the marginal is 0 because the
    parameter prior integrates to 1."""
    if kind not in ("noisy-or", "logistic"):
        raise ValueError(f"{kind!r} is not a restricted model (noisy-or or logistic)")
    if not len(counts.codes):
        return 0.0
    return laplace_log_marginal(kind, counts)
