"""Shared builders for the test suite, and the references tests compare the
program with: straightforward versions of what it computes another way,
and exact ones (a full joint, a 1-d quadrature) beside ``oracle``."""

from __future__ import annotations

import itertools
import math

import numpy as np

from bnrefine import (
    ArcPriorMatrix,
    CombinedNetwork,
    ConcreteNetwork,
    DomainSchema,
    Example,
    ExpansionFlag,
    PriorConfig,
    VariableSpec,
    init,
    sync_node,
)
from bnrefine.domain import CountTable, count_cells
from bnrefine.lattice import LatticeStateError, check_lattice, children_of, insert_node
from bnrefine.localmodels import LogisticParams, NoisyOrParams, _blocks, _kernel
from bnrefine.oracle import ExactPosterior, OracleSizeError, exhaustive_posterior
from bnrefine.sampling import forward_sample


def binary_schema(names: str | list[str]) -> DomainSchema:
    return DomainSchema(tuple(VariableSpec(n, ("f", "t")) for n in names))


def fresh_net(names: str = "abc", default_prior: float = 0.5, alpha: float = 1.0) -> CombinedNetwork:
    return init(binary_schema(names), ArcPriorMatrix(default_prior=default_prior), PriorConfig(alpha))


def mandatory_root(k: int):
    """The spec of k + 1 boolean variables, the last with every other as a
    mandatory parent and no uncertain one: its root has 2**(k + 1) cells."""
    priors = ArcPriorMatrix({(y, k): 1.0 for y in range(k)}, default_prior=0.0)
    return binary_schema([f"v{i}" for i in range(k + 1)]), priors, PriorConfig()


def oversize_child_spec():
    """``mandatory_root(63)`` with v62 an uncertain parent of v63 (prior 1/2):
    v63's root has 2**63 cells, the most an int64 code indexes, and the
    child adding v62 2**64."""
    schema, priors, config = mandatory_root(63)
    priors = ArcPriorMatrix({**priors.entries, (62, 63): 0.5}, default_prior=0.0)
    return schema, priors, config


def oversize_session_document() -> dict:
    """A session document of ``oversize_child_spec`` with one logged row,
    whose v63 lattice also stores the child adding v62: 2**64 count cells."""
    from bnrefine import observe_batch
    from bnrefine.fileio import session_to_document

    net = init(*oversize_child_spec())
    observe_batch(net, [(0,) * 64])
    doc = session_to_document(net)
    doc["lattices"][63]["nodes"].append({"key": 1, "status": "asleep", "expansion": "closed"})
    return doc


def unaimed_refine(net: CombinedNetwork, params):
    """``refine`` as if no lattice remembered its last re-aim: every pass
    re-aims, and every expansion judges its children against a fresh best."""
    from unittest import mock

    from bnrefine import engine

    with mock.patch.object(engine, "_aim_stamp", lambda *_: object()):
        return engine.refine(net, params)


def five_var_truth() -> ConcreteNetwork:
    """Ground truth used by the small oracle-equivalence scenarios."""
    schema = binary_schema("abcde")
    return ConcreteNetwork(
        schema=schema,
        parents=((), (0,), (1,), (0, 2), (2,)),
        tables=(
            np.array([[0.7, 0.3]]),
            np.array([[0.8, 0.2], [0.25, 0.75]]),
            np.array([[0.85, 0.15], [0.2, 0.8]]),
            np.array([[0.9, 0.1], [0.3, 0.7], [0.25, 0.75], [0.1, 0.9]]),
            np.array([[0.75, 0.25], [0.3, 0.7]]),
        ),
    )


def chain_v_truth() -> ConcreteNetwork:
    """Six binary variables: a chain 0->1->2->3 plus the v-structure 3->5<-4.

    Every CPT row is at least 0.2 away from uniform.
    """
    schema = binary_schema("uvwxyz")
    return ConcreteNetwork(
        schema=schema,
        parents=((), (0,), (1,), (2,), (), (3, 4)),
        tables=(
            np.array([[0.75, 0.25]]),
            np.array([[0.8, 0.2], [0.25, 0.75]]),
            np.array([[0.85, 0.15], [0.2, 0.8]]),
            np.array([[0.75, 0.25], [0.3, 0.7]]),
            np.array([[0.3, 0.7]]),
            np.array([[0.9, 0.1], [0.3, 0.7], [0.25, 0.75], [0.05, 0.95]]),
        ),
    )


def mixed_arity_network(seed: int) -> ConcreteNetwork:
    """Four variables of arities 3, 2, 4 and 2 with random CPTs."""
    schema = DomainSchema(
        (
            VariableSpec("a", ("x", "y", "z")),
            VariableSpec("b", ("f", "t")),
            VariableSpec("c", tuple("pqrs")),
            VariableSpec("d", ("f", "t")),
        )
    )
    parents = ((), (0,), (0, 1), (0, 2))
    rng = np.random.default_rng(seed)
    tables = []
    for x, ps in enumerate(parents):
        shape = (int(np.prod([schema.arity(p) for p in ps])), schema.arity(x))
        raw = rng.uniform(0.05, 1.0, size=shape)
        tables.append(raw / raw.sum(axis=1, keepdims=True))
    return ConcreteNetwork(schema, parents, tuple(tables))


def sampled_net(
    truth: ConcreteNetwork, n: int, seed: int, default_prior: float = 0.5, alpha: float = 1.0
) -> tuple[CombinedNetwork, list[tuple[int, ...]]]:
    from bnrefine import observe_batch

    data = forward_sample(truth, n, seed)
    net = init(truth.schema, ArcPriorMatrix(default_prior=default_prior), PriorConfig(alpha))
    observe_batch(net, data)
    return net, data


def node_state(net: CombinedNetwork) -> dict:
    """Comparable snapshot of every node's observable state and every dead key."""
    state = {}
    for lattice in net.lattices:
        state[(lattice.x, "dead")] = frozenset(lattice.dead)
        for key, node in lattice.nodes.items():
            state[(lattice.x, key)] = (
                node.status,
                node.expansion,
                node.log_prior,
                table_rows(node.counts),
            )
    return state


def scored_best(net: CombinedNetwork, lattice) -> float:
    """The best score of the lattice's alive nodes, scoring each on its counts:
    what ``refine`` reports for a lattice it searched."""
    from bnrefine.engine import _node_score
    from bnrefine.kernels import NEG_INF

    return max((_node_score(net, lattice, n) for n in lattice.alive_nodes()), default=NEG_INF)


def stored_best(net: CombinedNetwork, lattice) -> float:
    """The best score over every stored node of the lattice, scoring each on
    its counts: what ``engine._expand`` judges children against, and the
    best a lattice's ``aim`` holds while its stamp matches."""
    from bnrefine.engine import _node_score

    return max(_node_score(net, lattice, n) for n in lattice.nodes.values())


def dead_threshold_reference(node, schema: DomainSchema, x: int, dead_kappa: float) -> float:
    """The sample mass ``dead_condition`` requires, from the schema:
    dead_kappa * m_x * |v(parents)|, multiplied left to right."""
    from bnrefine.domain import config_count

    return dead_kappa * schema.arity(x) * config_count(schema, node.parents)


def reference_counts(rows, x: int, parents: tuple[int, ...], m_x: int) -> dict:
    """Counts of x's values per parent configuration, example by example, in a
    plain dict of rows: the reference ``CountTable`` is checked against."""
    counts: dict[tuple[int, ...], list[int]] = {}
    for example in rows:
        config = tuple(int(example[p]) for p in parents)
        counts.setdefault(config, [0] * m_x)[int(example[x])] += 1
    return counts


def node_reference_counts(net: CombinedNetwork, x: int, node) -> dict:
    """``reference_counts`` of the node's parent set over the whole log."""
    return reference_counts(net.example_log, x, node.parents, net.schema.arity(x))


def reference_arc_posteriors(net: CombinedNetwork) -> dict:
    """``all_arc_posteriors(net).entries`` computed pair by pair, as it was
    before posteriors were summed per lattice: each pair's prior decides a
    hard arc, and an uncertain arc scans the alive nodes for its bit."""
    from bnrefine.query import _alive_weights

    entries = {}
    for x, lattice in enumerate(net.lattices):
        alive, weights = _alive_weights(net, lattice)
        for y in net.schema.predecessors(x):
            p = net.priors.prior(y, x)
            if p == 1.0:
                entries[(y, x)] = 1.0
            elif p == 0.0:
                entries[(y, x)] = 0.0
            else:
                bit = 1 << lattice.candidates.index(y)
                entries[(y, x)] = min(
                    1.0, math.fsum(w for n, w in zip(alive, weights) if n.key & bit)
                )
    return entries


def expand_storing_every_child(net: CombinedNetwork, lattice, node, params) -> int:
    """An expansion that stores every child neither stored nor dead
    (``insert_node``, then ``sync_node``), marks the node expanded and
    re-aims the lattice, which scores the children and kills those below
    ``e_dead``; returns how many children.  ``engine._expand`` followed by
    ``_re_aim`` must leave the lattice exactly as this does."""
    from bnrefine.engine import _re_aim

    # filtered here too, so this reference does not lean on children_of's contract
    keys = [
        k for k in children_of(lattice, node) if k not in lattice.dead and k not in lattice.nodes
    ]
    for key in keys:
        sync_node(net, lattice, insert_node(lattice, key))
    node.expansion = ExpansionFlag.EXPANDED
    _re_aim(net, lattice, params)
    return len(keys)


def table_log_ml(lattice, node) -> float:
    """The table-model log marginal likelihood of a node of ``lattice``,
    computed from its counts at the lattice's concentration."""
    from bnrefine.kernels import concentration, log_marginal_likelihood

    return log_marginal_likelihood(node.counts.cells, concentration(node.counts, lattice.alpha))


def reference_log_ml(counts: dict, alpha_x: float, m_x: int) -> float:
    from bnrefine.kernels import log_marginal_likelihood

    return log_marginal_likelihood(np.array(list(counts.values())).reshape(-1, m_x), alpha_x)


def posterior_mean(counts: dict, config: tuple[int, ...], alpha_x: float, m_x: int) -> np.ndarray:
    """Posterior-mean distribution of one parent configuration from reference counts."""
    row = np.array(counts.get(config, [0] * m_x))
    return (row + alpha_x) / (row.sum() + m_x * alpha_x)


def table_rows(counts) -> dict:
    """A ``CountTable`` as ``reference_counts`` lays it out: configuration tuple -> row."""
    rows = {}
    for code, row in zip(counts.codes.tolist(), counts.cells.tolist()):
        config = []
        for arity in reversed(counts.arities):
            code, value = divmod(code, arity)
            config.insert(0, value)
        rows[tuple(config)] = row
    return rows


def forward_sample_reference(network: ConcreteNetwork, n: int, seed: int) -> list[tuple[int, ...]]:
    """``forward_sample`` as it drew before it sampled whole arrays: one row
    and one variable at a time, one ``rng.random()`` each."""
    if n < 0:
        raise ValueError(f"sample count must be nonnegative, got {n}")
    rng = np.random.default_rng(seed)
    schema = network.schema
    cumulative = [np.cumsum(t, axis=1) for t in network.tables]
    examples = []
    values = [0] * len(schema)
    for _ in range(n):
        for x in range(len(schema)):
            row = config_index(values, network.parents[x], schema)
            values[x] = int(np.searchsorted(cumulative[x][row], rng.random(), side="right"))
            if values[x] >= schema.arity(x):
                values[x] = schema.arity(x) - 1
        examples.append(tuple(values))
    return examples


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


def map_set(exact: ExactPosterior) -> frozenset[int]:
    """The most probable parent set of an exact posterior, the smaller on ties."""
    return max(exact.posterior, key=lambda s: (exact.posterior[s], -len(s)))


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


MAX_JOINT_STATES = 2**20


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


class DeadNodeMonitor:
    """Records, check by check, every lattice whose dead keys shrank (dead is
    absorbing over time) or that breaks a rule of ``check_lattice`` (which
    says, among others, that no dead key is stored)."""

    def __init__(self):
        self.dead: dict[int, frozenset[int]] = {}
        self.violations: list[str] = []

    def check(self, net: CombinedNetwork) -> None:
        for lattice in net.lattices:
            dead = frozenset(lattice.dead)
            lost = self.dead.get(lattice.x, frozenset()) - dead
            if lost:
                self.violations.append(f"lattice {lattice.x}: dead keys {sorted(lost)} were removed")
            self.dead[lattice.x] = dead
            try:
                check_lattice(lattice, net.n_total)
            except LatticeStateError as err:
                self.violations.append(f"lattice {lattice.x}: {err}")


def log_beta_multi(ns) -> float:
    """log of the multivariate Beta function of a vector of positive reals."""
    values = [float(v) for v in ns]
    if any(v <= 0 for v in values):
        raise ValueError(f"log_beta_multi requires positive components, got {values}")
    return sum(math.lgamma(v) for v in values) - math.lgamma(sum(values))


def predictive_log_prob(row: np.ndarray, value: int, alpha_x: float, m_x: int) -> float:
    """Log posterior-predictive probability of the next observation.

    ``row`` holds the counts seen so far for one parent configuration.
    This is the single-example factor the marginal likelihood telescopes
    into, so accumulating it example by example reproduces
    ``log_marginal_likelihood`` up to rounding.
    """
    return math.log((row[value] + alpha_x) / (row.sum() + m_x * alpha_x))


def boolean_counts(x_values, parent_rows) -> CountTable:
    """Boolean (child value, parent row) data as the count table a node keeps.

    Each parent row is coded in binary, first parent most significant (the
    ``config_codes`` of boolean parents), and counted per child value; each
    count row is ``[n_false, n_true]``.
    """
    x = np.asarray(x_values, dtype=bool)
    rows = np.asarray(parent_rows, dtype=bool)
    if rows.ndim == 1:
        rows = rows.reshape(len(x), -1)
    if rows.shape[0] != x.shape[0]:
        raise ValueError(f"{x.shape[0]} child values but {rows.shape[0]} parent rows")
    n_parents = rows.shape[1]
    counts = CountTable(2, (2,) * n_parents)
    add_counts(counts, rows.astype(np.int64) @ (1 << np.arange(n_parents - 1, -1, -1)), x)
    return counts


def add_counts(table: CountTable, codes, values) -> None:
    """Count one example per (configuration code, value) pair into ``table``,
    as one block: ``count_cells`` of this table alone."""
    cells = np.asarray(codes, dtype=np.int64) * table.m_x + np.asarray(values, dtype=np.int64)
    count_cells([table], cells[:, None])


# the improper flat prior, under which ``_kernel``'s log posterior is the log
# likelihood: its variance and precision add exact zeros to each coordinate
FLAT_PRIOR = (math.inf, 0.0, 0.0)


def to_u(kind: str, params) -> np.ndarray:
    """Natural parameters (tau, or noisy-or's q) in unconstrained coordinates."""
    if kind == "logistic":
        return np.asarray(params.tau, dtype=float)
    q = np.asarray(params.q, dtype=float)
    return np.log(q) - np.log1p(-q)


def _natural_loglik(kind: str, params, counts: CountTable) -> tuple[float, np.ndarray]:
    """Log likelihood and its gradient in unconstrained coordinates."""
    u = to_u(kind, params)
    if len(u) != len(counts.arities) + 1:
        raise ValueError(f"{len(u)} parameters for {len(counts.arities)} parents")
    ll, grad, _, _ = _kernel(kind, u.tolist(), _blocks(counts), FLAT_PRIOR)
    return ll, np.array(grad)


def reference_blocks(counts: CountTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Activity rows (the always-active leak/intercept column first), n_false
    and n_true, one entry per observed parent configuration in code order;
    a parent's activity is its bit of the code."""
    shifts = np.arange(len(counts.arities) - 1, -1, -1)
    activity = np.ones((len(counts.codes), len(shifts) + 1))
    activity[:, 1:] = counts.codes[:, None] >> shifts & 1
    cells = counts.cells.astype(float)
    return activity, cells[:, 0], cells[:, 1]


def _reference_log_sigmoids(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log sigmoid(t) and log sigmoid(-t) from one log1p(exp(-|t|))."""
    tail = np.log1p(np.exp(-np.abs(t)))
    pos = np.maximum(t, 0.0)
    return (t - pos) - tail, -pos - tail


def _reference_log1mexp(s: np.ndarray) -> np.ndarray:
    """log(1 - exp(s)) for s < 0, stable at both ends."""
    out = np.empty_like(s, dtype=float)
    near = s > -math.log(2.0)
    out[near] = np.log(-np.expm1(s[near]))
    out[~near] = np.log1p(-np.exp(s[~near]))
    return out


def reference_kernel(
    kind: str, u: np.ndarray, activity: np.ndarray, n_false: np.ndarray, n_true: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """``localmodels._kernel`` in numpy arrays, as the fit computed it before it
    ran on plain floats: log likelihood, gradient, -H and expected information
    (full d x d matrices) in unconstrained coordinates, from the
    ``reference_blocks`` arrays."""
    if kind == "logistic":
        t = activity @ u  # log odds of x = false
        log_p_false, log_p_true = _reference_log_sigmoids(t)
        p_false, p_true = np.exp(log_p_false), np.exp(log_p_true)
        ll = n_false @ log_p_false + n_true @ log_p_true
        grad = (n_false * p_true - n_true * p_false) @ activity
        weight = (n_false + n_true) * p_false * p_true
        info = (activity.T * weight) @ activity  # canonical link: -H itself
        return float(ll), grad, info, info
    log_q, log_one_minus_q = _reference_log_sigmoids(u)
    q, one_minus_q = np.exp(log_q), np.exp(log_one_minus_q)
    s = activity @ log_q  # log Pr(x = false)
    p_false, p_true = np.exp(s), -np.expm1(s)
    if not p_true.all():
        nan = np.full((len(u), len(u)), np.nan)
        return -math.inf, nan[0], nan, nan
    ll = n_false @ s + n_true @ _reference_log1mexp(s)
    r = activity * one_minus_q / p_true[:, None]
    weight = n_true * p_false
    grad = n_false @ activity * one_minus_q - weight @ r
    neg_hess = (r.T * weight) @ r + np.diag(q * grad)
    info = (r.T * ((n_false + n_true) * p_false * p_true)) @ r
    return float(ll), grad, neg_hess, info


def symmetric(lower) -> np.ndarray:
    """The full symmetric matrix whose lower triangle is given as rows, as a
    fit's matrices are kept."""
    d = len(lower)
    return np.array([[lower[max(i, j)][min(i, j)] for j in range(d)] for i in range(d)])


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


def table_laplace_log_marginal(counts: CountTable, alpha_x: float) -> float:
    """The full table's Dirichlet marginal of boolean counts by the normal
    expansion, applied per parent configuration to the Dirichlet integral in
    logit space: a cross-check against the exact value."""
    log_beta_prior = log_beta_multi([alpha_x, alpha_x])
    total = 0.0
    for row in counts.cells:
        n0, n1 = float(row[0]) + alpha_x, float(row[1]) + alpha_x
        theta = n1 / (n0 + n1)
        log_peak = n1 * math.log(theta) + n0 * math.log1p(-theta) - log_beta_prior
        curvature = (n0 + n1) * theta * (1.0 - theta)
        total += log_peak + 0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(curvature)
    return total
