"""Observation ingestion and the any-time beam search over parent lattices.

The combined network holds one parent lattice per variable plus the full
example log, a 2-D integer array with one row per example.  Counts are the
single source of truth: ``sync_node`` is the only place examples enter a
node.  It counts the rows the node has not absorbed yet in one vectorised
pass and sets the node's log marginal likelihood from its counts, so a
score depends only on the counts, never on how the data was split into
batches.  Two kinds of update:

- ``observe_batch``: validate a batch, append it to the log, then sync
  every alive node once.  Asleep nodes are left stale and catch up from
  the log the next time the search touches their lattice.

- ``refine``: beam search per variable, driven by three thresholds
  relative to the best score found (1 > c_alive >= d_open >= e_dead > 0):
  nodes within a factor c_alive of the best are alive, nodes within
  d_open stay on the expansion queue, nodes below e_dead whose sample
  mass clears ``dead_kappa * m_x * |v(parents)|`` are killed for good.
  A hysteresis factor keeps freshly admitted nodes from flapping: a node
  is admitted at the plain threshold but demoted only after falling below
  threshold * hysteresis.

The search is resumable: stopping after any expansion budget and calling
``refine`` again converges to the state a single uninterrupted call
produces, because expansion order depends only on stored scores (popping
by score, ties broken by ascending parent-set key) and the open flags
persist on the nodes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    ArcPriorMatrix,
    ConcreteNetwork,
    ConfigurationError,
    CountTable,
    DomainSchema,
    Example,
    PriorConfig,
    config_codes,
    config_count,
)
from .kernels import (
    NEG_INF,
    alpha_for,
    expected_theta,
    log_marginal_likelihood,
    log_structure_prior,
)
from .lattice import (
    ExpansionFlag,
    LatticeNode,
    LatticeStateError,
    NodeStatus,
    ParentLattice,
    children_of,
    insert_node,
    new_lattice,
    set_status,
)

SCORING_MODELS = ("table", "noisy-or", "logistic")


@dataclass(frozen=True)
class SearchParams:
    """Beam-search thresholds and limits; defaults favour a narrow search."""

    c_alive: float = 0.1
    d_open: float = 0.01
    e_dead: float = 0.001
    hysteresis: float = 0.5
    dead_kappa: float = 5.0
    budget: int | None = None

    def __post_init__(self) -> None:
        # ties are allowed so fully permissive searches can set all three equal
        if not (1.0 > self.c_alive >= self.d_open >= self.e_dead > 0.0):
            raise ConfigurationError(
                "thresholds must satisfy 1 > c_alive >= d_open >= e_dead > 0, got "
                f"{self.c_alive}, {self.d_open}, {self.e_dead}"
            )
        if not 0.0 < self.hysteresis <= 1.0:
            raise ConfigurationError(f"hysteresis must be in (0, 1], got {self.hysteresis}")
        # dead_kappa = 0 is permitted but unsafe: nodes may die on no evidence.
        if self.dead_kappa < 0:
            raise ConfigurationError(f"dead_kappa must be nonnegative, got {self.dead_kappa}")
        if self.budget is not None and self.budget < 0:
            raise ConfigurationError(f"budget must be nonnegative, got {self.budget}")

    @property
    def log_c(self) -> float:
        return math.log(self.c_alive)

    @property
    def log_d(self) -> float:
        return math.log(self.d_open)

    @property
    def log_e(self) -> float:
        return math.log(self.e_dead)

    @property
    def log_h(self) -> float:
        return math.log(self.hysteresis)


@dataclass
class CombinedNetwork:
    """All parent lattices plus the retained example log and global priors.

    ``example_log`` is an (n, V) array of value indices whose dtype is the
    schema's ``value_dtype``; any examples given here are validated and
    converted by ``DomainSchema.encode_rows``.
    """

    schema: DomainSchema
    priors: ArcPriorMatrix
    config: PriorConfig
    lattices: list[ParentLattice]
    example_log: np.ndarray | None = None
    scoring_model: str = "table"

    def __post_init__(self) -> None:
        rows = () if self.example_log is None else self.example_log
        self.example_log = self.schema.encode_rows(rows)

    @property
    def n_total(self) -> int:
        return self.example_log.shape[0]


@dataclass
class SearchReport:
    """What one ``refine`` call did.

    ``best_scores`` maps each variable to the best score of its alive parent
    sets under the active scoring model.  For a lattice the call did not
    search (a zero budget, or a budget spent before reaching it) this is
    the cached best: refitting nothing, it may lag the log (``_cached_best``).
    """

    expansions: int = 0
    nodes_created: int = 0
    nodes_killed: int = 0
    exhausted: bool = True
    best_scores: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class NetworkStats:
    stored: dict[str, int]
    alive: dict[str, int]
    dead: dict[str, int]
    open: dict[str, int]

    @property
    def total_stored(self) -> int:
        return sum(self.stored.values())


def init(
    schema: DomainSchema, priors: ArcPriorMatrix, config: PriorConfig
) -> CombinedNetwork:
    """Network primed with the expert's arc beliefs: one root-only lattice per variable."""
    return CombinedNetwork(
        schema=schema,
        priors=priors,
        config=config,
        lattices=[new_lattice(x, schema, priors, config) for x in range(len(schema))],
    )


def observe(net: CombinedNetwork, example: Example) -> None:
    """Absorb one fully specified example: ``observe_batch`` of one."""
    observe_batch(net, [example])


def observe_batch(net: CombinedNetwork, examples) -> None:
    """Absorb a batch of examples into the log and every alive node.

    ``examples`` is an iterable of examples or an integer (n, V) array.
    Atomic per batch: the whole batch is validated (``encode_rows``) before
    any state changes, so one invalid example rejects it.
    """
    rows = net.schema.encode_rows(examples)
    if not len(rows):
        return
    net.example_log = np.concatenate((net.example_log, rows))
    for lattice in net.lattices:
        for node in lattice.nodes.values():
            if node.status is NodeStatus.ALIVE:
                sync_node(net, lattice, node)


def sync_node(net: CombinedNetwork, lattice: ParentLattice, node: LatticeNode) -> None:
    """Count the logged examples the node has not absorbed yet, then rescore it.

    Rows are grouped by their parent configuration's mixed-radix code (as
    in ``config_index``) and counted per child value in one pass; the
    node's log marginal likelihood is then recomputed from its counts.
    """
    block = net.example_log[node.synced_through :]
    if not len(block):
        return
    code = config_codes(block, node.parents, net.schema)
    codes, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    m_x = node.counts.m_x
    cells = np.bincount(inverse * m_x + block[:, lattice.x], minlength=len(codes) * m_x)
    configs = block[first][:, list(node.parents)].tolist()
    for config, row in zip(configs, cells.reshape(len(codes), m_x)):
        node.counts.add(tuple(config), row)
    node.log_ml = log_marginal_likelihood(node.counts, node.alpha_x)
    node.synced_through = net.n_total


def dead_condition(node: LatticeNode, schema: DomainSchema, x: int, dead_kappa: float) -> bool:
    """Whether the node has seen enough data for a kill decision to be stable.

    True once the absorbed sample mass reaches dead_kappa * m_x * |v(parents)|.
    """
    threshold = dead_kappa * schema.arity(x) * config_count(schema, node.parents)
    return node.counts.total >= threshold


def _node_score(net: CombinedNetwork, lattice: ParentLattice, node: LatticeNode) -> float:
    """The score everything ranks by: log prior plus the active model's marginal."""
    if net.scoring_model == "table":
        return node.log_score
    from . import localmodels  # deferred: localmodels imports engine helpers

    localmodels.ensure_model_score(net, lattice, node, net.scoring_model)
    return node.log_prior + node.model_ml[net.scoring_model]


def _scored_best(net: CombinedNetwork, lattice: ParentLattice) -> float:
    return max((_node_score(net, lattice, n) for n in lattice.alive_nodes()), default=NEG_INF)


def _cached_best(net: CombinedNetwork, lattice: ParentLattice) -> float:
    """``_scored_best`` from the cached scores, refitting nothing: a model
    score may lag the log, and a node never scored under the model is -inf."""
    if net.scoring_model == "table":
        return max((n.log_score for n in lattice.alive_nodes()), default=NEG_INF)
    return max(
        (n.log_prior + n.model_ml.get(net.scoring_model, NEG_INF) for n in lattice.alive_nodes()),
        default=NEG_INF,
    )


def _best_over_live(net: CombinedNetwork, lattice: ParentLattice) -> float:
    """Best score over every node still in play (anything not dead)."""
    return max(
        (
            _node_score(net, lattice, n)
            for n in lattice.nodes.values()
            if n.status is not NodeStatus.DEAD
        ),
        default=NEG_INF,
    )


def _kill(lattice: ParentLattice, node: LatticeNode) -> None:
    set_status(lattice, node, NodeStatus.DEAD)


def _rethreshold_node(
    net: CombinedNetwork,
    lattice: ParentLattice,
    node: LatticeNode,
    score: float,
    best: float,
    params: SearchParams,
) -> None:
    """Recompute a non-dead node's status and open flag against ``best``.

    Admission uses the plain thresholds (boundary inclusive); demotion of a
    currently alive/open node additionally requires falling below threshold
    times the hysteresis factor.
    """
    if score < params.log_e + best and dead_condition(
        node, net.schema, lattice.x, params.dead_kappa
    ):
        _kill(lattice, node)
        return
    if score >= params.log_c + best:
        node.status = NodeStatus.ALIVE
    elif node.status is NodeStatus.ALIVE and score >= params.log_c + params.log_h + best:
        pass  # hysteresis: admitted nodes survive small dips
    else:
        node.status = NodeStatus.ASLEEP
    if node.expanded:
        node.expansion = ExpansionFlag.CLOSED
    elif score >= params.log_d + best:
        node.expansion = ExpansionFlag.OPEN
    elif node.expansion is ExpansionFlag.OPEN and score >= params.log_d + params.log_h + best:
        pass
    else:
        node.expansion = ExpansionFlag.CLOSED


def _rethreshold_lattice(
    net: CombinedNetwork,
    lattice: ParentLattice,
    best: float,
    params: SearchParams,
) -> None:
    """Recompute statuses and open flags of non-dead nodes against ``best``."""
    for node in sorted(lattice.nodes.values(), key=lambda n: n.key):
        if node.status is not NodeStatus.DEAD:
            _rethreshold_node(net, lattice, node, _node_score(net, lattice, node), best, params)


def _catch_up(net: CombinedNetwork, lattice: ParentLattice, params: SearchParams) -> None:
    """Sync every non-dead node with the log, then re-aim every status at
    the new best, so all the scores compared have absorbed the same examples."""
    for node in lattice.nodes.values():
        if node.status is not NodeStatus.DEAD:
            sync_node(net, lattice, node)
    _rethreshold_lattice(net, lattice, _best_over_live(net, lattice), params)


def rethreshold(net: CombinedNetwork, params: SearchParams) -> None:
    """Catch every lattice up with the log and re-aim its statuses at its best score."""
    for lattice in net.lattices:
        _catch_up(net, lattice, params)


def _open_queue(net: CombinedNetwork, lattice: ParentLattice) -> list[tuple[float, int]]:
    """Heap of the open nodes: best score first, ties by ascending key."""
    queue = [
        (-_node_score(net, lattice, n), n.key)
        for n in lattice.nodes.values()
        if n.expansion is ExpansionFlag.OPEN
    ]
    heapq.heapify(queue)
    return queue


def _create_child(
    net: CombinedNetwork, lattice: ParentLattice, key: int
) -> LatticeNode:
    x = lattice.x
    parents = lattice.parents_of_key(key)
    node = insert_node(
        lattice,
        key,
        counts=CountTable(net.schema.arity(x)),
        log_prior=log_structure_prior(x, parents, net.priors, net.schema),
        alpha_x=alpha_for(x, parents, net.config, net.schema),
    )
    sync_node(net, lattice, node)
    return node


def _refine_lattice(
    net: CombinedNetwork,
    lattice: ParentLattice,
    params: SearchParams,
    budget_left: int | None,
    report: SearchReport,
) -> int | None:
    """Drain one lattice's open queue; returns the remaining budget."""
    if lattice.last_refine_n != net.n_total:
        # new data arrived since the last search touched this lattice
        _catch_up(net, lattice, params)
        lattice.last_refine_n = net.n_total

    queue = _open_queue(net, lattice)
    best = _scored_best(net, lattice)
    while queue:
        if budget_left is not None and budget_left <= 0:
            report.exhausted = False
            return 0
        _, key = heapq.heappop(queue)
        node = lattice.nodes[key]
        if node.expansion is not ExpansionFlag.OPEN:
            continue  # closed by a rethreshold while queued
        if node.status is NodeStatus.DEAD:
            raise LatticeStateError(f"dead node {key:#x} found on the open queue")
        node.expansion = ExpansionFlag.CLOSED
        score = _node_score(net, lattice, node)
        if score < params.log_e + best and dead_condition(
            node, net.schema, lattice.x, params.dead_kappa
        ):
            _kill(lattice, node)
            continue
        if score < params.log_d + best:
            continue  # out of the beam for now; stays asleep unless alive
        node.expanded = True
        report.expansions += 1
        if budget_left is not None:
            budget_left -= 1
        fresh: list[LatticeNode] = []
        scores: dict[int, float] = {}
        for child_key in children_of(lattice, node):
            child = lattice.nodes.get(child_key)
            if child is None:
                child = _create_child(net, lattice, child_key)
                fresh.append(child)
                report.nodes_created += 1
            elif child.status is NodeStatus.DEAD:
                continue  # never synced again: its score lags the log
            scores[child_key] = _node_score(net, lattice, child)
        top = max(scores.values(), default=NEG_INF)
        if top > best:
            best = top
            _rethreshold_lattice(net, lattice, best, params)
            # re-seed the queue: the rethreshold may have opened or closed nodes
            queue = _open_queue(net, lattice)
        for child in fresh:  # a fresh node starts asleep and closed: no hysteresis
            _rethreshold_node(net, lattice, child, scores[child.key], best, params)
            if child.expansion is ExpansionFlag.OPEN:
                heapq.heappush(queue, (-scores[child.key], child.key))
    return budget_left


def refine(net: CombinedNetwork, params: SearchParams) -> SearchReport:
    """Run the beam search over every lattice, respecting the expansion budget.

    Any-time: with a finite budget the call stops mid-search and a later
    call picks up exactly where it left off.
    """
    report = SearchReport()
    if params.budget == 0:
        # a zero budget is a pure no-op, not even parameter syncing or refitting
        report.exhausted = False
        for lattice in net.lattices:
            report.best_scores[net.schema.name(lattice.x)] = _cached_best(net, lattice)
        return report
    budget_left: int | None = params.budget
    dead_before = _dead_count(net)
    for lattice in net.lattices:
        budget_left = _refine_lattice(net, lattice, params, budget_left, report)
        report.best_scores[net.schema.name(lattice.x)] = _scored_best(net, lattice)
        if budget_left == 0 and not report.exhausted:
            break
    report.nodes_killed = _dead_count(net) - dead_before
    for lattice in net.lattices:  # those the budget did not reach: nothing is refitted
        name = net.schema.name(lattice.x)
        if name not in report.best_scores:
            report.best_scores[name] = _cached_best(net, lattice)
    return report


def _dead_count(net: CombinedNetwork) -> int:
    return sum(n.status is NodeStatus.DEAD for lat in net.lattices for n in lat.nodes.values())


def best_network(net: CombinedNetwork) -> ConcreteNetwork:
    """Point estimate: each variable's top-scoring alive parent set with its
    posterior-mean CPT.  Ties break deterministically toward the smaller key."""
    parents: list[tuple[int, ...]] = []
    tables = []
    for lattice in net.lattices:
        alive = lattice.alive_nodes()
        if not alive:
            raise LatticeStateError(
                f"no alive parent set for {net.schema.name(lattice.x)!r}"
            )
        node = min(alive, key=lambda n: (-_node_score(net, lattice, n), n.key))
        sync_node(net, lattice, node)
        parent_arities = tuple(net.schema.arity(p) for p in node.parents)
        parents.append(node.parents)
        tables.append(
            expected_theta(node.counts, node.alpha_x, net.schema.arity(lattice.x), parent_arities)
        )
    return ConcreteNetwork(schema=net.schema, parents=tuple(parents), tables=tuple(tables))


def network_stats(net: CombinedNetwork) -> NetworkStats:
    stored: dict[str, int] = {}
    alive: dict[str, int] = {}
    dead: dict[str, int] = {}
    open_: dict[str, int] = {}
    for lattice in net.lattices:
        name = net.schema.name(lattice.x)
        stored[name] = len(lattice.nodes)
        alive[name] = sum(1 for n in lattice.nodes.values() if n.status is NodeStatus.ALIVE)
        dead[name] = sum(1 for n in lattice.nodes.values() if n.status is NodeStatus.DEAD)
        open_[name] = sum(
            1 for n in lattice.nodes.values() if n.expansion is ExpansionFlag.OPEN
        )
    return NetworkStats(stored=stored, alive=alive, dead=dead, open=open_)
