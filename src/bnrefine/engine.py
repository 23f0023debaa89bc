"""Observation ingestion and the any-time beam search over parent lattices.

The combined network holds one parent lattice per variable plus the full
example log, a 2-D integer array with one row per example.  Counts are the
single source of truth: ``sync_node`` is the only place examples enter a
node (a loaded session recounts its nodes from the log through the same
code).  It codes the rows the node has not absorbed yet by parent
configuration and adds them to the node's ``CountTable`` as one block.
Under every model a score is a function of those counts, computed lazily
and cached by ``_node_score`` alone, so it never depends on how the data
was split into batches.  Two kinds of update:

- ``observe_batch``: validate a batch, append it to the log, then sync
  every alive node once.  Asleep nodes are left stale and catch up from
  the log the next time the search touches their lattice.

- ``refine``: beam search per variable, driven by three thresholds
  relative to the best score found (1 > c_alive >= d_open >= e_dead > 0):
  nodes within a factor c_alive of the best are alive, nodes within
  d_open are open for expansion, nodes below e_dead whose sample
  mass clears ``dead_kappa * m_x * |v(parents)|`` are killed for good.
  A hysteresis factor keeps freshly admitted nodes from flapping: a node
  is admitted at the plain threshold but demoted only after falling below
  threshold * hysteresis.

Each pass over a lattice re-aims it (syncs every stored node, takes the
best score over them under the active model, rethresholds) and then
expands its best open node, by score with ties broken by ascending
parent-set key; a node left open only by hysteresis is closed when
reached, without expanding or spending budget.  The search is resumable:
stopping after any expansion budget and calling ``refine`` again
converges to the state a single uninterrupted call produces, because the
open nodes are the only queue, the expansion states persist on the
nodes, and re-aiming a lattice that is already aimed changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    ArcPriorMatrix,
    ConcreteNetwork,
    ConfigurationError,
    DomainSchema,
    Example,
    PriorConfig,
    config_codes,
)
from .kernels import NEG_INF, expected_theta, log_marginal_likelihood
from .lattice import (
    ExpansionFlag,
    LatticeNode,
    LatticeStateError,
    NodeStatus,
    ParentLattice,
    children_of,
    insert_node,
    kill,
    new_lattice,
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
        if not self.dead_kappa >= 0:  # NaN too: it would never kill
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

    ``best_scores`` maps each variable to the best cached score of its alive
    parent sets under the active scoring model (``_cached_best``), read
    after the search.  A lattice the call searched has every stored set
    scored on the whole log, so its entry is exact.  For one it did not
    search (a zero budget, or a budget spent before reaching it) nothing is
    computed: the entry may lag the log, and it is -inf if no alive set is
    scored yet, as after loading.
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
    """Count the logged examples the node has not absorbed yet."""
    _count_rows(net, lattice, node, net.n_total)


def _count_rows(
    net: CombinedNetwork, lattice: ParentLattice, node: LatticeNode, stop: int
) -> None:
    """Count log rows ``synced_through:stop`` into the node as one block, coded by
    parent configuration (``config_codes``).  Session loading recounts stored
    nodes here too."""
    block = net.example_log[node.synced_through : stop]
    if len(block):
        node.counts.add(config_codes(block, node.parents, net.schema), block[:, lattice.x])
    node.synced_through = stop


def dead_condition(node: LatticeNode, dead_kappa: float) -> bool:
    """Whether the node has seen enough data for a kill decision to be stable.

    True once the absorbed sample mass reaches dead_kappa * m_x * |v(parents)|,
    read from the shape of the node's counts.
    """
    counts = node.counts
    return counts.total >= dead_kappa * counts.m_x * math.prod(counts.arities)


def _node_score(net: CombinedNetwork, lattice: ParentLattice, node: LatticeNode) -> float:
    """The score everything ranks by: log prior plus the active model's
    marginal of the node's counts, cached in ``node.scores`` until they change."""
    kind = net.scoring_model
    cached = node.scores.get(kind)
    if cached is not None and cached[0] == node.synced_through:
        return node.log_prior + cached[1]
    if kind == "table":
        log_ml = log_marginal_likelihood(node.counts.cells, node.alpha_x)
    else:
        from . import localmodels  # deferred: localmodels imports engine helpers

        log_ml = localmodels.score_node_with_model(net, lattice.x, node, kind).log_marginal
    node.scores[kind] = (node.synced_through, log_ml)
    return node.log_prior + log_ml


def _cached_best(net: CombinedNetwork, lattice: ParentLattice) -> float:
    """The best score of the lattice's alive nodes from the cached scores,
    computing nothing: a score may lag the log, and a node never scored
    under the model is -inf.  Right after ``_catch_up`` every stored node
    is scored on the whole log, so it is then the exact best."""
    kind = net.scoring_model
    return max(
        (n.log_prior + n.scores[kind][1] for n in lattice.alive_nodes() if kind in n.scores),
        default=NEG_INF,
    )


def _rethreshold_lattice(
    net: CombinedNetwork,
    lattice: ParentLattice,
    best: float,
    params: SearchParams,
) -> None:
    """Recompute every stored node's status and expansion state against ``best``,
    or kill it.

    Admission uses the plain thresholds (boundary inclusive); demotion of a
    currently alive/open node additionally requires falling below threshold
    times the hysteresis factor.  An expanded node stays expanded.  Aiming
    twice at the same best changes nothing.
    """
    for node in list(lattice.nodes.values()):
        score = _node_score(net, lattice, node)
        if score < params.log_e + best and dead_condition(node, params.dead_kappa):
            kill(lattice, node.key)
            continue
        if score >= params.log_c + best:
            node.status = NodeStatus.ALIVE
        elif node.status is NodeStatus.ALIVE and score >= params.log_c + params.log_h + best:
            pass  # hysteresis: admitted nodes survive small dips
        else:
            node.status = NodeStatus.ASLEEP
        if node.expansion is ExpansionFlag.EXPANDED:
            continue  # an expanded node never reopens
        if score >= params.log_d + best:
            node.expansion = ExpansionFlag.OPEN
        elif node.expansion is ExpansionFlag.OPEN and score >= params.log_d + params.log_h + best:
            pass
        else:
            node.expansion = ExpansionFlag.CLOSED


def _catch_up(net: CombinedNetwork, lattice: ParentLattice, params: SearchParams) -> float:
    """Sync every stored node with the log, re-aim every status at the best
    score over them under the active model, and return that best, so all the
    scores compared have absorbed the same examples."""
    for node in lattice.nodes.values():
        if node.synced_through != net.n_total:
            sync_node(net, lattice, node)
    best = max(_node_score(net, lattice, n) for n in lattice.nodes.values())
    _rethreshold_lattice(net, lattice, best, params)
    return best


def rethreshold(net: CombinedNetwork, params: SearchParams) -> None:
    """Catch every lattice up with the log and re-aim its statuses at its best score."""
    for lattice in net.lattices:
        _catch_up(net, lattice, params)


def _refine_lattice(
    net: CombinedNetwork,
    lattice: ParentLattice,
    params: SearchParams,
    budget_left: int | None,
    report: SearchReport,
) -> int | None:
    """Re-aim the lattice and expand its best open node until none is open;
    returns the remaining budget."""
    while True:
        best = _catch_up(net, lattice, params)
        open_nodes = [n for n in lattice.nodes.values() if n.expansion is ExpansionFlag.OPEN]
        if not open_nodes:
            return budget_left
        if budget_left is not None and budget_left <= 0:
            report.exhausted = False
            return 0
        node = min(open_nodes, key=lambda n: (-_node_score(net, lattice, n), n.key))
        if _node_score(net, lattice, node) < params.log_d + best:
            node.expansion = ExpansionFlag.CLOSED  # open only by hysteresis: no expansion
            continue
        node.expansion = ExpansionFlag.EXPANDED
        report.expansions += 1
        if budget_left is not None:
            budget_left -= 1
        for child_key in children_of(lattice, node):
            if child_key not in lattice.dead and child_key not in lattice.nodes:
                insert_node(lattice, child_key)
                report.nodes_created += 1


def refine(net: CombinedNetwork, params: SearchParams) -> SearchReport:
    """Run the beam search over every lattice, respecting the expansion budget.

    Any-time: with a finite budget the call stops mid-search and a later
    call picks up exactly where it left off.
    """
    report = SearchReport()
    if params.budget == 0:
        report.exhausted = False  # a zero budget searches nothing, not even syncing
    else:
        budget_left: int | None = params.budget
        for lattice in net.lattices:
            dead_before = len(lattice.dead)
            budget_left = _refine_lattice(net, lattice, params, budget_left, report)
            report.nodes_killed += len(lattice.dead) - dead_before
            if budget_left == 0 and not report.exhausted:
                break
    for lattice in net.lattices:  # a searched lattice's cache is fresh (_catch_up)
        report.best_scores[net.schema.name(lattice.x)] = _cached_best(net, lattice)
    return report


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
        parents.append(node.parents)
        tables.append(expected_theta(node.counts, node.alpha_x))
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
        dead[name] = len(lattice.dead)
        open_[name] = sum(
            1 for n in lattice.nodes.values() if n.expansion is ExpansionFlag.OPEN
        )
    return NetworkStats(stored=stored, alive=alive, dead=dead, open=open_)
