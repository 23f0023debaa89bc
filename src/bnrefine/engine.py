"""Observation ingestion and the any-time beam search over parent lattices.

The combined network holds one parent lattice per variable plus the full
example log, a 2-D integer array with one row per example.  Counts are the
single source of truth, and every stored node holds the counts of the
whole log between operations (rule 3 of ``lattice.check_lattice``).
Examples enter a node in one of two ways:

- ``_count_rows`` adds the log rows from a given start to many nodes at
  once: one matrix product of the rows with the nodes' place values codes
  every row for every node, and ``count_cells`` counts the codes into all
  their ``CountTable``s together.  The product runs in float64, through
  BLAS, whenever every node has at most 2**53 cells, where float sums of
  integers are exact, and in int64 otherwise; ``init`` refuses a root past
  2**63 cells, which no int64 code indexes.  ``observe_batch`` counts each
  batch into every stored node with one call (a loaded session is one
  batch: its whole log), and ``sync_node`` recounts one node, such as one
  ``insert_node`` has just stored, on the whole log;
- an expansion counts every fresh child of the expanded node on the whole
  log at once (``_count_children``), from a bit index of the log: one
  packed bitset of rows per (variable, value).  ANDing bitsets gives the
  rows of each (configuration, x value), and a popcount of each against
  an added parent's value bitsets counts a child's cell, so an expansion
  costs what it adds times n/64 words, not a code per row and
  predecessor.  Every child is scored at birth (``_expand``); one the
  next re-aim would kill goes straight to ``dead`` and is never laid out
  or built, and the others enter counted and scored.

Either way a node's counts are those of the whole log, laid out alike.
Under every model a parent set's log marginal likelihood is a function of
its count table, the lattice's ``alpha`` and the model (``family_log_ml``;
a restricted model's boolean check reads the family's variables), cached
per node by ``_node_score`` against the log's length, so a score never
depends on how the data was split into batches or how it was counted.
Two kinds of update:

- ``observe_batch``: validate a batch, append it to the log, then count
  it into every stored node at once.

- ``refine``: beam search per variable, driven by three thresholds
  relative to the best score found (1 > c_alive >= d_open >= e_dead > 0):
  nodes within a factor c_alive of the best are alive, unexpanded nodes
  within d_open are open (the search will expand them), nodes below
  e_dead whose sample mass clears ``dead_kappa * m_x * |v(parents)|``
  are killed for good.

Each pass over a lattice re-aims it (``_re_aim``: takes the best score
over every stored node under the active model, rethresholds) and then
expands its best open node, by score with ties broken by ascending
parent-set key.  The search is resumable:
stopping after any expansion budget and calling ``refine`` again
converges to the state a single uninterrupted call produces, because the
open nodes are the only queue, the expansion states persist on the
nodes, and re-aiming a lattice that is already aimed changes nothing.

So a re-aim is skipped when nothing it reads has changed.  Each lattice
keeps, in memory only, the stamp of its last re-aim (``ParentLattice.aim``:
the log's length, the scoring model, the four thresholds and how many
nodes are stored and dead); only this module reads or writes it.
``refine`` passes over a lattice whose stamp matches without re-aiming
it; the public ``rethreshold`` always re-aims.

The network keeps the bit index the same way (``CombinedNetwork.bit_index``,
never saved or compared; a loaded session starts without one).  Both rest
on the log only growing: an expansion that finds the log longer than the
index packs only the rows from the index's last partial word onward.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .domain import (
    ArcPriorMatrix,
    ConcreteNetwork,
    ConfigurationError,
    CountTable,
    DomainSchema,
    Example,
    PriorConfig,
    _is_index_type,
    count_cells,
)
from .kernels import (
    NEG_INF,
    concentration,
    expected_theta,
    log_marginal_likelihood,
    log_marginal_likelihoods,
)
from .lattice import (
    ExpansionFlag,
    LatticeNode,
    LatticeStateError,
    NodeStatus,
    ParentLattice,
    child_log_priors,
    child_parents,
    child_tables,
    children_of,
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
    dead_kappa: float = 5.0
    budget: int | None = None

    def __post_init__(self) -> None:
        # ties are allowed so fully permissive searches can set all three equal
        if not (1.0 > self.c_alive >= self.d_open >= self.e_dead > 0.0):
            raise ConfigurationError(
                "thresholds must satisfy 1 > c_alive >= d_open >= e_dead > 0, got "
                f"{self.c_alive}, {self.d_open}, {self.e_dead}"
            )
        # dead_kappa = 0 is permitted but unsafe: nodes may die on no evidence.
        if not self.dead_kappa >= 0:  # NaN too: it would never kill
            raise ConfigurationError(f"dead_kappa must be nonnegative, got {self.dead_kappa}")
        # a budget counts expansions: 1.5 would buy two, and NaN, which compares false, no bound
        if self.budget is not None and not _is_index_type(type(self.budget)):
            raise ConfigurationError(f"budget must be an integer or None, got {self.budget!r}")
        if self.budget is not None and self.budget < 0:
            raise ConfigurationError(f"budget must be nonnegative, got {self.budget}")


@dataclass
class CombinedNetwork:
    """All parent lattices plus the retained example log and global priors.

    ``example_log`` is an (n, V) array of value indices whose dtype is the
    schema's ``value_dtype``.  It starts empty: ``observe_batch`` is the
    only way rows enter it.  ``==`` compares the log's values and the
    other fields, caches left out.
    """

    schema: DomainSchema
    priors: ArcPriorMatrix
    config: PriorConfig
    lattices: list[ParentLattice]
    example_log: np.ndarray = field(init=False, compare=False)  # == compares its values
    scoring_model: str = "table"
    # the log's bit index (``_BitIndex``), kept by this module only
    bit_index: _BitIndex | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.example_log = self.schema.encode_rows(())

    @property
    def n_total(self) -> int:
        return self.example_log.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CombinedNetwork):
            return NotImplemented
        return np.array_equal(self.example_log, other.example_log) and all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self) if f.compare
        )


@dataclass
class SearchReport:
    """What one ``refine`` call did.

    ``best_scores`` maps each variable to the best cached score of its alive
    parent sets under the active scoring model, read after the search
    (``_cached_best``).  A lattice the call searched has every stored set
    scored on the whole log, and its best set is alive, so its entry is
    exact: the best of its last re-aim.  For one it did not search (a zero
    budget, or a budget spent before reaching it) nothing is computed: the
    entry may lag the log, and it is -inf if no alive set is scored yet, as
    after loading.

    ``nodes_created`` counts every child an expansion scored, stored or
    not; ``nodes_killed`` counts every set moved to ``dead``, children
    killed at birth included.
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

    @property
    def total_stored(self) -> int:
        return sum(self.stored.values())


def init(
    schema: DomainSchema, priors: ArcPriorMatrix, config: PriorConfig
) -> CombinedNetwork:
    """Network primed with the expert's arc beliefs: one root-only lattice per variable.

    Raises ``ConfigurationError`` naming the first arc prior, in ascending
    order, whose parent or child is not a position of the schema, or the
    first variable whose root has more than 2**63 cells (its arity times
    its mandatory parents' configurations): no int64 code indexes them all.
    """
    beyond = sorted((y, x) for y, x in priors.entries if y < 0 or x >= len(schema))
    if beyond:
        raise ConfigurationError(
            f"arc prior for {beyond[0]} names a position outside the {len(schema)} variables"
        )
    lattices = [new_lattice(x, schema, priors, config) for x in range(len(schema))]
    for lattice in lattices:
        root = lattice.nodes[0].counts
        cells = math.prod(root.arities) * root.m_x
        if cells > 1 << 63:
            raise ConfigurationError(
                f"variable {schema.name(lattice.x)!r} with its {len(root.arities)} mandatory "
                f"parents has {cells} count cells, more than the 2**63 an int64 code indexes"
            )
    return CombinedNetwork(schema=schema, priors=priors, config=config, lattices=lattices)


def observe(net: CombinedNetwork, example: Example) -> None:
    """Absorb one fully specified example: ``observe_batch`` of one."""
    observe_batch(net, [example])


def observe_batch(net: CombinedNetwork, examples) -> None:
    """Absorb a batch of examples into the log and every stored node.

    ``examples`` is an iterable of examples or an integer (n, V) array.
    Atomic per batch: the whole batch is validated (``encode_rows``) before
    any state changes, so one invalid example rejects it.  The batch is
    then counted into every stored node at once (``_count_rows``): each
    holds the whole log before it (rule 3 of ``check_lattice``).
    """
    rows = net.schema.encode_rows(examples)
    if not len(rows):
        return
    start = net.n_total
    net.example_log = np.concatenate((net.example_log, rows))
    _count_rows(net, [(lat, n) for lat in net.lattices for n in lat.nodes.values()], start)


def sync_node(net: CombinedNetwork, lattice: ParentLattice, node: LatticeNode) -> None:
    """Recount a node stored in ``lattice`` on the whole log, from empty
    counts, and drop its cached scores: it then holds the whole log even if
    a batch was counted into it after ``insert_node`` stored it empty."""
    if lattice.nodes.get(node.key) is not node:
        raise LatticeStateError("node is not stored in this lattice")
    node.counts = CountTable(node.counts.m_x, node.counts.arities)
    node.scores.clear()
    _count_rows(net, [(lattice, node)], 0)


def _count_rows(
    net: CombinedNetwork, pairs: list[tuple[ParentLattice, LatticeNode]], start: int
) -> None:
    """Count log rows ``start:`` into the node of every (lattice, node) pair
    at once; every node holds the counts of the rows before ``start``.

    One matrix product of the rows with each node's place values (its
    parents' and its variable's, as ``config_codes`` and ``CountTable``
    code them) gives every node's cell codes, which ``count_cells`` counts
    into all the tables together.  The product is float64 when no node has
    more than 2**53 cells: every partial sum is then an integer that
    float64 holds exactly, so the codes are those of the int64 product,
    which numpy runs in its own loop where a float one runs through BLAS.
    Past 2**53 cells it is int64.  The work runs over blocks of rows and of
    nodes, so its transient arrays stay within ``_BLOCK_CELLS`` cells
    however long the log and however many nodes: a dense table lays out at
    most ``max(4 * rows, 1024)`` cells (``count_cells``).  ``observe_batch``
    (and so session loading) and ``sync_node`` count here.
    """
    stop = net.n_total
    if stop > start:
        places, space = [], 1
        for lattice, node in pairs:
            row, place, arities = [0] * len(net.schema), 1, lattice.arities
            for v in (lattice.x, *reversed(node.parents)):
                row[v] = place
                place *= arities[v]
            places.append(row)
            space = max(space, place)
        kind = np.float64 if space <= 1 << 53 else np.int64
        places = np.array(places, dtype=kind)
        # rows x variables (the block as kind), rows x sets (cell codes) and
        # the dense tables' layout each stay within _BLOCK_CELLS
        rows = max(1, min(stop - start, _BLOCK_CELLS // max(4, len(net.schema))))
        sets = max(1, _BLOCK_CELLS // max(4 * rows, 1024))
        for first in range(0, len(pairs), sets):
            tables = [node.counts for _, node in pairs[first : first + sets]]
            weights = places[first : first + sets].T
            for at in range(start, stop, rows):
                block = net.example_log[at : min(at + rows, stop)].astype(kind)
                count_cells(tables, (block @ weights).astype(np.int64, copy=False))


def dead_condition(net: CombinedNetwork, m_x: int, configs: int, dead_kappa: float) -> bool:
    """Whether a parent set whose count table has ``m_x`` values and
    ``configs`` parent configurations has seen enough data for a kill
    decision to be stable.

    True once the absorbed sample mass reaches dead_kappa * m_x * |v(parents)|,
    read from the table's shape alone, so a re-aim and an expansion (for a
    child not yet built) apply the same rule.  The mass is the log's length,
    which equals ``counts.total`` (see ``lattice``) without summing the cells.
    """
    return net.n_total >= dead_kappa * m_x * configs


def family_log_ml(
    kind: str, counts: CountTable, alpha: float, schema: DomainSchema, x: int, parents: tuple
) -> float:
    """Log marginal likelihood under model ``kind`` of x's count table given
    ``parents`` and the lattice's ``alpha``: the table model's exactly, a
    restricted model's by one fit of a family checked boolean (``localmodels``)."""
    if kind == "table":
        return log_marginal_likelihood(counts.cells, concentration(counts, alpha))
    from . import localmodels  # deferred: a table session never loads the fits

    return localmodels.score_node_with_model(
        kind, localmodels.boolean_node_data(schema, x, parents, counts)
    )


def _node_score(net: CombinedNetwork, lattice: ParentLattice, node: LatticeNode) -> float:
    """The score everything ranks by: log prior plus the active model's
    ``family_log_ml`` of the node's counts, cached in ``node.scores``."""
    kind, n = net.scoring_model, net.n_total
    cached = node.scores.get(kind)
    if cached is not None and cached[0] == n:
        return node.log_prior + cached[1]
    log_ml = family_log_ml(kind, node.counts, lattice.alpha, net.schema, lattice.x, node.parents)
    node.scores[kind] = (n, log_ml)
    return node.log_prior + log_ml


def _cached_best(net: CombinedNetwork, lattice: ParentLattice) -> float:
    """The best score of the lattice's alive nodes from the cached scores,
    computing nothing: a score may lag the log, and a node never scored
    under the model is -inf.  Right after ``_re_aim`` every stored node
    is scored on the whole log, and the best one is alive (its score clears
    ``log c_alive + best``), so it is then the exact best."""
    kind, alive = net.scoring_model, NodeStatus.ALIVE
    scores = [
        n.log_prior + n.scores[kind][1]
        for n in lattice.nodes.values()
        if n.status is alive and kind in n.scores
    ]
    return max(scores, default=NEG_INF)


def _re_aim(net: CombinedNetwork, lattice: ParentLattice, params: SearchParams) -> None:
    """Recompute every stored node's status and expansion state against the
    best score over them under the active model, or kill it.

    A node is alive exactly when it clears ``c_alive``, and a node not yet
    expanded is open exactly when it clears ``d_open`` (both boundaries
    inclusive), so every open node is one the search will expand; an
    expanded node stays expanded.  Re-aiming twice changes nothing.  The
    lattice's ``aim`` remembers the stamp of what the re-aim read and left
    (``_aim_stamp``), taken after the kills.
    """
    nodes = list(lattice.nodes.values())
    scores = [_node_score(net, lattice, node) for node in nodes]
    best = max(scores)
    log_c, log_d, log_e = (math.log(t) for t in (params.c_alive, params.d_open, params.e_dead))
    for node, score in zip(nodes, scores):
        if score < log_e + best and dead_condition(
            net, node.counts.m_x, math.prod(node.counts.arities), params.dead_kappa
        ):
            kill(lattice, node.key)
            continue
        node.status = NodeStatus.ALIVE if score >= log_c + best else NodeStatus.ASLEEP
        if node.expansion is not ExpansionFlag.EXPANDED:  # an expanded node never reopens
            node.expansion = ExpansionFlag.OPEN if score >= log_d + best else ExpansionFlag.CLOSED
    lattice.aim = _aim_stamp(net, lattice, params)


def _aim_stamp(net: CombinedNetwork, lattice: ParentLattice, params: SearchParams) -> tuple:
    """What a re-aim reads: the log's length, the active model, the
    thresholds, and how many nodes are stored and dead.  An insert grows
    ``nodes`` and a kill moves a key from ``nodes`` to ``dead``, which
    never shrinks, so every insert or kill changes the last pair.  While
    a lattice's ``aim`` equals it, re-aiming again would change nothing."""
    return (
        net.n_total,
        net.scoring_model,
        len(lattice.nodes),
        len(lattice.dead),
        params.c_alive,
        params.d_open,
        params.e_dead,
        params.dead_kappa,
    )


def rethreshold(net: CombinedNetwork, params: SearchParams) -> None:
    """Re-aim every lattice's statuses at its best score, whether or not its
    stamp matches."""
    for lattice in net.lattices:
        _re_aim(net, lattice, params)


def _refine_lattice(
    net: CombinedNetwork,
    lattice: ParentLattice,
    params: SearchParams,
    budget_left: int | None,
    report: SearchReport,
) -> int | None:
    """Re-aim the lattice and expand its best open node until none is open;
    returns the remaining budget."""
    is_open = ExpansionFlag.OPEN
    while True:
        if lattice.aim != _aim_stamp(net, lattice, params):
            _re_aim(net, lattice, params)
        open_nodes = [n for n in lattice.nodes.values() if n.expansion is is_open]
        if not open_nodes:
            return budget_left
        if budget_left is not None and budget_left <= 0:
            report.exhausted = False
            return 0
        node = min(open_nodes, key=lambda n: (-_node_score(net, lattice, n), n.key))
        report.expansions += 1
        if budget_left is not None:
            budget_left -= 1
        report.nodes_created += _expand(net, lattice, node, params)


def _expand(
    net: CombinedNetwork, lattice: ParentLattice, node: LatticeNode, params: SearchParams
) -> int:
    """Expand a stored node: score every child neither stored nor dead at
    birth, send those the next re-aim would kill to ``dead``, store the
    others scored, then mark the node expanded; returns how many children.

    The table model scores all children with one ``log_marginal_likelihoods``
    call from their count rows and lays out only the survivors; a
    restricted fit reads a child's codes, so there every child is laid out
    first.  ``best`` is taken over the stored sets and the children, so the
    next re-aim finds the same best and kills no survivor.  If a score
    raises, nothing is stored and the node stays unexpanded (rule 4).
    """
    keys = [k for k in children_of(lattice, node) if k not in lattice.dead and k not in lattice.nodes]
    if keys:
        kind, m_x, alpha = net.scoring_model, lattice.arities[lattice.x], lattice.alpha
        added = [lattice.candidates[(key ^ node.key).bit_length() - 1] for key in keys]
        values = [lattice.arities[y] for y in added]  # the arity of each added parent
        counts = _count_children(net, lattice, node, added)
        edges = [0, *itertools.accumulate(len(node.counts.codes) * v for v in values)]
        configs = math.prod(node.counts.arities)
        tables = None  # under the table model only the survivors are laid out
        if kind == "table":
            filled = counts.any(1)
            flags = filled.tolist()
            log_mls = log_marginal_likelihoods(
                counts[filled],
                [sum(flags[a:b]) for a, b in zip(edges, edges[1:])],  # each child's non-empty rows
                # kernels.concentration's integer product, so the same bits
                [alpha / (m_x * (configs * v)) for v in values],
            )
        else:
            tables = child_tables(lattice, node, added, counts, edges, range(len(keys)))
            log_mls = [
                family_log_ml(kind, tables[j], alpha, net.schema, lattice.x, child_parents(node, y))
                for j, y in enumerate(added)
            ]
        log_priors = child_log_priors(lattice, node, keys)
        scores = [p + m for p, m in zip(log_priors, log_mls)]
        stored = (_node_score(net, lattice, s) for s in lattice.nodes.values())
        dies_below = math.log(params.e_dead) + max(itertools.chain(stored, scores))
        live = []
        for j, (key, v) in enumerate(zip(keys, values)):
            if scores[j] < dies_below and dead_condition(net, m_x, configs * v, params.dead_kappa):
                lattice.dead.add(key)
            else:
                live.append(j)
        if tables is None and live:
            tables = child_tables(lattice, node, added, counts, edges, live)
        for j in live:
            lattice.nodes[keys[j]] = LatticeNode(
                keys[j], child_parents(node, added[j]), tables[j], log_priors[j],
                scores={kind: (net.n_total, log_mls[j])},
            )
    node.expansion = ExpansionFlag.EXPANDED
    return len(keys)


# cells of one block: the words an expansion's count ANDs at once, or the
# (row, bitset) bits the bit index packs at once
_BLOCK_CELLS = 1 << 16


class _BitIndex:
    """The rows of the example log as one packed bitset per (variable, value):
    row ``offsets[v] + value`` of ``words`` has bit r set when log row r
    holds ``value`` at variable v, 64 rows to a ``uint64`` word.  Rows past
    the log are clear.  ``words`` keeps spare columns, doubling when full,
    so extending the index copies what it holds only O(log n) times."""

    __slots__ = ("offsets", "variables", "values", "words", "rows")

    def __init__(self, schema: DomainSchema) -> None:
        arities = [schema.arity(v) for v in range(len(schema))]
        self.offsets = [0, *itertools.accumulate(arities)]
        self.variables = np.repeat(np.arange(len(arities)), arities)
        self.values = np.concatenate([np.arange(a) for a in arities])
        self.words = np.zeros((self.offsets[-1], 0), dtype=np.uint64)
        self.rows = 0


def _bit_index(net: CombinedNetwork) -> _BitIndex:
    """The network's bit index, first extended to the whole log.

    Only the log rows from the index's last partial word onward are
    packed: the log only grows, so the words before stay exact."""
    index = net.bit_index
    if index is None:
        index = net.bit_index = _BitIndex(net.schema)
    n = net.n_total
    if index.rows == n:
        return index
    n_words = -(-n // 64)
    if n_words > index.words.shape[1]:
        grown = np.zeros((len(index.values), max(n_words, 2 * index.words.shape[1])), np.uint64)
        grown[:, : index.words.shape[1]] = index.words
        index.words = grown
    step = 64 * max(1, _BLOCK_CELLS // (64 * len(index.values)))
    for start in range(index.rows // 64 * 64, n, step):
        block = net.example_log[start : start + step]
        bits = np.zeros((len(index.values), -(-len(block) // 64) * 64), dtype=bool)
        bits[:, : len(block)] = (block[:, index.variables] == index.values).T
        packed = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
        index.words[:, start // 64 : start // 64 + packed.shape[1]] = packed
    index.rows = n
    return index


def _count_children(
    net: CombinedNetwork, lattice: ParentLattice, node: LatticeNode, added: list[int]
) -> np.ndarray:
    """The count rows, on the whole log, of every child of a stored node
    that adds one parent ``added[j]``, at once: an int64 array of rows of
    ``m_x`` counts, child by child in ``added`` order, each child's
    ``arity * configurations`` rows by the added parent's value, then by
    the node's observed configuration.  Empty rows are kept: ``_expand``
    scores every child from this array under the table model and lays out
    (``lattice.child_tables``) only the children that survive their birth,
    so a child that dies is never laid out or built.

    The counts come from the network's bit index of the log (``_bit_index``).
    ANDing the bitsets of a configuration's parent values with those of x's
    values gives one row mask per (observed configuration, x value); the
    popcount of each mask ANDed with each value bitset of each child's
    added parent counts every child's rows at once.  That costs
    configurations x added values x n/64 words, not a code per log row and
    predecessor, and it runs over blocks of the words, so its memory does
    not grow with the log.
    """
    x, arities = lattice.x, lattice.arities
    m_x = arities[x]
    index = _bit_index(net)
    offsets = index.offsets
    base = node.counts.codes
    # the index row of each parent's value in each observed configuration
    digits = []
    for p in reversed(node.parents):
        digits.append(offsets[p] + base % arities[p])
        base = base // arities[p]
    value_rows = np.array([r for y in added for r in range(offsets[y], offsets[y + 1])])
    # counts[r, k, v]: the rows with index row r, configuration k and x = v
    counts = np.zeros((len(value_rows), len(node.counts.codes), m_x), dtype=np.int64)
    n_words = -(-net.n_total // 64)
    step = max(1, _BLOCK_CELLS // max(1, counts.size))
    for start in range(0, n_words, step):
        words = index.words[:, start : min(start + step, n_words)]
        masks = words[offsets[x] : offsets[x + 1]]  # (configuration, x value, word)
        for rows in digits:
            masks = masks & words[rows][:, None]
        both = masks.reshape(-1, words.shape[1]) & words[value_rows][:, None]
        counts += np.bitwise_count(both).sum(-1, dtype=np.int64).reshape(counts.shape)
    return counts.reshape(-1, m_x)


def refine(net: CombinedNetwork, params: SearchParams) -> SearchReport:
    """Run the beam search over every lattice, respecting the expansion budget.

    Any-time: with a finite budget the call stops mid-search and a later
    call picks up exactly where it left off.
    """
    report = SearchReport()
    if params.budget == 0:
        report.exhausted = False  # a zero budget searches nothing, not even scoring
    else:
        budget_left: int | None = params.budget
        for lattice in net.lattices:
            dead_before = len(lattice.dead)
            budget_left = _refine_lattice(net, lattice, params, budget_left, report)
            report.nodes_killed += len(lattice.dead) - dead_before
            if budget_left == 0 and not report.exhausted:
                break
    for lattice in net.lattices:  # a searched lattice's cache is fresh (_re_aim)
        report.best_scores[net.schema.name(lattice.x)] = _cached_best(net, lattice)
    return report


def best_network(net: CombinedNetwork) -> ConcreteNetwork:
    """Point estimate: each variable's top-scoring alive parent set with its
    posterior-mean CPT, from counts that hold the whole log (rule 3 of
    ``check_lattice``).  Ties break toward the smaller key."""
    parents: list[tuple[int, ...]] = []
    tables = []
    for lattice in net.lattices:
        alive = lattice.alive_nodes()
        if not alive:
            raise LatticeStateError(
                f"no alive parent set for {net.schema.name(lattice.x)!r}"
            )
        node = min(alive, key=lambda n: (-_node_score(net, lattice, n), n.key))
        parents.append(node.parents)
        tables.append(expected_theta(node.counts, concentration(node.counts, lattice.alpha)))
    return ConcreteNetwork(schema=net.schema, parents=tuple(parents), tables=tuple(tables))


def network_stats(net: CombinedNetwork) -> NetworkStats:
    stored: dict[str, int] = {}
    alive: dict[str, int] = {}
    dead: dict[str, int] = {}
    for lattice in net.lattices:
        name = net.schema.name(lattice.x)
        stored[name] = len(lattice.nodes)
        alive[name] = sum(1 for n in lattice.nodes.values() if n.status is NodeStatus.ALIVE)
        dead[name] = len(lattice.dead)
    return NetworkStats(stored=stored, alive=alive, dead=dead)
