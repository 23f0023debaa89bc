"""Per-variable lattice of candidate parent sets.

Each stored node is one candidate parent set for the variable, keyed by a
bitset over the variable's *uncertain* predecessors (mandatory parents are
implicit in every node and excluded from the key, so every stored node has
a finite structure prior).  A node also carries its sufficient statistics
(a ``CountTable`` over its parents' configuration codes), its log marginal
likelihood per scoring model (a function of the counts, cached), a
lifecycle status and an expansion state.  Subsets and supersets are found
from the keys themselves; no links between nodes are stored.

A parent set is its key.  The lattice keeps what of the spec a key needs,
never saved: per candidate, ``(log p, log1p(-p))`` of its arc prior p;
the arities of the variable and its predecessors; and ``alpha``, which
every score splits over a node's count table (``kernels.concentration``).
``insert_node``, the only place a node is built, derives in one pass over
the candidates the node's parents (mandatory plus chosen, ascending), its
count shape and its log prior: the first term of each chosen candidate and
the second of each other, summed in ascending order.
``oracle.log_structure_prior`` sums over every predecessor and adds only
exact zeros besides, so the two agree bit for bit.  ``insert_node``
refuses a key naming no parent set or a set past ``MAX_CELLS`` count
cells; ``children_of`` proposes only children still to make, neither
stored, dead nor past ``MAX_CELLS``.  An expansion (``engine._expand``)
scores each before storing survivors: its log prior as the same sum
(``child_log_priors``), its counts laid out from its rows (``child_tables``).

In memory only, never saved or compared, the lattice also remembers its
last arc posteriors with the stamp of what they depend on (``arc_memo``,
kept by ``query``: the key of its one alive set alone, or else the model,
the log's length and every alive key) and the stamp of its last re-aim
with the best score that re-aim found (``aim``, kept by ``engine``).

Lifecycle:

- alive:  cleared ``c_alive`` at the last re-aim; included in posteriors.
- asleep: below ``c_alive`` at the last re-aim; wakes if its score rises.
- dead:   pruned for good by ``kill``, which keeps only its key (``dead``);
          ``insert_node`` refuses it, so it is never stored again.

Independently of status, a stored node's expansion state is one of:

- open:     cleared ``d_open`` at the last re-aim: the search will expand it;
- closed:   below ``d_open`` at the last re-aim; reopens if its score rises;
- expanded: its children have been generated; it never reopens.

Between operations a lattice keeps four rules, stated by ``check_lattice`` alone:

1. a set is stored, and a stored set is alive;
2. every stored and dead key names a parent set, and none is both;
3. every stored set counts exactly ``n_total`` rows: those of the whole log
   (``observe_batch`` counts each batch into every stored set);
4. the root (key 0) is stored or dead, and an expanded set has no child
   left to make (``children_of`` returns none).
"""

from __future__ import annotations

import bisect
import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .domain import ArcPriorMatrix, ConfigurationError, CountTable, DomainSchema, PriorConfig

# the most count cells a stored set may have: no int64 code indexes more
MAX_CELLS = 1 << 63


class LatticeStateError(RuntimeError):
    """An operation violates the node lifecycle, or a lattice a rule (``check_lattice``)."""


class NodeStatus(enum.Enum):
    ALIVE = "alive"
    ASLEEP = "asleep"


class ExpansionFlag(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"
    EXPANDED = "expanded"


@dataclass
class LatticeNode:
    key: int                      # bitset over the lattice's candidate parents
    parents: tuple[int, ...]      # full parent set: mandatory + chosen, sorted
    counts: CountTable
    log_prior: float
    status: NodeStatus = NodeStatus.ASLEEP
    expansion: ExpansionFlag = ExpansionFlag.CLOSED
    # a cache: model -> (the log's length when scored, log marginal likelihood of the counts)
    scores: dict[str, tuple[int, float]] = field(default_factory=dict, compare=False)


@dataclass
class ParentLattice:
    x: int
    candidates: tuple[int, ...]   # uncertain predecessors, ascending position
    mandatory: tuple[int, ...]    # prior-1 predecessors, ascending position
    # (log p, log1p(-p)) of each candidate's arc prior p, by candidate
    prior_terms: tuple[tuple[float, float], ...]
    arities: tuple[int, ...]      # arity of each variable at positions 0..x
    alpha: float                  # the spec's Dirichlet concentration
    nodes: dict[int, LatticeNode] = field(default_factory=dict)  # alive and asleep
    dead: set[int] = field(default_factory=set)  # keys of the pruned sets
    # (stamp, arc posteriors keyed (y, x)) of the last query, kept by query.py only
    arc_memo: tuple | None = field(default=None, compare=False, repr=False)
    # (stamp, best score) of the last re-aim, kept by engine.py only
    aim: tuple = field(default=(None, None), compare=False, repr=False)

    def alive_nodes(self) -> list[LatticeNode]:
        return [n for n in self.nodes.values() if n.status is NodeStatus.ALIVE]


def new_lattice(
    x: int, schema: DomainSchema, priors: ArcPriorMatrix, config: PriorConfig
) -> ParentLattice:
    """Fresh lattice holding only its root: the mandatory parents, alive and open.

    The root carries no data yet (log marginal likelihood 0) and its log
    prior already accounts for every uncertain predecessor being excluded.
    A root past ``MAX_CELLS`` count cells is a ``ConfigurationError``.
    """
    candidates = priors.candidate_parents(x, schema)
    lattice = ParentLattice(
        x=x,
        candidates=candidates,
        mandatory=priors.mandatory_parents(x, schema),
        prior_terms=tuple(
            (math.log(p), math.log1p(-p)) for p in (priors.prior(y, x) for y in candidates)
        ),
        arities=tuple(schema.arity(y) for y in range(x + 1)),
        alpha=config.alpha,
    )
    try:
        root = insert_node(lattice, 0)
    except LatticeStateError as err:  # "<cells> count cells for parent set 0x0, past ..."
        where = f"variable {schema.name(x)!r} with its {len(lattice.mandatory)} mandatory parents"
        raise ConfigurationError(f"{where} has {err}") from None
    root.status = NodeStatus.ALIVE
    root.expansion = ExpansionFlag.OPEN
    return lattice


def children_of(lattice: ParentLattice, node: LatticeNode) -> list[int]:
    """Keys of the one-parent extensions of a stored node still to make, by
    ascending position: neither stored nor dead, and with at most
    ``MAX_CELLS`` count cells, which ``insert_node`` would refuse."""
    if lattice.nodes.get(node.key) is not node:
        raise LatticeStateError("node is not stored in this lattice")
    key, arities = node.key, lattice.arities
    room = MAX_CELLS // (math.prod(node.counts.arities) * arities[lattice.x])  # widest addition
    return [
        child
        for i, y in enumerate(lattice.candidates)
        if not key >> i & 1 and arities[y] <= room
        and (child := key | 1 << i) not in lattice.nodes and child not in lattice.dead
    ]


def insert_node(lattice: ParentLattice, key: int) -> LatticeNode:
    """Store parent set ``key``, asleep, closed and with no examples absorbed;
    idempotent on duplicates.

    Its parents, log prior and empty counts follow from the key and what
    the lattice keeps (see above).  The caller counts it on the whole log
    (``engine.sync_node`` recounts from empty) before the next operation,
    as rule 3 asks.  Refused: a key outside ``[0, 2**len(candidates))``; a
    dead key, as dead is absorbing; a set past ``MAX_CELLS`` count cells.
    """
    if not 0 <= key < 1 << len(lattice.candidates):
        raise LatticeStateError(f"node key {key} names no parent set")
    if key in lattice.dead:
        raise LatticeStateError(f"parent set {key:#x} is dead; dead sets are never revived")
    existing = lattice.nodes.get(key)
    if existing is not None:
        return existing
    parents = list(lattice.mandatory)
    log_prior = 0.0
    for i, (y, (log_in, log_out)) in enumerate(zip(lattice.candidates, lattice.prior_terms)):
        if key >> i & 1:
            parents.append(y)
            log_prior += log_in
        else:
            log_prior += log_out
    parents.sort()
    arities = lattice.arities
    shape = tuple(arities[p] for p in parents)
    cells = math.prod(shape) * arities[lattice.x]
    if cells > MAX_CELLS:
        raise LatticeStateError(
            f"{cells} count cells for parent set {key:#x}, past the 2**63 an int64 code indexes"
        )
    node = lattice.nodes[key] = LatticeNode(
        key, tuple(parents), CountTable(arities[lattice.x], shape), log_prior
    )
    return node


def child_log_priors(lattice: ParentLattice, node: LatticeNode, keys: list[int]) -> list[float]:
    """The log prior of each one-parent extension ``keys[j]`` of a stored
    node, bit for bit as ``insert_node`` sums it: the kept terms in
    ascending order, which share the node's sum up to the added candidate."""
    terms = [
        log_in if node.key >> i & 1 else log_out
        for i, (log_in, log_out) in enumerate(lattice.prior_terms)
    ]
    partial = [0.0]  # partial[i]: insert_node's running sum after i terms
    for term in terms:
        partial.append(partial[-1] + term)
    log_priors = []
    for key in keys:
        i = (key ^ node.key).bit_length() - 1
        log_prior = partial[i] + lattice.prior_terms[i][0]
        for term in terms[i + 1 :]:
            log_prior += term
        log_priors.append(log_prior)
    return log_priors


def child_tables(
    lattice: ParentLattice,
    node: LatticeNode,
    added: list[int],
    counts: np.ndarray,
    flags: list[bool],
    edges: list[int],
    chosen: Iterable[int],
) -> dict[int, CountTable]:
    """The count tables of the one-parent extensions ``chosen`` of a stored
    node, by index j: extension j adds parent ``added[j]``, and its count
    rows are ``counts[edges[j] : edges[j + 1]]``, one per (added value v,
    node's configuration k) at row v * configurations + k, empty rows
    included (``engine._count_children``), ``flags[r]`` if row r holds a
    count.  Each is laid out as ``count_cells`` lays a table out: a child's
    code is the node's code split at the added parent's place value, with
    the parent's value between, so ascending codes need no sort."""
    base, shape = node.counts.codes.tolist(), node.counts.arities
    n, codes, rows, parts = len(base), [], [], []
    for j in chosen:
        at = bisect.bisect(node.parents, added[j])
        arity, place = lattice.arities[added[j]], math.prod(shape[at:])
        k = 0
        while k < n:  # the configurations sharing their code above the added parent
            high, stop = base[k] // place, k + 1
            while stop < n and base[stop] // place == high:
                stop += 1
            for v in range(arity):
                first = edges[j] + v * n  # the row of the added value v in configuration 0
                for i in range(k, stop):
                    if flags[first + i]:
                        codes.append((high * arity + v) * place + base[i] % place)
                        rows.append(first + i)
            k = stop
        parts.append((j, shape[:at] + (arity,) + shape[at:], len(codes)))
    codes, cells, start, tables = np.array(codes, dtype=np.int64), counts[rows], 0, {}
    for j, child_shape, end in parts:
        tables[j] = CountTable.from_rows(child_shape, codes[start:end], cells[start:end])
        start = end
    return tables


def alive_leaves(lattice: ParentLattice) -> list[LatticeNode]:
    """Alive nodes with no alive strict superset stored anywhere in the lattice.

    Checked against all stored alive nodes, not only neighbours one element
    away: a superset can be stored before the intermediate sets.
    """
    alive = lattice.alive_nodes()
    keys = [n.key for n in alive]
    return [
        n
        for n in alive
        if not any(k != n.key and k & n.key == n.key for k in keys)
    ]


def kill(lattice: ParentLattice, key: int) -> None:
    """Prune a stored parent set for good: drop its node, keep its key in ``dead``."""
    del lattice.nodes[key]
    lattice.dead.add(key)


def check_lattice(lattice: ParentLattice, n_total: int) -> None:
    """Raise ``LatticeStateError`` naming the first rule (see above) the lattice
    breaks on a log of ``n_total`` rows, and a key that breaks it."""
    nodes, dead = lattice.nodes, lattice.dead
    if not nodes or not lattice.alive_nodes():
        raise LatticeStateError("no alive node" if nodes else "no stored node")
    beyond = sorted(k for k in nodes.keys() | dead if not 0 <= k < 1 << len(lattice.candidates))
    if beyond:
        raise LatticeStateError(f"node key {beyond[0]} names no parent set")
    if nodes.keys() & dead:
        raise LatticeStateError(f"keys {sorted(nodes.keys() & dead)} are stored and dead")
    for key, node in nodes.items():
        total = node.counts.total
        if total != n_total:
            raise LatticeStateError(f"node {key} counts {total} rows, {n_total} logged")
        if node.expansion is ExpansionFlag.EXPANDED:
            if lost := children_of(lattice, node):
                raise LatticeStateError(
                    f"expanded node {key} has children {lost} neither stored nor dead"
                )
    if 0 not in nodes and 0 not in dead:
        raise LatticeStateError("the root, node key 0, is neither stored nor dead")
