"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from bnrefine import (
    ArcPriorMatrix,
    CombinedNetwork,
    ConcreteNetwork,
    DomainSchema,
    ExpansionFlag,
    PriorConfig,
    VariableSpec,
    init,
)
from bnrefine.sampling import forward_sample


def binary_schema(names: str | list[str]) -> DomainSchema:
    return DomainSchema(tuple(VariableSpec(n, ("f", "t")) for n in names))


def fresh_net(names: str = "abc", default_prior: float = 0.5, alpha: float = 1.0) -> CombinedNetwork:
    return init(binary_schema(names), ArcPriorMatrix(default_prior=default_prior), PriorConfig(alpha))


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
                node.expanded,
                node.synced_through,
                node.log_prior,
                node.log_ml,
                {cfg: tuple(row) for cfg, row in node.counts.rows.items()},
            )
    return state


class DeadNodeMonitor:
    """Asserts dead is absorbing: a lattice's dead keys only grow, and no dead
    key is ever stored again."""

    def __init__(self):
        self.dead: dict[int, frozenset[int]] = {}
        self.violations: list[str] = []

    def check(self, net: CombinedNetwork) -> None:
        for lattice in net.lattices:
            dead = frozenset(lattice.dead)
            where = f"lattice {lattice.x}: dead keys"
            lost = self.dead.get(lattice.x, frozenset()) - dead
            if lost:
                self.violations.append(f"{where} {sorted(lost)} were removed")
            stored = dead & lattice.nodes.keys()
            if stored:
                self.violations.append(f"{where} {sorted(stored)} are stored")
            self.dead[lattice.x] = dead
