import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnrefine import ArcPriorMatrix, CombinedNetwork, DomainSchema, PriorConfig, VariableSpec
from bnrefine.lattice import (
    ExpansionFlag,
    LatticeStateError,
    NodeStatus,
    alive_leaves,
    children_of,
    insert_node,
    kill,
    new_lattice,
)
from bnrefine.kernels import concentration
from bnrefine.oracle import alpha_for, log_structure_prior

from helpers import binary_schema, scored_best, table_log_ml


def make_lattice(n_candidates=3, entries=None, default=0.5):
    names = [f"p{i}" for i in range(n_candidates)] + ["x"]
    schema = binary_schema(names)
    priors = ArcPriorMatrix(entries=entries or {}, default_prior=default)
    return new_lattice(n_candidates, schema, priors, PriorConfig(1.0)), schema, priors


class TestNewLattice:
    def test_root_is_empty_set(self):
        lattice, _, _ = make_lattice()
        assert lattice.nodes[0].parents == ()
        assert lattice.nodes[0].status is NodeStatus.ALIVE
        assert lattice.nodes[0].expansion is ExpansionFlag.OPEN
        assert table_log_ml(lattice, lattice.nodes[0]) == 0.0

    def test_mandatory_arc_joins_the_root(self):
        lattice, _, _ = make_lattice(entries={(0, 3): 1.0})
        assert lattice.nodes[0].parents == (0,)
        assert lattice.candidates == (1, 2)
        assert math.isfinite(lattice.nodes[0].log_prior)

    def test_a_node_follows_from_its_key(self):
        lattice, schema, priors = make_lattice(entries={(0, 3): 1.0, (1, 3): 0.2})
        node = insert_node(lattice, 0b10)  # candidates (1, 2): choose 2
        assert node.parents == (0, 2)
        assert node.log_prior == log_structure_prior(3, (0, 2), priors, schema)
        want = alpha_for(3, (0, 2), PriorConfig(1.0), schema)
        assert concentration(node.counts, lattice.alpha).hex() == want.hex()
        assert node.counts.arities == (2, 2) and node.counts.total == 0
        assert node.status is NodeStatus.ASLEEP and node.expansion is ExpansionFlag.CLOSED
        assert node.scores == {}

    def test_all_forbidden_leaves_a_bare_root(self):
        lattice, _, _ = make_lattice(entries={(0, 3): 0.0, (1, 3): 0.0, (2, 3): 0.0})
        assert lattice.nodes[0].parents == ()
        assert lattice.candidates == ()
        assert children_of(lattice, lattice.nodes[0]) == []


class TestPriorTerms:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(2, 4),
                st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            ),
            max_size=7,
        ),
        st.integers(2, 4),
        st.floats(0.01, 100.0),
    )
    def test_every_key_follows_the_oracle_formulas(self, predecessors, m_x, alpha):
        # hard arcs add exactly 0.0 in the oracle's prior, so the per-candidate
        # sum in ascending order must reproduce it to the last bit
        x = len(predecessors)
        labels = "abcd"
        schema = DomainSchema(
            tuple(VariableSpec(f"p{y}", tuple(labels[:a])) for y, (a, _) in enumerate(predecessors))
            + (VariableSpec("x", tuple(labels[:m_x])),)
        )
        priors = ArcPriorMatrix(entries={(y, x): p for y, (_, p) in enumerate(predecessors)})
        config = PriorConfig(alpha)
        lattice = new_lattice(x, schema, priors, config)
        mandatory = tuple(y for y, (_, p) in enumerate(predecessors) if p == 1.0)
        candidates = tuple(y for y, (_, p) in enumerate(predecessors) if 0.0 < p < 1.0)
        for key in range(1 << len(candidates)):
            node = insert_node(lattice, key)
            chosen = tuple(c for i, c in enumerate(candidates) if key >> i & 1)
            parents = tuple(sorted(mandatory + chosen))
            assert node.parents == parents
            want = alpha_for(x, parents, config, schema)
            assert concentration(node.counts, lattice.alpha).hex() == want.hex()
            assert node.counts.arities == tuple(schema.arity(p) for p in parents)
            assert node.counts.m_x == m_x
            expected = log_structure_prior(x, parents, priors, schema)
            assert node.log_prior.hex() == expected.hex()


class TestChildren:
    def test_root_children(self):
        lattice, _, _ = make_lattice()
        assert children_of(lattice, lattice.nodes[0]) == [0b001, 0b010, 0b100]

    def test_top_has_no_children(self):
        lattice, _, _ = make_lattice()
        top = insert_node(lattice, 0b111)
        assert children_of(lattice, top) == []

    def test_middle(self):
        lattice, _, _ = make_lattice(n_candidates=2)
        node = insert_node(lattice, 0b01)
        assert children_of(lattice, node) == [0b11]

    def test_stored_and_dead_children_are_not_proposed(self):
        # only the children still to make: an expansion makes no set twice
        lattice, _, _ = make_lattice()
        insert_node(lattice, 0b001)
        insert_node(lattice, 0b010)
        kill(lattice, 0b010)
        assert children_of(lattice, lattice.nodes[0]) == [0b100]

    def test_unstored_node_rejected(self):
        lattice, _, _ = make_lattice()
        other, _, _ = make_lattice()
        with pytest.raises(LatticeStateError):
            children_of(lattice, insert_node(other, 0b001))


class TestInsert:
    def test_idempotent(self):
        lattice, _, _ = make_lattice()
        first = insert_node(lattice, 0b001)
        size = len(lattice.nodes)
        assert insert_node(lattice, 0b001) is first
        assert len(lattice.nodes) == size

    @pytest.mark.parametrize("key", [-1, 1 << 3])
    def test_a_key_naming_no_parent_set_is_refused(self, key):
        lattice, _, _ = make_lattice()  # three candidates: keys 0 to 7
        with pytest.raises(LatticeStateError, match=f"^node key {key} names no parent set$"):
            insert_node(lattice, key)
        assert set(lattice.nodes) == {0}


class TestAliveLeaves:
    def test_root_only(self):
        lattice, _, _ = make_lattice()
        assert alive_leaves(lattice) == [lattice.nodes[0]]

    def test_chain(self):
        lattice, _, _ = make_lattice()
        a = insert_node(lattice, 0b001)
        ab = insert_node(lattice, 0b011)
        a.status = ab.status = NodeStatus.ALIVE
        assert alive_leaves(lattice) == [ab]

    def test_incomparable_sets(self):
        lattice, _, _ = make_lattice()
        a = insert_node(lattice, 0b001)
        b = insert_node(lattice, 0b010)
        a.status = b.status = NodeStatus.ALIVE
        lattice.nodes[0].status = NodeStatus.ASLEEP
        assert {n.key for n in alive_leaves(lattice)} == {0b001, 0b010}

    def test_superset_counts_even_without_links(self):
        lattice, _, _ = make_lattice()
        top = insert_node(lattice, 0b111)  # no intermediate sets stored
        top.status = NodeStatus.ALIVE
        assert alive_leaves(lattice) == [top]


class TestStatus:
    def test_sleep_and_wake(self):
        lattice, _, _ = make_lattice()
        lattice.nodes[0].status = NodeStatus.ASLEEP
        assert alive_leaves(lattice) == []
        lattice.nodes[0].status = NodeStatus.ALIVE
        assert alive_leaves(lattice) == [lattice.nodes[0]]

    def test_dead_is_absorbing(self):
        lattice, _, _ = make_lattice()
        insert_node(lattice, 0b001)
        kill(lattice, 0b001)
        with pytest.raises(LatticeStateError, match="0x1 is dead"):
            insert_node(lattice, 0b001)
        assert 0b001 not in lattice.nodes and lattice.dead == {0b001}

    def test_kill_moves_the_key_from_nodes_to_dead(self):
        lattice, _, _ = make_lattice()
        insert_node(lattice, 0b001)
        insert_node(lattice, 0b010)
        kill(lattice, 0b001)
        assert set(lattice.nodes) == {0, 0b010}
        assert lattice.dead == {0b001}
        with pytest.raises(KeyError):
            kill(lattice, 0b100)  # never stored
        with pytest.raises(KeyError):
            kill(lattice, 0b001)  # already dead
        assert lattice.dead == {0b001}

    def test_best_tracks_alive_set(self):
        lattice, schema, priors = make_lattice()
        net = CombinedNetwork(schema, priors, PriorConfig(1.0), [lattice])
        node = insert_node(lattice, 0b001)
        node.scores["table"] = (net.n_total, 5.0)  # force it above the root
        node.status = NodeStatus.ALIVE
        root = lattice.nodes[0]
        full_scan = max(node.log_prior + 5.0, root.log_prior + table_log_ml(lattice, root))
        assert scored_best(net, lattice) == full_scan == node.log_prior + 5.0
        node.status = NodeStatus.ASLEEP
        assert scored_best(net, lattice) == root.log_prior + table_log_ml(lattice, root)
