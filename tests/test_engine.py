import copy
import itertools
import json
import math
import traceback
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnrefine import (
    ArcPriorMatrix,
    CombinedNetwork,
    ConfigurationError,
    DomainSchema,
    ExampleError,
    ExpansionFlag,
    NodeStatus,
    PriorConfig,
    SearchParams,
    VariableSpec,
    all_arc_posteriors,
    best_network,
    init,
    network_stats,
    observe,
    observe_batch,
    refine,
    rethreshold,
    sample_smoothed,
    sync_node,
)
from bnrefine import engine
from bnrefine.engine import SCORING_MODELS, dead_condition
from bnrefine.domain import CountTable, config_codes
from bnrefine.fileio import serialize_session, session_from_document, session_to_document
from bnrefine.kernels import concentration
from bnrefine.lattice import LatticeStateError, check_lattice, insert_node, kill
from bnrefine.oracle import alpha_for, exhaustive_posterior
from bnrefine.sampling import forward_sample

from helpers import (
    binary_schema,
    chain_v_truth,
    dead_threshold_reference,
    expand_storing_every_child,
    five_var_truth,
    fresh_net,
    map_set,
    mixed_arity_network,
    node_reference_counts,
    node_state,
    reference_log_ml,
    sampled_net,
    scored_best,
    table_log_ml,
    table_rows,
)

PERMISSIVE = SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12)
# an expansion under these kills no child at birth: no score spread on the
# small logs below reaches 690 nats (log 1e-300)
NOTHING_DIES = SearchParams(c_alive=1e-300, d_open=1e-300, e_dead=1e-300)


def recount(net, lattice, node) -> CountTable:
    """The node's table recounted from the whole log alone: cell codes by
    ``config_codes``, rows by ``np.unique``."""
    rows = net.example_log
    m_x = lattice.arities[lattice.x]
    cells = config_codes(rows, node.parents, net.schema) * m_x + rows[:, lattice.x]
    found, counts = np.unique(cells, return_counts=True)
    codes = np.unique(found // m_x)
    table = np.zeros((len(codes), m_x), dtype=np.int64)
    table[np.searchsorted(codes, found // m_x), found % m_x] = counts
    return CountTable.from_rows(node.counts.arities, codes, table)


def mandatory_root(k: int):
    """The spec of k + 1 boolean variables, the last with every other as a
    mandatory parent and no uncertain one: its root has 2**(k + 1) cells."""
    priors = ArcPriorMatrix({(y, k): 1.0 for y in range(k)}, default_prior=0.0)
    return binary_schema([f"v{i}" for i in range(k + 1)]), priors, PriorConfig()


# SearchParams fields no search may run with, and the error each one raises
INVALID_PARAMS = [
    ({"c_alive": 1.0}, "thresholds must satisfy"),
    ({"c_alive": 0.01, "d_open": 0.1}, "thresholds must satisfy"),
    ({"d_open": 0.0001, "e_dead": 0.001}, "thresholds must satisfy"),
    ({"e_dead": 0.0}, "thresholds must satisfy"),
    ({"c_alive": math.nan}, "thresholds must satisfy"),
    ({"e_dead": math.nan}, "thresholds must satisfy"),
    ({"dead_kappa": -1.0}, "dead_kappa must be nonnegative, got -1.0"),
    ({"dead_kappa": math.nan}, "dead_kappa must be nonnegative, got nan"),
    ({"budget": -1}, "budget must be nonnegative, got -1"),
    ({"budget": 1.5}, "budget must be an integer or None, got 1.5"),
    ({"budget": math.nan}, "budget must be an integer or None, got nan"),
    ({"budget": True}, "budget must be an integer or None, got True"),
]


def recompute_node(net, lattice, node):
    """Batch oracle: score the node's parent set from scratch over the log."""
    counts = node_reference_counts(net, lattice.x, node)
    alpha_x = alpha_for(lattice.x, node.parents, net.config, net.schema)
    return counts, reference_log_ml(counts, alpha_x, net.schema.arity(lattice.x))


class TestInit:
    def test_root_only_lattices(self):
        net = fresh_net("abc")
        assert len(net.lattices) == 3
        for lattice in net.lattices:
            assert set(lattice.nodes) == {0}
            assert table_log_ml(lattice, lattice.nodes[0]) == 0.0

    def test_first_variable_never_gains_parents(self):
        net = fresh_net("abc")
        observe_batch(net, [(0, 1, 1), (1, 0, 0)] * 10)
        refine(net, PERMISSIVE)
        assert set(net.lattices[0].nodes) == {0}
        assert net.lattices[0].candidates == ()

    def test_forbidden_arc_never_stored(self):
        schema = binary_schema("abc")
        priors = ArcPriorMatrix(entries={(0, 2): 0.0})
        net = init(schema, priors, PriorConfig())
        observe_batch(net, [(0, 0, 0), (1, 1, 1)] * 20)
        refine(net, PERMISSIVE)
        for node in net.lattices[2].nodes.values():
            assert 0 not in node.parents

    def test_prior_entry_against_ordering_rejected(self):
        with pytest.raises(ConfigurationError):
            ArcPriorMatrix(entries={(2, 0): 0.5})

    @pytest.mark.parametrize(
        "entries, named",
        [
            ({(-1, 2): 0.0}, r"\(-1, 2\)"),  # used to save as an arc c -> c
            ({(1, 7): 1.0}, r"\(1, 7\)"),  # used to fail to save with an IndexError
            ({(0, 4): 0.5, (-2, 1): 0.5, (0, 1): 0.5}, r"\(-2, 1\)"),
        ],
    )
    def test_prior_entry_outside_the_schema_rejected(self, entries, named):
        with pytest.raises(ConfigurationError, match=rf"^arc prior for {named} names a position"):
            init(binary_schema("abc"), ArcPriorMatrix(entries=entries), PriorConfig())

    def test_a_root_no_int64_code_indexes_is_rejected(self):
        # k mandatory boolean parents give the root 2**(k + 1) cells; at 63
        # the first batch used to raise a bare OverflowError from counting
        # after the log had grown, leaving the root's counts behind it
        with pytest.raises(
            ConfigurationError,
            match=rf"^variable 'v63' with its 63 mandatory parents has {2**64} count cells",
        ):
            init(*mandatory_root(63))
        net = init(*mandatory_root(62))  # 2**63 cells: the most an int64 code indexes
        observe_batch(net, np.random.default_rng(1).integers(0, 2, (5, 63)))
        lattice = net.lattices[62]
        assert lattice.nodes[0].counts == recount(net, lattice, lattice.nodes[0])


class TestObserve:
    def test_first_observation_moves_root_by_log_half(self):
        net = fresh_net("a")
        observe(net, (1,))
        lattice = net.lattices[0]
        assert table_log_ml(lattice, lattice.nodes[0]) == pytest.approx(math.log(0.5))

    def test_rejection_leaves_state_untouched(self):
        net = fresh_net("ab")
        observe(net, (0, 1))
        before = node_state(net)
        for bad in [(0,), (0, 2), (0, 1, 1), (0, "t")]:
            with pytest.raises(ExampleError):
                observe(net, bad)
        assert node_state(net) == before
        assert net.n_total == 1

    def test_streaming_matches_batch_recompute(self):
        net, _ = sampled_net(five_var_truth(), 60, seed=3)
        refine(net, SearchParams())
        observe_batch(net, forward_sample(five_var_truth(), 40, seed=4))
        for lattice in net.lattices:
            for node in lattice.nodes.values():
                if node.status is NodeStatus.ALIVE:
                    counts, log_ml = recompute_node(net, lattice, node)
                    assert counts == table_rows(node.counts)
                    assert table_log_ml(lattice, node) == pytest.approx(log_ml, abs=1e-9)

    def test_asleep_node_syncs_to_batch_value(self):
        # the batch is counted into the asleep node as it is observed: a
        # sync_node after it has nothing left to count
        net, _ = sampled_net(five_var_truth(), 50, seed=9)
        refine(net, SearchParams())
        lattice = net.lattices[3]
        asleep = [n for n in lattice.nodes.values() if n.status is NodeStatus.ASLEEP]
        assert asleep, "scenario needs at least one asleep node"
        observe_batch(net, forward_sample(five_var_truth(), 100, seed=10))
        node = asleep[0]
        counts, log_ml = recompute_node(net, lattice, node)
        assert counts == table_rows(node.counts)
        assert table_log_ml(lattice, node) == pytest.approx(log_ml, abs=1e-9)
        before = node_state(net)
        sync_node(net, lattice, node)
        assert node_state(net) == before

    @pytest.mark.parametrize("model", SCORING_MODELS)
    def test_every_stored_set_counts_the_whole_log_after_a_batch(self, model):
        # asleep sets too: every stored set is counted as a batch is observed
        net, _ = sampled_net(five_var_truth(), 50, seed=9)
        net.scoring_model = model
        refine(net, SearchParams())
        statuses = {n.status for lattice in net.lattices for n in lattice.nodes.values()}
        assert statuses == {NodeStatus.ALIVE, NodeStatus.ASLEEP}
        for seed in (10, 11):
            observe_batch(net, forward_sample(five_var_truth(), 40, seed=seed))
            for lattice in net.lattices:
                for node in lattice.nodes.values():
                    assert node.counts == recount(net, lattice, node), (lattice.x, node.key)
                    assert node.counts.total == net.n_total


class TestObserveBatch:
    def test_empty_batch(self):
        net = fresh_net("ab")
        before = node_state(net)
        observe_batch(net, [])
        assert node_state(net) == before

    def test_batch_equals_singles(self):
        data = forward_sample(five_var_truth(), 25, seed=1)
        one = fresh_net("abcde")
        two = fresh_net("abcde")
        observe_batch(one, data)
        for example in data:
            observe(two, example)
        assert node_state(one) == node_state(two)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=30))
    def test_any_split_is_equivalent(self, split):
        data = forward_sample(five_var_truth(), 30, seed=2)
        one = fresh_net("abcde")
        observe_batch(one, data)
        two = fresh_net("abcde")
        observe_batch(two, data[:split])
        observe_batch(two, data[split:])
        assert node_state(one) == node_state(two)

    def test_invalid_example_rejects_the_whole_batch(self):
        net = fresh_net("ab")
        observe_batch(net, [(0, 1)])
        before = node_state(net)
        with pytest.raises(ExampleError):
            observe_batch(net, [(1, 1), (0, 0), (0, 2), (1, 0)])
        assert node_state(net) == before
        assert net.n_total == 1

    def test_log_uses_the_narrowest_unsigned_type(self):
        assert fresh_net("ab").example_log.dtype == np.uint8
        wide = DomainSchema(
            (VariableSpec("a", ("f", "t")), VariableSpec("w", tuple(f"v{i}" for i in range(300))))
        )
        net = init(wide, ArcPriorMatrix(), PriorConfig())
        observe_batch(net, [(1, 299), (0, 7)])
        assert net.example_log.dtype == np.uint16
        assert net.example_log.tolist() == [[1, 299], [0, 7]]


    def test_a_root_past_the_float_product_counts_exactly(self):
        # 54 mandatory boolean parents give the root 2**55 cells: past the
        # 2**53 a float64 product codes exactly, so its rows are coded by
        # the int64 product, in a batch, on loading and by sync_node
        k = 54
        net = init(*mandatory_root(k))
        rows = np.random.default_rng(2).integers(0, 2, (200, k + 1))
        observe_batch(net, rows[:120])
        observe_batch(net, rows[120:])
        lattice = net.lattices[k]
        node = lattice.nodes[0]
        assert node.counts == recount(net, lattice, node)
        loaded = session_from_document(session_to_document(net))
        assert loaded.lattices[k].nodes[0].counts == node.counts
        sync_node(net, lattice, node)
        assert node.counts == recount(net, lattice, node)

    @pytest.mark.parametrize("model", SCORING_MODELS)
    def test_no_table_keeps_the_arrays_of_an_earlier_batch(self, model):
        # the tables of one dense count hold views of its arrays; every
        # stored table is recounted into fresh arrays at the next batch, so
        # no table keeps a buffer (a view's base) of the batch before alive,
        # through expansions and kills between batches
        def buffers(net):
            tables = [n.counts for lat in net.lattices for n in lat.nodes.values()]
            return [a if a.base is None else a.base for t in tables for a in (t.codes, t.cells)]

        net = init(five_var_truth().schema, ArcPriorMatrix(), PriorConfig())
        net.scoring_model = model
        data = forward_sample(five_var_truth(), 400, seed=3)
        held, expansions, kills, shared = [], 0, 0, 0
        for at in range(0, len(data), 50):
            observe_batch(net, data[at : at + 50])
            stored = buffers(net)
            shared += len(stored) - len({id(b) for b in stored})
            assert not any(np.shares_memory(a, b) for a in stored for b in held)
            report = refine(net, SearchParams())
            expansions += report.expansions
            kills += report.nodes_killed
            held = stored + buffers(net)
        assert expansions and kills and shared


class TestSync:
    def test_noop_when_current(self):
        net = fresh_net("ab")
        observe_batch(net, [(0, 1), (1, 0)])
        lattice = net.lattices[1]
        before = node_state(net)
        sync_node(net, lattice, lattice.nodes[0])
        assert node_state(net) == before

    def test_fresh_node_absorbs_whole_log(self):
        net, data = sampled_net(five_var_truth(), 80, seed=5)
        refine(net, PERMISSIVE)
        lattice = net.lattices[4]
        node = max(lattice.nodes.values(), key=lambda n: n.key)
        counts, log_ml = recompute_node(net, lattice, node)
        assert node.counts.total == len(data)
        assert counts == table_rows(node.counts)
        assert table_log_ml(lattice, node) == pytest.approx(log_ml, abs=1e-9)

    def test_asleep_twin_catches_up(self):
        net, _ = sampled_net(five_var_truth(), 20, seed=6)
        refine(net, PERMISSIVE)
        lattice = net.lattices[2]
        twin_key = 0b01
        node = lattice.nodes[twin_key]
        node.status = NodeStatus.ASLEEP  # asleep sets are counted like alive ones
        observe_batch(net, forward_sample(five_var_truth(), 100, seed=7))
        sync_node(net, lattice, node)
        always_alive = net.lattices[2].nodes[0]
        counts, log_ml = recompute_node(net, lattice, node)
        assert table_log_ml(lattice, node) == pytest.approx(log_ml, abs=1e-9)
        assert node.counts.total == always_alive.counts.total == net.n_total

    def test_multivalued_counts_match_a_recount(self):
        schema = DomainSchema(
            (
                VariableSpec("a", ("x", "y", "z")),
                VariableSpec("b", ("f", "t")),
                VariableSpec("c", ("p", "q", "r", "s")),
            )
        )
        rng = np.random.default_rng(8)
        data = [tuple(int(rng.integers(schema.arity(x))) for x in range(3)) for _ in range(90)]
        net = init(schema, ArcPriorMatrix(), PriorConfig())
        observe_batch(net, data[:40])
        refine(net, PERMISSIVE)
        observe_batch(net, data[40:])
        refine(net, PERMISSIVE)
        assert set(net.lattices[2].nodes) == {0, 0b01, 0b10, 0b11}
        for lattice in net.lattices:
            for node in lattice.nodes.values():
                counts, log_ml = recompute_node(net, lattice, node)
                assert node.counts.total == net.n_total
                assert counts == table_rows(node.counts)
                assert table_log_ml(lattice, node) == log_ml


    def test_a_set_stored_before_a_batch_is_recounted_on_the_whole_log(self):
        # observe_batch counts a batch into a set insert_node stored before
        # it; sync_node then recounts the set from empty counts, not from
        # its total on, and drops the score cached on the wrong counts
        net = fresh_net("abc")
        observe_batch(net, [(0, 1, 0)] * 30)
        lattice = net.lattices[2]
        node = insert_node(lattice, 0b01)
        observe_batch(net, [(1, 0, 1)] * 10)
        assert node.counts.cells.tolist() == [[0, 10]]
        engine._node_score(net, lattice, node)
        sync_node(net, lattice, node)
        assert node.counts.cells.tolist() == [[30, 0], [0, 10]]
        assert node.counts == recount(net, lattice, node)
        assert node.scores == {}
        want = node.log_prior + table_log_ml(lattice, node)
        assert engine._node_score(net, lattice, node) == want

    def test_a_node_of_another_lattice_is_refused(self):
        # a set of lattice c just stored, with nothing counted yet, must not
        # absorb lattice a's values
        net = fresh_net("abc")
        observe_batch(net, [(0, 1, 0)] * 30 + [(1, 0, 0)] * 30)
        node = insert_node(net.lattices[2], 0b01)
        for lattice in (net.lattices[0], net.lattices[1]):
            with pytest.raises(LatticeStateError, match="not stored in this lattice"):
                sync_node(net, lattice, node)
        assert node.counts.total == 0
        sync_node(net, net.lattices[2], node)
        observe_batch(net, [(1, 0, 1)] * 10)
        assert table_rows(node.counts) == {(0,): [30, 0], (1,): [30, 10]}
        kill(net.lattices[2], node.key)
        with pytest.raises(LatticeStateError, match="not stored in this lattice"):
            sync_node(net, net.lattices[2], node)
        fresh = insert_node(net.lattices[1], 0b1)
        sync_node(net, net.lattices[1], fresh)
        assert table_rows(fresh.counts) == {(0,): [0, 30], (1,): [40, 0]}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(2, 4), min_size=2, max_size=4),
        st.integers(0, 4),
        st.sampled_from([1, 7, 64, 1 << 16]),
        st.data(),
    )
    def test_many_sets_counted_at_once_equal_a_recount(self, arities, wide_at, block, data):
        # every way rows are counted into stored sets (observe_batch into
        # every stored set, sync_node into a set just stored, session
        # loading per lattice) counts through one path, dense and sorting
        # tables in one call: each set must hold its own rows of the whole
        # log, counted as config_codes and np.unique count them, through
        # re-aims too.  A 300-valued variable makes the log uint16, and sets
        # with it as a parent sort.
        arities = arities[:wide_at] + [300] + arities[wide_at:]
        schema = DomainSchema(
            tuple(VariableSpec(f"v{i}", tuple(map(str, range(a)))) for i, a in enumerate(arities))
        )
        assert schema.value_dtype == np.uint16
        net = init(schema, ArcPriorMatrix(), PriorConfig())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        params = SearchParams(c_alive=1e-300, d_open=1e-300, e_dead=1e-300, dead_kappa=math.inf)

        def check(net):
            for lattice in net.lattices:
                for node in lattice.nodes.values():
                    assert node.counts == recount(net, lattice, node), (lattice.x, node.key)
                    assert node.counts.codes.dtype == node.counts.cells.dtype == np.int64

        with mock.patch.object(engine, "_BLOCK_CELLS", block):
            for step in data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=8), label="steps"):
                if step <= 1:  # a batch into every stored set
                    n = data.draw(st.sampled_from([0, 1, 63, 64, 65]), label="rows")
                    observe_batch(net, np.column_stack([rng.integers(0, a, n) for a in arities]))
                elif step == 2:  # a new set, counted on the whole log
                    lattice = net.lattices[data.draw(st.integers(0, len(arities) - 1), label="x")]
                    key = data.draw(st.integers(0, 2 ** len(lattice.candidates) - 1), label="key")
                    sync_node(net, lattice, insert_node(lattice, key))
                elif step == 3:  # a set synced again: nothing left to count
                    stored = [(lat, n) for lat in net.lattices for n in lat.nodes.values()]
                    lattice, node = data.draw(st.sampled_from(stored), label="synced set")
                    sync_node(net, lattice, node)
                else:  # a lattice re-aimed: its sets scored, nothing counted
                    lattice = net.lattices[data.draw(st.integers(0, len(arities) - 1), label="x")]
                    engine._re_aim(net, lattice, params)
                check(net)
            loaded = session_from_document(session_to_document(net))
        check(loaded)
        assert loaded.lattices == net.lattices


def set_dead_condition(net, node, dead_kappa):
    """``dead_condition`` of a stored set, read from its count table's shape."""
    return dead_condition(net, node.counts.m_x, math.prod(node.counts.arities), dead_kappa)


class TestDeadCondition:
    def test_zero_observations(self):
        net = fresh_net("ab")
        assert not set_dead_condition(net, net.lattices[1].nodes[0], 5.0)

    def test_threshold_is_kappa_times_table_size(self):
        net = fresh_net("ab")
        observe_batch(net, [(0, 1)] * 19)
        refine(net, PERMISSIVE)
        node = net.lattices[1].nodes[0b1]  # binary child, one binary parent
        assert node.counts.total == 19
        assert not set_dead_condition(net, node, 5.0)
        observe(net, (1, 0))
        assert set_dead_condition(net, node, 5.0)

    @pytest.mark.parametrize("kappa", [0.7, 1.3, 1 / 3, 2.9])
    def test_threshold_on_a_mixed_arity_set_is_the_schema_formula(self, kappa):
        schema = mixed_arity_network(0).schema  # arities 3, 2, 4, 2
        net = init(schema, ArcPriorMatrix(), PriorConfig())
        node = insert_node(net.lattices[3], 0b101)  # parents a and c: 12 configurations
        assert node.parents == (0, 2)
        threshold = dead_threshold_reference(node, schema, 3, kappa)
        for total in range(math.ceil(threshold) + 2):  # one row at a time, across it
            assert node.counts.total == net.n_total == total
            assert set_dead_condition(net, node, kappa) == (total >= threshold)
            observe(net, (0, 0, 0, 0))
        assert set_dead_condition(net, node, kappa)

    def test_kappa_zero_always_true(self):
        net = fresh_net("ab")
        assert set_dead_condition(net, net.lattices[1].nodes[0], 0.0)


class TestRefine:
    def test_zero_budget_changes_nothing(self):
        net, _ = sampled_net(five_var_truth(), 30, seed=8)
        before = node_state(net)
        report = refine(net, SearchParams(budget=0))
        assert report.expansions == 0
        assert node_state(net) == before

    def test_greedy_regime_finds_the_map_set(self):
        truth = five_var_truth()
        net, data = sampled_net(truth, 800, seed=12)
        greedy = SearchParams(c_alive=0.999, d_open=0.998, e_dead=1e-9)
        refine(net, greedy)
        for x in range(5):
            exact = exhaustive_posterior(x, data, net.priors, net.config, net.schema)
            lattice = net.lattices[x]
            best = min(
                lattice.alive_nodes(),
                key=lambda n: (-(n.log_prior + table_log_ml(lattice, n)), n.key),
            )
            assert frozenset(best.parents) == map_set(exact)

    def test_permissive_regime_matches_oracle(self):
        net, data = sampled_net(five_var_truth(), 200, seed=13)
        refine(net, PERMISSIVE)
        for x in range(5):
            exact = exhaustive_posterior(x, data, net.priors, net.config, net.schema)
            lattice = net.lattices[x]
            for node in lattice.nodes.values():
                want = exact.log_scores[frozenset(node.parents)]
                assert node.log_prior + table_log_ml(lattice, node) == pytest.approx(want, abs=1e-9)
            top = max(exact.posterior.values())
            alive = {frozenset(n.parents) for n in lattice.alive_nodes()}
            for subset, mass in exact.posterior.items():
                if mass >= 1e-3 * top:
                    assert subset in alive

    @pytest.mark.parametrize("budget", [1, 3, 7, 50])
    def test_resumable(self, budget):
        net_a, _ = sampled_net(five_var_truth(), 100, seed=14)
        net_b = copy.deepcopy(net_a)
        refine(net_a, SearchParams(budget=budget))
        refine(net_a, SearchParams())
        refine(net_b, SearchParams())
        assert serialize_session(net_a) == serialize_session(net_b)

    def test_best_monotone_under_budget_steps(self):
        net, _ = sampled_net(five_var_truth(), 150, seed=15)
        last = {x: scored_best(net, net.lattices[x]) for x in range(5)}
        for _ in range(40):
            report = refine(net, SearchParams(budget=1))
            for x in range(5):
                assert scored_best(net, net.lattices[x]) >= last[x] - 1e-12
                last[x] = scored_best(net, net.lattices[x])
            if report.exhausted:
                break

    def test_budget_bounds_expansions(self):
        net, _ = sampled_net(five_var_truth(), 100, seed=16)
        report = refine(net, SearchParams(budget=4))
        assert report.expansions <= 4

    def test_an_integer_budget_of_one_expands_one_set(self):
        # budget validation rejects floats and bools; an integer of either
        # kind still buys exactly one expansion per call
        net, _ = sampled_net(five_var_truth(), 100, seed=16)
        twin = copy.deepcopy(net)
        report = refine(net, SearchParams(budget=1))
        assert report.expansions == 1 and not report.exhausted
        assert refine(twin, SearchParams(budget=np.int64(1))) == report
        assert serialize_session(twin) == serialize_session(net)

    def test_dead_nodes_stay_dead_and_unexpanded(self):
        net, _ = sampled_net(five_var_truth(), 400, seed=17)
        report = refine(net, SearchParams())
        dead = [set(lat.dead) for lat in net.lattices]
        assert report.nodes_killed == sum(map(len, dead)) > 0
        observe_batch(net, forward_sample(five_var_truth(), 200, seed=18))
        report = refine(net, SearchParams())
        for lat, before in zip(net.lattices, dead):
            assert before <= lat.dead  # a dead set is never stored, so never expanded
            assert not lat.dead & lat.nodes.keys()
        killed = sum(len(lat.dead - before) for lat, before in zip(net.lattices, dead))
        assert report.nodes_killed == killed
        assert network_stats(net).dead == {
            net.schema.name(lat.x): len(lat.dead) for lat in net.lattices
        }

    def test_an_open_node_that_falls_below_d_open_is_closed_unexpanded(self):
        # a, b and c are independent, so b's set {a} falls behind its root as
        # rows arrive: at 16 rows it is within d_open of the best, at 160 below
        # it, where a re-aim closes it
        rows = list(itertools.product((0, 1), repeat=3))
        net = fresh_net("abc")
        params = SearchParams(d_open=0.07, e_dead=1e-9)
        observe_batch(net, rows * 2)
        report = refine(net, replace(params, budget=2))  # a's root, then b's
        b, c = net.lattices[1], net.lattices[2]
        assert report.expansions == 2 and not report.exhausted
        assert b.nodes[1].expansion is ExpansionFlag.OPEN
        assert c.nodes[0].expansion is ExpansionFlag.OPEN
        observe_batch(net, rows * 18)
        aimed = copy.deepcopy(net)
        rethreshold(aimed, params)
        lattice = aimed.lattices[1]
        node = lattice.nodes[1]
        gap = scored_best(aimed, lattice) - node.log_prior - table_log_ml(lattice, node)
        assert -gap < math.log(params.d_open)
        assert node.expansion is ExpansionFlag.CLOSED
        report = refine(net, replace(params, budget=1))
        assert b.nodes[1].expansion is ExpansionFlag.CLOSED
        assert b.nodes.keys() == {0, 1}  # no child of {a} was created
        # closing it spent no budget: c's root took the one expansion
        assert report.expansions == 1
        assert c.nodes[0].expansion is ExpansionFlag.EXPANDED

    @pytest.mark.parametrize("model", ["noisy-or", "logistic"])
    def test_a_model_switch_re_aims_every_lattice(self, model):
        # statuses aimed at the table model's best were kept after a switch, so
        # this refine differed from the twin's: arc posteriors by up to 0.58
        net, _ = sampled_net(chain_v_truth(), 400, seed=0)
        refine(net, SearchParams())
        assert refine(net, SearchParams()).expansions == 0  # the fixed point
        net.scoring_model = model
        twin = copy.deepcopy(net)
        rethreshold(twin, SearchParams())
        assert refine(net, SearchParams()) == refine(twin, SearchParams())
        assert serialize_session(net) == serialize_session(twin)


class TestExpansion:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(2, 4), st.sampled_from([0.0, 1.0, 0.2, 0.5, 0.9])),
            min_size=1,
            max_size=6,
        ),
        st.integers(2, 4),
        st.one_of(st.just(0), st.just(1), st.integers(2, 150)),
        st.sampled_from([1, 7, 64, 1 << 16]),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_children_counted_in_one_pass_equal_the_per_child_count(
        self, predecessors, m_x, n_rows, block, seed, data
    ):
        # every fresh child of an expansion is counted from the log's bit
        # index (packed and counted in blocks of ``block`` cells, one word
        # each at the least), scored at birth under the active model and,
        # as none dies here, built from the expanded set: it must equal the
        # child insert_node builds and sync_node counts, bit for bit, and
        # score (its birth score, cached, under the active model) as that
        # child does under every model its family allows, and as its count
        # table alone scores with its log prior
        x = len(predecessors)
        labels = "abcd"
        schema = DomainSchema(
            tuple(VariableSpec(f"p{y}", tuple(labels[:a])) for y, (a, _) in enumerate(predecessors))
            + (VariableSpec("x", tuple(labels[:m_x])),)
        )
        priors = ArcPriorMatrix(entries={(y, x): p for y, (_, p) in enumerate(predecessors)})
        config = PriorConfig(data.draw(st.floats(0.01, 100.0), label="alpha"))
        rng = np.random.default_rng(seed)
        arities = [a for a, _ in predecessors] + [m_x]
        rows = np.column_stack([rng.integers(0, a, size=n_rows) for a in arities])
        net, reference = init(schema, priors, config), init(schema, priors, config)
        observe_batch(net, rows)
        observe_batch(reference, rows)
        lattice = net.lattices[x]
        n_candidates = len(lattice.candidates)
        chosen = data.draw(
            st.sets(st.integers(0, max(n_candidates - 1, 0)), max_size=min(3, n_candidates)),
            label="expanded set",
        )
        node = insert_node(lattice, sum(1 << i for i in chosen))
        sync_node(net, lattice, node)
        fresh, stored, dead = [], [], []
        for i in range(n_candidates):
            key = node.key | 1 << i
            if key == node.key:
                continue
            kind = data.draw(st.sampled_from(["fresh", "stored", "dead"]), label=f"child {key:#x}")
            if kind == "fresh":
                fresh.append(key)
            elif kind == "stored":
                stored.append(insert_node(lattice, key))
            else:
                insert_node(lattice, key)
                kill(lattice, key)
                dead.append(key)
        boolean_net = all(a == 2 for a in arities)
        model = data.draw(
            st.sampled_from(SCORING_MODELS if boolean_net else ("table",)), label="model"
        )
        net.scoring_model = model  # every child is scored at birth under it
        before = set(lattice.nodes)
        with mock.patch.object(engine, "_BLOCK_CELLS", block):
            assert engine._expand(net, lattice, node, NOTHING_DIES) == len(fresh)
        assert node.expansion is ExpansionFlag.EXPANDED
        assert lattice.nodes.keys() == before | set(fresh)
        assert all(lattice.nodes[s.key] is s and s.counts.total == 0 for s in stored)
        assert lattice.dead == set(dead)
        for key in fresh:
            child = lattice.nodes[key]
            want = insert_node(reference.lattices[x], key)
            sync_node(reference, reference.lattices[x], want)
            assert child.parents == want.parents
            want_alpha = alpha_for(x, want.parents, config, schema)
            assert concentration(child.counts, lattice.alpha).hex() == want_alpha.hex()
            assert child.log_prior.hex() == want.log_prior.hex()
            assert child.counts == want.counts
            assert child.counts.codes.dtype == child.counts.cells.dtype == np.int64
            assert child.counts.cells.shape[1] == m_x
            assert child.counts.total == n_rows
            assert child.status is NodeStatus.ASLEEP
            assert child.expansion is ExpansionFlag.CLOSED
            assert child.scores.keys() == {model} and child.scores[model][0] == n_rows
            boolean = all(arities[v] == 2 for v in (x, *child.parents))
            for kind in SCORING_MODELS if boolean else ("table",):
                net.scoring_model = reference.scoring_model = kind
                score = engine._node_score(net, lattice, child)
                want_score = engine._node_score(reference, reference.lattices[x], want)
                # a function of the bare table: no node, no network
                from_counts = child.log_prior + engine.family_log_ml(
                    kind, child.counts, config.alpha, schema, x, child.parents
                )
                assert score.hex() == want_score.hex() == from_counts.hex(), kind

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(2, 4), min_size=2, max_size=5),
        st.lists(
            st.tuples(st.sampled_from([0, 1, 5, 63, 64, 65, 127, 128, 129]), st.booleans()),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([1, 7, 64, 1 << 16]),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_children_counted_from_a_log_grown_between_expansions(
        self, arities, batches, block, seed, data
    ):
        # the bit index is extended, never rebuilt, as the log grows by
        # batches of 0 rows or ending before, on or after a 64-row word
        # boundary; after each batch that asks for one, one set of a drawn
        # lattice is expanded at thresholds where no child dies, and each
        # fresh child must equal the child insert_node builds and sync_node
        # counts on the log so far.  Each
        # column draws values below a drawn bound, so some values and
        # configurations are never observed.
        labels = "abcd"
        schema = DomainSchema(
            tuple(VariableSpec(f"v{i}", tuple(labels[:a])) for i, a in enumerate(arities))
        )
        config = PriorConfig(1.0)
        net = init(schema, ArcPriorMatrix(default_prior=0.5), config)
        rng = np.random.default_rng(seed)
        highs = [data.draw(st.integers(1, a), label=f"values of v{i}") for i, a in enumerate(arities)]
        with mock.patch.object(engine, "_BLOCK_CELLS", block):
            for n_rows, expand in batches:
                observe_batch(net, np.column_stack([rng.integers(0, h, size=n_rows) for h in highs]))
                if not expand:
                    continue
                x = data.draw(st.integers(1, len(arities) - 1), label="lattice")
                lattice = net.lattices[x]
                unexpanded = sorted(
                    k for k, n in lattice.nodes.items() if n.expansion is not ExpansionFlag.EXPANDED
                )
                if not unexpanded:
                    continue
                node = lattice.nodes[data.draw(st.sampled_from(unexpanded), label="expanded set")]
                sync_node(net, lattice, node)
                before = set(lattice.nodes)
                # counted: the index is extended
                if engine._expand(net, lattice, node, NOTHING_DIES):
                    assert lattice.dead == set()
                    assert net.bit_index.rows == net.n_total
                reference = init(schema, ArcPriorMatrix(default_prior=0.5), config)
                observe_batch(reference, net.example_log)
                for key in lattice.nodes.keys() - before:
                    child = lattice.nodes[key]
                    want = insert_node(reference.lattices[x], key)
                    sync_node(reference, reference.lattices[x], want)
                    assert child.parents == want.parents
                    assert child.counts == want.counts
                    assert child.counts.total == net.n_total

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(SCORING_MODELS),
        st.lists(st.integers(2, 3), min_size=2, max_size=5),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.one_of(st.just(0), st.just(1), st.integers(2, 120)),
        st.lists(st.sampled_from([0.9, 0.5, 0.2, 0.05, 0.01, 1e-3]), min_size=3, max_size=3),
        st.sampled_from([0.0, 0.3, 1.0, 5.0]),
        st.integers(0, 6),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_an_expansion_leaves_what_storing_every_child_then_re_aiming_leaves(
        self, model, arities, prior, n_rows, thresholds, kappa, budget, seed, data
    ):
        # children scored at birth, every one the re-aim would kill killed
        # at once, and the re-aim after: the same stored and dead keys (stored
        # in the same order), statuses, expansion states, counts and cached
        # scores, by float.hex, as storing every child and then re-aiming
        if model != "table":
            arities = [2] * len(arities)  # a restricted model scores boolean families only
        c, d, e = sorted(thresholds, reverse=True)
        params = SearchParams(c_alive=c, d_open=d, e_dead=e, dead_kappa=kappa)
        labels = "abc"
        schema = DomainSchema(
            tuple(VariableSpec(f"v{i}", tuple(labels[:a])) for i, a in enumerate(arities))
        )
        net = init(schema, ArcPriorMatrix(default_prior=prior), PriorConfig(1.0))
        net.scoring_model = model
        rng = np.random.default_rng(seed)
        columns = []
        for a in arities:  # each column copies an earlier one now and then, so sets differ
            fresh = rng.integers(0, a, size=n_rows)
            if columns:
                copied = columns[rng.integers(len(columns))] % a
                fresh = np.where(rng.random(n_rows) < 0.6, copied, fresh)
            columns.append(fresh)
        observe_batch(net, np.column_stack(columns))
        refine(net, replace(params, budget=budget))
        x = data.draw(st.integers(0, len(arities) - 1), label="lattice")
        lattice = net.lattices[x]
        unexpanded = [
            k for k, n in lattice.nodes.items() if n.expansion is not ExpansionFlag.EXPANDED
        ]
        key = data.draw(st.sampled_from(sorted(unexpanded or lattice.nodes)), label="expanded set")
        if lattice.candidates and data.draw(st.booleans(), label="expand a set not stored"):
            key = data.draw(st.integers(0, 2 ** len(lattice.candidates) - 1), label="any set")
            if key in lattice.dead:
                key = 0 if 0 in lattice.nodes else next(iter(lattice.nodes))
            elif key not in lattice.nodes:
                sync_node(net, lattice, insert_node(lattice, key))
        reference = copy.deepcopy(net)
        before = set(lattice.nodes)
        created = engine._expand(net, lattice, lattice.nodes[key], params)
        born = lattice.nodes.keys() - before
        engine._re_aim(net, lattice, params)
        assert born <= lattice.nodes.keys()  # the re-aim kills no child that outlived its birth
        want = reference.lattices[x]
        assert created == expand_storing_every_child(reference, want, want.nodes[key], params)
        assert lattice.dead == want.dead
        assert list(lattice.nodes) == list(want.nodes)
        for got, node in zip(lattice.nodes.values(), want.nodes.values()):
            assert (got.status, got.expansion) == (node.status, node.expansion), got.key
            assert got.log_prior.hex() == node.log_prior.hex()
            assert got.counts == node.counts
            assert {k: (n, v.hex()) for k, (n, v) in got.scores.items()} == {
                k: (n, v.hex()) for k, (n, v) in node.scores.items()
            }, got.key
        check_lattice(lattice, net.n_total)

    def test_a_child_below_the_stored_best_dies_at_birth(self):
        # c independent of a and b, all priors 1/2: the root of c's lattice
        # outscores both children by the same margin.  With e_dead halfway
        # there, both die at birth, bound by the stored best rather than the
        # children's, and are never built; a refine's report counts them as
        # created and as killed
        net = fresh_net("abc")
        observe_batch(net, list(itertools.product(range(2), repeat=3)) * 10)
        lattice = net.lattices[2]
        root = lattice.nodes[0]
        probe = copy.deepcopy(net)
        seen = probe.lattices[2]
        expand_storing_every_child(probe, seen, seen.nodes[0], NOTHING_DIES)
        scores = [engine._node_score(probe, seen, n) for n in seen.nodes.values()]
        assert scores[1] == scores[2] < scores[0]
        e = math.exp((scores[1] - scores[0]) / 2)
        params = SearchParams(c_alive=e, d_open=e, e_dead=e, dead_kappa=0.0)
        engine._re_aim(net, lattice, params)
        assert engine._expand(net, lattice, root, params) == 2
        assert lattice.dead == {0b01, 0b10} and list(lattice.nodes) == [0]
        assert root.expansion is ExpansionFlag.EXPANDED
        report = refine(net, params)
        stats = network_stats(net)
        assert report.nodes_created + len(net.lattices) + 2 == stats.total_stored + sum(
            stats.dead.values()
        )
        assert report.nodes_killed == sum(stats.dead.values()) - 2

    def test_a_score_that_raises_mid_refine_leaves_every_lattice_whole(self):
        # a logistic score that raises on its k-th call, for k across the
        # whole search, some inside an expansion: after each raise every
        # lattice keeps the rules of check_lattice, and a refine that then
        # runs unpatched ends in the bytes of one never interrupted
        net, _ = sampled_net(chain_v_truth(), 150, seed=4)
        net.scoring_model = "logistic"
        refine(net, SearchParams(budget=3))
        observe_batch(net, forward_sample(chain_v_truth(), 150, seed=5))
        uninterrupted = copy.deepcopy(net)
        real = engine.family_log_ml
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        with mock.patch.object(engine, "family_log_ml", counted):
            refine(uninterrupted, SearchParams())
        want = serialize_session(uninterrupted)
        raised_in_expansion = 0
        for k in sorted({1 + calls * i // 20 for i in range(20)}):
            session = copy.deepcopy(net)
            seen = 0

            def failing(*args):
                nonlocal seen
                seen += 1
                if seen == k:
                    raise RuntimeError("score failed")
                return real(*args)

            with mock.patch.object(engine, "family_log_ml", failing):
                with pytest.raises(RuntimeError, match="score failed") as raised:
                    refine(session, SearchParams())
            frames = {frame.name for frame in traceback.extract_tb(raised.value.__traceback__)}
            raised_in_expansion += "_expand" in frames
            for lattice in session.lattices:
                check_lattice(lattice, session.n_total)
            refine(session, SearchParams())
            assert serialize_session(session) == want, k
        assert raised_in_expansion >= 10

    def test_the_bit_index_is_kept_in_memory_only(self):
        # an index changes no session byte and takes no part in ==; a
        # loaded session starts without one, builds its own at its first
        # expansion, and refines to the same bytes as the session it was
        # saved from
        net, _ = sampled_net(five_var_truth(), 130, seed=5)
        refine(net, SearchParams(budget=3))
        assert net.bit_index is not None and net.bit_index.rows == 130
        assert "bit_index" not in {f.name for f in fields(CombinedNetwork) if f.compare}
        assert "bit_index" not in repr(net)
        text = serialize_session(net)
        loaded = session_from_document(json.loads(text))
        assert loaded.bit_index is None
        assert serialize_session(loaded) == text
        more = forward_sample(five_var_truth(), 70, seed=6)
        for session in (net, loaded):
            observe_batch(session, more)
            refine(session, SearchParams())
        assert loaded.bit_index.rows == net.bit_index.rows == 200
        assert serialize_session(loaded) == serialize_session(net)
        assert net == loaded


class TestAim:
    def test_inserts_and_kills_make_the_stamp_stale(self):
        net, _ = sampled_net(five_var_truth(), 60, seed=3)
        lattice = net.lattices[4]
        params = SearchParams(dead_kappa=math.inf)  # the re-aims kill nothing
        rethreshold(net, params)
        assert lattice.aim == engine._aim_stamp(net, lattice, params)
        insert_node(lattice, 0)  # already stored: nothing changes
        assert lattice.aim == engine._aim_stamp(net, lattice, params)
        insert_node(lattice, 0b1)
        assert lattice.aim != engine._aim_stamp(net, lattice, params)
        rethreshold(net, params)
        assert lattice.aim == engine._aim_stamp(net, lattice, params)
        kill(lattice, 0b1)
        assert lattice.aim != engine._aim_stamp(net, lattice, params)

    def test_an_insert_then_a_kill_of_the_same_set_makes_the_stamp_stale(self):
        # a stamp counting stored sets alone matches here, and would match
        # as well after storing one set and killing another, which leaves
        # the new set unscored and its status unaimed
        net, _ = sampled_net(five_var_truth(), 60, seed=3)
        lattice = net.lattices[4]
        params = SearchParams(dead_kappa=math.inf)
        rethreshold(net, params)
        stored = set(lattice.nodes)
        insert_node(lattice, 0b10)
        kill(lattice, 0b10)
        assert set(lattice.nodes) == stored
        assert lattice.aim != engine._aim_stamp(net, lattice, params)

    def test_refine_re_aims_a_lattice_only_when_what_it_reads_changed(self):
        net, data = sampled_net(five_var_truth(), 200, seed=4)
        params = SearchParams()
        refine(net, params)
        calls = []
        real = engine._re_aim

        def counted(net, lattice, params):
            calls.append(lattice.x)
            return real(net, lattice, params)

        def re_aims_once(params):
            # the first refine re-aims each lattice first thing, the next none
            calls.clear()
            refine(net, params)
            first = calls[:5]
            calls.clear()
            refine(net, params)
            return first == [0, 1, 2, 3, 4] and calls == []

        with mock.patch.object(engine, "_re_aim", counted):
            assert refine(net, params).expansions == 0
            observe_batch(net, data[:0])
            refine(net, params)
            assert calls == []  # every lattice is aimed, and an empty batch changes nothing
            observe_batch(net, data[:1])
            assert re_aims_once(params)
            net.scoring_model = "noisy-or"
            assert re_aims_once(params)
            for field, value in [
                ("c_alive", 0.2),
                ("d_open", 0.05),
                ("e_dead", 0.005),
                ("dead_kappa", 1.0),
            ]:
                params = replace(params, **{field: value})
                assert re_aims_once(params), field

    def test_public_rethreshold_always_re_aims(self):
        net, _ = sampled_net(five_var_truth(), 200, seed=5)
        refine(net, SearchParams())
        before = node_state(net)
        for lattice in net.lattices:
            for node in lattice.nodes.values():
                node.status = NodeStatus.ASLEEP
        refine(net, SearchParams())  # aimed lattices are left as they are
        assert not any(lattice.alive_nodes() for lattice in net.lattices)
        rethreshold(net, SearchParams())
        assert node_state(net) == before


class TestSearchParams:
    @pytest.mark.parametrize(
        "fields, message",
        [
            pytest.param(fields, message, id=",".join(f"{k}={v}" for k, v in fields.items()))
            for fields, message in INVALID_PARAMS
        ],
    )
    def test_invalid_parameters_are_rejected(self, fields, message):
        # a NaN dead_kappa was accepted, and no node could ever be killed
        with pytest.raises(ConfigurationError, match=message):
            SearchParams(**fields)

    def test_infinite_kappa_turns_kills_off(self):
        net, _ = sampled_net(five_var_truth(), 400, seed=17)
        assert refine(net, SearchParams(dead_kappa=math.inf)).nodes_killed == 0


class TestStreaming:
    def test_recovery_demo_stream_keeps_every_true_arc(self):
        # the scripts/recovery_demo.py run: a dead node's stale score used to
        # win a lattice's best and get every live node in it killed
        truth = chain_v_truth()
        data = forward_sample(truth, 5000, seed=2026)
        net = init(truth.schema, ArcPriorMatrix(default_prior=0.5), PriorConfig(1.0))
        for start in range(0, len(data), 500):
            observe_batch(net, data[start : start + 500])
            refine(net, SearchParams())
        entries = all_arc_posteriors(net).entries
        for x, parents in enumerate(truth.parents):
            for y in parents:
                assert entries[(y, x)] > 0.95, (y, x)
        best_network(net)
        sample_smoothed(net, seed=0)


class TestRethreshold:
    def _two_var_net(self):
        net = fresh_net("ab")
        observe_batch(net, [(0, 0), (1, 1), (0, 1), (1, 0)] * 6)
        refine(net, SearchParams(c_alive=0.5, d_open=0.4, e_dead=1e-9))
        return net

    def test_boundary_is_inclusive(self):
        net = self._two_var_net()
        params = SearchParams(c_alive=0.5, d_open=0.4, e_dead=1e-9)
        lattice = net.lattices[1]
        node = lattice.nodes[0b1]
        # pin the node exactly on the alive boundary
        log_ml = math.log(params.c_alive) + scored_best(net, lattice) - node.log_prior
        node.scores["table"] = (net.n_total, log_ml)
        node.status = NodeStatus.ASLEEP
        rethreshold(net, params)
        assert node.status is NodeStatus.ALIVE

    def test_status_is_a_pure_threshold(self):
        net = self._two_var_net()
        params = SearchParams(c_alive=0.5, d_open=0.4, e_dead=1e-9)
        lattice = net.lattices[1]
        node = lattice.nodes[0b1]
        node.status = NodeStatus.ALIVE
        # an alive node just below the alive boundary is demoted at once
        log_ml = math.log(params.c_alive) + scored_best(net, lattice) - node.log_prior - 1e-6
        node.scores["table"] = (net.n_total, log_ml)
        rethreshold(net, params)
        assert node.status is NodeStatus.ASLEEP

    def test_public_rethreshold_catches_stale_nodes_up(self):
        # ranking asleep nodes by counts that lagged the log used to kill
        # every node synced at n = 2000 and wake nodes synced at n = 200;
        # every stored node now counts the whole log the re-aim ranks on
        truth = chain_v_truth()
        priors = ArcPriorMatrix(entries={(0, 1): 1.0, (0, 5): 0.0}, default_prior=0.5)
        net = init(truth.schema, priors, PriorConfig(alpha=1.0))
        data = forward_sample(truth, 2000, seed=5)
        observe_batch(net, data[:200])
        refine(net, SearchParams())
        observe_batch(net, data[200:])
        rethreshold(net, SearchParams())
        for lattice in net.lattices:
            alive = lattice.alive_nodes()
            assert alive
            assert all(node.counts.total == net.n_total for node in lattice.nodes.values())


class TestBestNetwork:
    def test_fresh_net_is_uniform_roots(self):
        import numpy as np

        net = fresh_net("abc")
        concrete = best_network(net)
        assert concrete.parents == ((), (), ())
        for table in concrete.tables:
            assert np.allclose(table, 0.5)

    def test_strong_data_recovers_map_structure(self):
        truth = five_var_truth()
        net, data = sampled_net(truth, 1000, seed=19)
        refine(net, SearchParams())
        concrete = best_network(net)
        for x in range(5):
            exact = exhaustive_posterior(x, data, net.priors, net.config, net.schema)
            assert frozenset(concrete.parents[x]) == map_set(exact)

    def test_tie_break_is_smaller_key(self):
        net = fresh_net("ab")
        refine(net, PERMISSIVE)
        lattice = net.lattices[1]
        node = lattice.nodes[0b1]
        node.status = NodeStatus.ALIVE
        node.log_prior = lattice.nodes[0].log_prior  # exact score tie, bit for bit
        node.scores["table"] = (net.n_total, table_log_ml(lattice, lattice.nodes[0]))
        assert best_network(net).parents[1] == ()


class TestStats:
    def test_totals_add_up(self):
        net, _ = sampled_net(five_var_truth(), 150, seed=20)
        refine(net, SearchParams())
        stats = network_stats(net)
        assert stats.total_stored == sum(len(l.nodes) for l in net.lattices)
        for lattice in net.lattices:
            name = net.schema.name(lattice.x)
            assert stats.stored[name] == len(lattice.nodes)
            assert stats.alive[name] == len(lattice.alive_nodes())
