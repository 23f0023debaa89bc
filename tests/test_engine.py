import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnrefine import (
    ArcPriorMatrix,
    ConfigurationError,
    DomainSchema,
    ExampleError,
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
from bnrefine.engine import _scored_best, dead_condition
from bnrefine.kernels import log_marginal_likelihood
from bnrefine.oracle import exhaustive_posterior
from bnrefine.sampling import forward_sample

from helpers import (
    DeadNodeMonitor,
    binary_schema,
    chain_v_truth,
    five_var_truth,
    fresh_net,
    node_state,
    sampled_net,
)

PERMISSIVE = SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12)


def recompute_node(net, lattice, node):
    """Batch oracle: score the node's parent set from scratch over the log."""
    from bnrefine.domain import CountTable, project

    counts = CountTable(net.schema.arity(lattice.x))
    for example in net.example_log[: node.synced_through]:
        counts.increment(project(example, node.parents), example[lattice.x])
    return counts, log_marginal_likelihood(counts, node.alpha_x)


class TestInit:
    def test_root_only_lattices(self):
        net = fresh_net("abc")
        assert len(net.lattices) == 3
        for lattice in net.lattices:
            assert set(lattice.nodes) == {0}
            assert lattice.root.log_ml == 0.0

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


class TestObserve:
    def test_first_observation_moves_root_by_log_half(self):
        net = fresh_net("a")
        observe(net, (1,))
        assert net.lattices[0].root.log_ml == pytest.approx(math.log(0.5))

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
                    assert counts == node.counts
                    assert node.log_ml == pytest.approx(log_ml, abs=1e-9)

    def test_asleep_node_syncs_to_batch_value(self):
        net, _ = sampled_net(five_var_truth(), 50, seed=9)
        refine(net, SearchParams())
        lattice = net.lattices[3]
        asleep = [n for n in lattice.nodes.values() if n.status is NodeStatus.ASLEEP]
        assert asleep, "scenario needs at least one asleep node"
        observe_batch(net, forward_sample(five_var_truth(), 100, seed=10))
        node = asleep[0]
        assert node.synced_through < net.n_total
        sync_node(net, lattice, node)
        counts, log_ml = recompute_node(net, lattice, node)
        assert counts == node.counts
        assert node.log_ml == pytest.approx(log_ml, abs=1e-9)


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


class TestSync:
    def test_noop_when_current(self):
        net = fresh_net("ab")
        observe_batch(net, [(0, 1), (1, 0)])
        lattice = net.lattices[1]
        before = node_state(net)
        sync_node(net, lattice, lattice.root)
        assert node_state(net) == before

    def test_fresh_node_absorbs_whole_log(self):
        net, data = sampled_net(five_var_truth(), 80, seed=5)
        refine(net, PERMISSIVE)
        lattice = net.lattices[4]
        node = max(lattice.nodes.values(), key=lambda n: n.key)
        counts, log_ml = recompute_node(net, lattice, node)
        assert node.synced_through == len(data)
        assert counts == node.counts
        assert node.log_ml == pytest.approx(log_ml, abs=1e-9)

    def test_asleep_twin_catches_up(self):
        net, _ = sampled_net(five_var_truth(), 20, seed=6)
        refine(net, PERMISSIVE)
        lattice = net.lattices[2]
        twin_key = 0b01
        node = lattice.nodes[twin_key]
        node.status = NodeStatus.ASLEEP  # force it to lag behind
        observe_batch(net, forward_sample(five_var_truth(), 100, seed=7))
        sync_node(net, lattice, node)
        always_alive = net.lattices[2].root  # stayed in the update path
        counts, log_ml = recompute_node(net, lattice, node)
        assert node.log_ml == pytest.approx(log_ml, abs=1e-9)
        assert node.synced_through == always_alive.synced_through == net.n_total


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
                assert node.synced_through == net.n_total
                assert counts == node.counts
                assert node.log_ml == log_ml


class TestDeadCondition:
    def test_zero_observations(self):
        net = fresh_net("ab")
        assert not dead_condition(net.lattices[1].root, net.schema, 1, 5.0)

    def test_threshold_is_kappa_times_table_size(self):
        net = fresh_net("ab")
        observe_batch(net, [(0, 1)] * 19)
        refine(net, PERMISSIVE)
        node = net.lattices[1].nodes[0b1]  # binary child, one binary parent
        assert node.counts.total == 19
        assert not dead_condition(node, net.schema, 1, 5.0)
        observe(net, (1, 0))
        assert dead_condition(node, net.schema, 1, 5.0)

    def test_kappa_zero_always_true(self):
        net = fresh_net("ab")
        assert dead_condition(net.lattices[1].root, net.schema, 1, 0.0)


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
            best = min(
                net.lattices[x].alive_nodes(), key=lambda n: (-n.log_score, n.key)
            )
            assert frozenset(best.parents) == exact.map_set()

    def test_permissive_regime_matches_oracle(self):
        net, data = sampled_net(five_var_truth(), 200, seed=13)
        refine(net, PERMISSIVE)
        for x in range(5):
            exact = exhaustive_posterior(x, data, net.priors, net.config, net.schema)
            lattice = net.lattices[x]
            for node in lattice.nodes.values():
                want = exact.log_scores[frozenset(node.parents)]
                assert node.log_score == pytest.approx(want, abs=1e-9)
            top = max(exact.posterior.values())
            alive = {frozenset(n.parents) for n in lattice.alive_nodes()}
            for subset, mass in exact.posterior.items():
                if mass >= 1e-3 * top:
                    assert subset in alive

    @pytest.mark.parametrize("budget", [1, 3, 7, 50])
    def test_resumable(self, budget):
        from bnrefine.fileio import serialize_session

        net_a, _ = sampled_net(five_var_truth(), 100, seed=14)
        net_b = copy.deepcopy(net_a)
        refine(net_a, SearchParams(budget=budget))
        refine(net_a, SearchParams())
        refine(net_b, SearchParams())
        assert serialize_session(net_a) == serialize_session(net_b)

    def test_best_monotone_under_budget_steps(self):
        net, _ = sampled_net(five_var_truth(), 150, seed=15)
        last = {x: _scored_best(net, net.lattices[x]) for x in range(5)}
        for _ in range(40):
            report = refine(net, SearchParams(budget=1))
            for x in range(5):
                assert _scored_best(net, net.lattices[x]) >= last[x] - 1e-12
                last[x] = _scored_best(net, net.lattices[x])
            if report.exhausted:
                break

    def test_budget_bounds_expansions(self):
        net, _ = sampled_net(five_var_truth(), 100, seed=16)
        report = refine(net, SearchParams(budget=4))
        assert report.expansions <= 4

    def test_dead_nodes_stay_dead_and_unexpanded(self):
        net, _ = sampled_net(five_var_truth(), 400, seed=17)
        refine(net, SearchParams())
        dead = {
            (lat.x, key): node.expanded
            for lat in net.lattices
            for key, node in lat.nodes.items()
            if node.status is NodeStatus.DEAD
        }
        observe_batch(net, forward_sample(five_var_truth(), 200, seed=18))
        refine(net, SearchParams())
        for (x, key), was_expanded in dead.items():
            node = net.lattices[x].nodes[key]
            assert node.status is NodeStatus.DEAD
            assert node.expanded == was_expanded


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

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=150), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_random_batch_splits_keep_the_lattice_invariants(self, sizes, seed):
        data = forward_sample(five_var_truth(), sum(sizes), seed=seed)
        net = fresh_net("abcde")
        monitor = DeadNodeMonitor()
        start = 0
        for size in sizes:
            observe_batch(net, data[start : start + size])
            start += size
            refine(net, SearchParams())
            monitor.check(net)
            assert monitor.violations == []
            for lattice in net.lattices:
                assert lattice.alive_nodes()
                for node in lattice.nodes.values():
                    if node.status is NodeStatus.DEAD:
                        continue
                    assert node.synced_through == net.n_total
                    counts, log_ml = recompute_node(net, lattice, node)
                    assert counts == node.counts
                    assert node.log_ml == log_ml


class TestRethreshold:
    def _two_var_net(self):
        net = fresh_net("ab")
        observe_batch(net, [(0, 0), (1, 1), (0, 1), (1, 0)] * 6)
        refine(net, SearchParams(c_alive=0.5, d_open=0.4, e_dead=1e-9))
        return net

    def test_boundary_is_inclusive(self):
        net = self._two_var_net()
        params = SearchParams(c_alive=0.5, d_open=0.4, e_dead=1e-9, hysteresis=1.0)
        lattice = net.lattices[1]
        node = lattice.nodes[0b1]
        # pin the node exactly on the alive boundary
        node.log_ml = params.log_c + _scored_best(net, lattice) - node.log_prior
        node.status = NodeStatus.ASLEEP
        rethreshold(net, params)
        assert node.status is NodeStatus.ALIVE

    def test_hysteresis_one_is_pure_threshold(self):
        net = self._two_var_net()
        params = SearchParams(c_alive=0.5, d_open=0.4, e_dead=1e-9, hysteresis=1.0)
        lattice = net.lattices[1]
        node = lattice.nodes[0b1]
        node.status = NodeStatus.ALIVE
        node.log_ml = params.log_c + _scored_best(net, lattice) - node.log_prior - 1e-6
        rethreshold(net, params)
        assert node.status is NodeStatus.ASLEEP

    def test_oscillation_with_hysteresis_changes_status_at_most_once(self):
        net = self._two_var_net()
        params = SearchParams(c_alive=0.5, d_open=0.4, e_dead=1e-9, hysteresis=0.5)
        lattice = net.lattices[1]
        node = lattice.nodes[0b1]
        node.status = NodeStatus.ASLEEP
        boundary = params.log_c + _scored_best(net, lattice) - node.log_prior
        changes = 0
        last = node.status
        for step in range(12):
            node.log_ml = boundary + (1e-4 if step % 2 == 0 else -1e-4)
            rethreshold(net, params)
            if node.status is not last:
                changes += 1
                last = node.status
        assert changes <= 1
        assert node.status is NodeStatus.ALIVE

    def test_public_rethreshold_catches_stale_nodes_up(self):
        # ranking asleep nodes by counts that lag the log used to kill
        # every node synced at n = 2000 and wake nodes synced at n = 200
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
            assert all(node.synced_through == net.n_total for node in alive)


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
            assert frozenset(concrete.parents[x]) == exact.map_set()

    def test_tie_break_is_smaller_key(self):
        net = fresh_net("ab")
        refine(net, PERMISSIVE)
        lattice = net.lattices[1]
        node = lattice.nodes[0b1]
        node.status = NodeStatus.ALIVE
        node.log_prior = lattice.root.log_prior  # exact score tie, bit for bit
        node.log_ml = lattice.root.log_ml
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
