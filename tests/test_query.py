import math
from unittest import mock

import numpy as np
import pytest

from bnrefine import (
    ArcPriorMatrix,
    ConcreteNetwork,
    ExampleError,
    NodeStatus,
    PriorConfig,
    SearchParams,
    all_arc_posteriors,
    arc_posterior,
    init,
    loglik_dataset,
    observe_batch,
    refine,
    sample_smoothed,
)
from bnrefine.engine import SCORING_MODELS
from bnrefine.lattice import LatticeStateError
from bnrefine.oracle import alpha_for
from bnrefine.query import _alive_weights, draw_index, leaf_masses
from bnrefine.sampling import forward_sample

from helpers import (
    binary_schema,
    config_index,
    exhaustive_arc_posterior,
    five_var_truth,
    fresh_net,
    full_joint_enumeration,
    mixed_arity_network,
    node_reference_counts,
    posterior_mean,
    reference_arc_posteriors,
    sampled_net,
    table_log_ml,
)

PERMISSIVE = SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12)


def random_boolean_network(rng: np.random.Generator, n: int) -> ConcreteNetwork:
    """Boolean variables with up to two random earlier parents each and random CPTs."""
    schema = binary_schema([f"v{i}" for i in range(n)])
    parents = tuple(
        tuple(sorted(rng.choice(x, size=min(x, int(rng.integers(0, 3))), replace=False).tolist()))
        for x in range(n)
    )
    tables = []
    for ps in parents:
        p = rng.uniform(0.1, 0.9, size=2 ** len(ps))
        tables.append(np.stack((1.0 - p, p), axis=1))
    return ConcreteNetwork(schema, parents, tuple(tables))


class TestArcPosterior:
    def test_never_exceeds_one(self):
        # normalized weights can sum past 1 by a few ulps; seeds 8, 11, 15,
        # 26, 32 and 38 here did before the sum was made exact and capped
        for seed in range(40):
            net, _ = sampled_net(five_var_truth(), 200, seed=seed)
            refine(net, SearchParams())
            entries = all_arc_posteriors(net).entries
            assert all(p <= 1.0 for p in entries.values()), seed
            for (y, x) in entries:
                assert arc_posterior(net, y, x) <= 1.0

    def test_fresh_lattices_report_zero(self):
        net = fresh_net("abc")
        for x in range(3):
            for y in range(x):
                assert arc_posterior(net, y, x) == 0.0

    def test_two_equal_sets_split_evenly(self):
        net = fresh_net("ab")
        refine(net, PERMISSIVE)
        lattice = net.lattices[1]
        node = lattice.nodes[0b1]
        node.status = NodeStatus.ALIVE
        node.log_prior = lattice.nodes[0].log_prior
        node.scores["table"] = (net.n_total, table_log_ml(lattice, lattice.nodes[0]))
        assert arc_posterior(net, 0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_lattice_without_an_alive_node_is_an_error(self):
        net, _ = sampled_net(five_var_truth(), 100, seed=3)
        refine(net, SearchParams())
        lattice = net.lattices[3]
        for node in lattice.nodes.values():
            node.status = NodeStatus.ASLEEP
        with pytest.raises(LatticeStateError, match="no alive parent set for 'd'"):
            arc_posterior(net, 1, 3)
        with pytest.raises(LatticeStateError, match="no alive parent set for 'd'"):
            all_arc_posteriors(net)
        assert arc_posterior(net, 1, 2) >= 0.0  # other lattices still answer

    def test_hard_arcs_are_exact(self):
        schema = binary_schema("abc")
        priors = ArcPriorMatrix(entries={(0, 2): 1.0, (1, 2): 0.0})
        net = init(schema, priors, PriorConfig())
        assert arc_posterior(net, 0, 2) == 1.0
        assert arc_posterior(net, 1, 2) == 0.0

    def test_ordering_enforced(self):
        net = fresh_net("ab")
        with pytest.raises(ValueError):
            arc_posterior(net, 1, 0)

    @pytest.mark.parametrize(
        "default_prior, y, x",
        [
            (1.0, -1, 2),  # used to report 1.0
            (0.0, -1, 2),  # used to report 0.0
            (0.5, -1, 2),  # used to raise a bare tuple.index error
            (0.5, 0, 3),  # used to raise IndexError
        ],
    )
    def test_pair_outside_the_schema_is_an_error(self, default_prior, y, x):
        net = fresh_net("abc", default_prior=default_prior)
        with pytest.raises(ValueError, match=rf"^\({y}, {x}\) is not an arc"):
            arc_posterior(net, y, x)

    def test_matches_oracle_in_permissive_regime(self):
        net, data = sampled_net(five_var_truth(), 300, seed=21)
        refine(net, PERMISSIVE)
        for x in range(5):
            for y in range(x):
                exact = exhaustive_arc_posterior(y, x, data, net.priors, net.config, net.schema)
                assert arc_posterior(net, y, x) == pytest.approx(exact, abs=1e-6)


class TestArcPosteriorMatrix:
    def test_matches_pointwise(self):
        net, _ = sampled_net(five_var_truth(), 120, seed=22)
        refine(net, SearchParams())
        matrix = all_arc_posteriors(net)
        for (y, x), p in matrix.entries.items():
            assert p == arc_posterior(net, y, x)

    @pytest.mark.parametrize("model", SCORING_MODELS)
    def test_matches_the_per_pair_reference(self, model):
        rng = np.random.default_rng(31)
        for _ in range(3):
            truth = random_boolean_network(rng, 5)
            hard = {(y, x): float(rng.integers(0, 2)) for x in range(5) for y in range(x)
                    if rng.random() < 0.3}
            net = init(truth.schema, ArcPriorMatrix(entries=hard), PriorConfig())
            net.scoring_model = model
            observe_batch(net, forward_sample(truth, 150, int(rng.integers(1 << 31))))
            refine(net, PERMISSIVE)
            assert max(len(lattice.alive_nodes()) for lattice in net.lattices) >= 4
            entries = all_arc_posteriors(net).entries
            reference = reference_arc_posteriors(net)
            assert list(entries.items()) == list(reference.items())

    def test_only_ordering_consistent_pairs(self):
        net = fresh_net("abc")
        matrix = all_arc_posteriors(net)
        assert set(matrix.entries) == {(0, 1), (0, 2), (1, 2)}

    def test_normalized_weights_sum_to_one(self):
        net, _ = sampled_net(five_var_truth(), 200, seed=23)
        refine(net, SearchParams())
        for lattice in net.lattices:
            _, weights = _alive_weights(net, lattice)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_scaling_invariance(self):
        net, _ = sampled_net(five_var_truth(), 150, seed=24)
        refine(net, SearchParams())
        before = all_arc_posteriors(net).entries
        lattice = net.lattices[3]
        for node in lattice.nodes.values():
            node.scores["table"] = (net.n_total, table_log_ml(lattice, node) + 123.456)
        net.lattices[3].arc_memo = None  # the scores changed behind the memo's stamp
        after = all_arc_posteriors(net).entries
        for pair, p in before.items():
            assert after[pair] == pytest.approx(p, abs=1e-9)


def converged_net(model: str):
    """An "ab" network whose lattice for b holds one alive set, {a}, with its
    root asleep, after a refine; its arc posteriors are then queried once."""
    net = fresh_net("ab")
    net.scoring_model = model
    observe_batch(net, [(0, 0), (1, 1)] * 4)
    refine(net, SearchParams())
    assert [n.key for n in net.lattices[1].alive_nodes()] == [0b1]
    assert net.lattices[1].nodes[0].status is NodeStatus.ASLEEP
    all_arc_posteriors(net)
    return net


def recomputed_arc_posteriors(net) -> dict:
    for lattice in net.lattices:
        lattice.arc_memo = None
    return all_arc_posteriors(net).entries


INDEPENDENT = [(0, 0), (0, 1), (1, 0), (1, 1)] * 10  # b does not depend on a


class TestArcMemo:
    @pytest.mark.parametrize("model", SCORING_MODELS)
    def test_one_alive_set_answers_from_the_memo_after_a_batch(self, model):
        net = converged_net(model)
        observe_batch(net, INDEPENDENT)
        with mock.patch("bnrefine.query._alive_weights", wraps=_alive_weights) as spy:
            entries = all_arc_posteriors(net).entries
        assert all(call.args[1] is not net.lattices[1] for call in spy.call_args_list)
        assert entries[(0, 1)] == 1.0
        assert list(entries.items()) == list(recomputed_arc_posteriors(net).items())

    @pytest.mark.parametrize("model", SCORING_MODELS)
    def test_a_memo_hit_scores_the_alive_set_on_the_whole_log(self, model):
        net = converged_net(model)
        observe_batch(net, INDEPENDENT)
        node = net.lattices[1].nodes[0b1]
        assert node.scores[model][0] < net.n_total
        all_arc_posteriors(net)
        assert node.scores[model][0] == net.n_total

    @pytest.mark.parametrize("model", SCORING_MODELS)
    def test_a_second_alive_set_recomputes(self, model):
        net = converged_net(model)
        observe_batch(net, INDEPENDENT)
        refine(net, SearchParams())
        assert len(net.lattices[1].alive_nodes()) == 2
        with mock.patch("bnrefine.query._alive_weights", wraps=_alive_weights) as spy:
            entries = all_arc_posteriors(net).entries
        assert any(call.args[1] is net.lattices[1] for call in spy.call_args_list)
        assert 0.0 < entries[(0, 1)] < 1.0
        assert list(entries.items()) == list(recomputed_arc_posteriors(net).items())


class TestSmoothed:
    def test_single_alive_root(self):
        net = fresh_net("ab")
        observe_batch(net, [(0, 1), (1, 0), (1, 1)])
        smoothed = sample_smoothed(net, seed=1)
        var = smoothed.variables[1]
        assert var.leaf == ()
        assert var.mass == pytest.approx(1.0)
        root = net.lattices[1].nodes[0]
        alpha_x = alpha_for(1, (), net.config, net.schema)
        expected = posterior_mean(node_reference_counts(net, 1, root), (), alpha_x, 2)
        assert np.allclose(var.table[0], expected)

    def test_two_set_merge_is_the_stated_mixture(self):
        net = fresh_net("ab")
        observe_batch(net, [(0, 0), (1, 1), (1, 0), (0, 1), (1, 1), (0, 0)])
        refine(net, PERMISSIVE)
        lattice = net.lattices[1]
        root, node = lattice.nodes[0], lattice.nodes[0b1]
        assert root.status is NodeStatus.ALIVE and node.status is NodeStatus.ALIVE
        _, weights = _alive_weights(net, lattice)
        smoothed = sample_smoothed(net, seed=2)
        var = smoothed.variables[1]
        assert var.leaf == (0,)
        root_counts, node_counts = (node_reference_counts(net, 1, n) for n in (root, node))
        for j in (0, 1):
            expected = weights[0] * posterior_mean(
                root_counts, (), alpha_for(1, (), net.config, net.schema), 2
            ) + weights[1] * posterior_mean(
                node_counts, (j,), alpha_for(1, (0,), net.config, net.schema), 2
            )
            assert np.allclose(var.table[j], expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        net, _ = sampled_net(five_var_truth(), 200, seed=25)
        refine(net, SearchParams())
        smoothed = sample_smoothed(net, seed=3)
        for var in smoothed.variables:
            assert np.allclose(var.table.sum(axis=1), 1.0, atol=1e-12)

    def test_convex_hull_of_contributions(self):
        net, _ = sampled_net(five_var_truth(), 200, seed=26)
        refine(net, SearchParams())
        smoothed = sample_smoothed(net, seed=4)
        for x, var in enumerate(smoothed.variables):
            lattice = net.lattices[x]
            family = [
                n
                for n in lattice.alive_nodes()
                if set(n.parents) <= set(var.leaf)
            ]
            import itertools

            arities = [net.schema.arity(p) for p in var.leaf]
            for row, cfg in enumerate(itertools.product(*(range(a) for a in arities))):
                contributions = np.array(
                    [
                        posterior_mean(
                            node_reference_counts(net, x, n),
                            tuple(cfg[var.leaf.index(p)] for p in n.parents),
                            alpha_for(x, n.parents, net.config, net.schema),
                            2,
                        )
                        for n in family
                    ]
                )
                assert np.all(var.table[row] >= contributions.min(axis=0) - 1e-12)
                assert np.all(var.table[row] <= contributions.max(axis=0) + 1e-12)

    def test_arc_probs_never_exceed_one(self):
        # summed with plain sum, d's arcs from a and b read 1.0000000000000016 here
        net, _ = sampled_net(five_var_truth(), 300, seed=3)
        refine(net, SearchParams())
        for draw in range(5):
            smoothed = sample_smoothed(net, seed=draw)
            for var in smoothed.variables:
                assert all(0.0 <= p <= 1.0 for p in var.arc_probs.values())
            d = smoothed.variables[3]
            assert d.leaf == (0, 1, 2) and d.arc_probs[0] == d.arc_probs[1] == 1.0

    def test_fixed_seed_is_reproducible(self):
        net, _ = sampled_net(five_var_truth(), 150, seed=27)
        refine(net, SearchParams())
        one = sample_smoothed(net, seed=99)
        two = sample_smoothed(net, seed=99)
        for a, b in zip(one.variables, two.variables):
            assert a.leaf == b.leaf and a.mass == b.mass
            assert np.array_equal(a.table, b.table)

    def test_leaf_draw_frequencies_match_masses(self):
        net, _ = sampled_net(five_var_truth(), 30, seed=28)
        refine(net, SearchParams(c_alive=0.1, d_open=0.01, e_dead=0.001))
        x = max(range(5), key=lambda v: len(leaf_masses(net, v)[0]))
        leaves, _, masses = leaf_masses(net, x)
        assert len(leaves) >= 2, "scenario needs a multi-leaf lattice"
        probs = masses / masses.sum()
        n_draws = 100_000
        rng = np.random.default_rng(5)
        hits = np.zeros(len(leaves))
        for _ in range(n_draws):
            hits[draw_index(rng, masses)] += 1
        for k, p in enumerate(probs):
            se = math.sqrt(p * (1 - p) / n_draws)
            assert abs(hits[k] / n_draws - p) <= 3 * se + 1e-12

    def test_the_largest_uniform_draw_takes_the_last_index(self):
        # ten masses of 0.1 normalize to a cumulative sum ending at 1 - 2**-53,
        # the largest value Generator.random returns: such a draw gave index 10
        class LargestDraw:
            def random(self):
                return np.nextafter(1.0, 0.0)

        masses = np.full(10, 0.1)
        assert np.cumsum(masses / masses.sum())[-1] == np.nextafter(1.0, 0.0)
        assert draw_index(LargestDraw(), masses) == 9


def per_example_loglik(network, data):
    """The per-example sum ``loglik_dataset`` computed before it scored whole
    columns: the reference here."""
    total = 0.0
    for example in data:
        term = 0.0
        for x in range(len(network.schema)):
            row = config_index(example, network.parents[x], network.schema)
            p = network.tables[x][row, example[x]]
            if p <= 0.0:
                return float("-inf")
            term += math.log(p)
        total += term
    return total


class TestLoglikDataset:
    def test_empty_is_zero(self):
        assert loglik_dataset(five_var_truth(), []) == 0.0
        assert loglik_dataset(five_var_truth(), np.empty((0, 5), dtype=np.int64)) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_per_example_sum(self, seed):
        network = mixed_arity_network(seed)
        data = forward_sample(network, 500, seed=seed + 100)
        expected = per_example_loglik(network, data)
        assert loglik_dataset(network, data) == pytest.approx(expected, rel=1e-12)
        as_array = np.array(data, dtype=np.int64)
        assert loglik_dataset(network, as_array) == pytest.approx(expected, rel=1e-12)

    def test_zero_cpt_entry_gives_neg_inf(self):
        network = mixed_arity_network(0)
        tables = list(network.tables)
        tables[3] = tables[3].copy()
        tables[3][1 * 4 + 2] = (1.0, 0.0)  # a = 1, c = 2: d is never 1
        network = ConcreteNetwork(network.schema, network.parents, tuple(tables))
        data = [(0, 0, 0, 1), (1, 1, 2, 1), (2, 0, 3, 0)]
        assert per_example_loglik(network, data) == float("-inf")
        assert loglik_dataset(network, data) == float("-inf")
        assert math.isfinite(loglik_dataset(network, [data[0], data[2]]))

    def test_invalid_row_rejects_the_dataset(self):
        with pytest.raises(ExampleError, match="value index 3 out of range for 'd'"):
            loglik_dataset(mixed_arity_network(0), [(0, 0, 0, 1), (0, 0, 0, 3)])

    def test_replication_scales_linearly(self):
        truth = five_var_truth()
        example = (0, 1, 0, 1, 1)
        single = loglik_dataset(truth, [example])
        assert loglik_dataset(truth, [example] * 7) == pytest.approx(7 * single)

    def test_matches_full_joint(self):
        truth = five_var_truth()
        joint = full_joint_enumeration(truth)
        data = forward_sample(truth, 50, seed=29)
        expected = sum(math.log(joint[e]) for e in data)
        assert loglik_dataset(truth, data) == pytest.approx(expected, rel=1e-10)
