import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnrefine import ArcPriorMatrix, ConcreteNetwork, CountTable, PriorConfig
from bnrefine.kernels import (
    alpha_for,
    expected_theta,
    joint_log_likelihood,
    log_beta_multi,
    log_marginal_likelihood,
    log_structure_prior,
    log_sum_exp,
    predictive_log_prob,
)
from bnrefine.oracle import full_joint_enumeration

from helpers import binary_schema


def table_from_rows(m_x, rows):
    counts = CountTable(m_x)
    for cfg, row in rows.items():
        for value, c in enumerate(row):
            for _ in range(c):
                counts.increment(cfg, value)
    return counts


class TestLogBetaMulti:
    def test_ones(self):
        assert log_beta_multi((1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_two_one(self):
        assert log_beta_multi((2.0, 1.0)) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_halves(self):
        assert log_beta_multi((0.5, 0.5)) == pytest.approx(math.log(math.pi), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_beta_multi((1.0, 0.0))


class TestAlphaFor:
    def setup_method(self):
        self.schema = binary_schema("xyz")

    def test_empty_parents(self):
        assert alpha_for(0, (), PriorConfig(1.0), self.schema) == pytest.approx(0.5)

    def test_two_binary_parents(self):
        assert alpha_for(2, (0, 1), PriorConfig(1.0), self.schema) == pytest.approx(0.125)

    def test_ternary_child(self):
        from bnrefine import DomainSchema, VariableSpec

        schema = DomainSchema(
            (VariableSpec("y", ("a", "b")), VariableSpec("x", ("a", "b", "c")))
        )
        assert alpha_for(1, (0,), PriorConfig(2.0), schema) == pytest.approx(1.0 / 3.0)

    def test_rejects_non_predecessor(self):
        with pytest.raises(ValueError):
            alpha_for(0, (1,), PriorConfig(1.0), self.schema)


class TestMarginalLikelihood:
    def test_empty_counts(self):
        assert log_marginal_likelihood(CountTable(2), 0.5) == 0.0

    def test_first_observation_is_uniform(self):
        counts = table_from_rows(2, {(): [1, 0]})
        assert log_marginal_likelihood(counts, 0.5) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_sequential_product(self):
        counts = table_from_rows(2, {(): [3, 1]})
        expected = math.log((0.5 * 1.5 * 2.5 * 0.5) / (1 * 2 * 3 * 4))
        got = log_marginal_likelihood(counts, 0.5)
        assert got == pytest.approx(expected, abs=1e-12)
        # same number from the direct Beta-ratio form
        direct = log_beta_multi((3.5, 1.5)) - log_beta_multi((0.5, 0.5))
        assert got == pytest.approx(direct, abs=1e-12)

    def test_mixed_configuration_shapes_rejected(self):
        counts = CountTable(2)
        counts.increment((0,), 1)
        with pytest.raises(ValueError, match="conditioned on 1"):
            counts.increment((0, 1), 0)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 2)), min_size=1, max_size=30
        ),
        st.floats(min_value=0.05, max_value=4.0),
        st.randoms(use_true_random=False),
    )
    def test_exchangeability(self, stream, alpha_x, rng):
        """The sequential predictive product matches the batch value for any order."""
        m_x = 3
        shuffled = list(stream)
        rng.shuffle(shuffled)
        for ordering in (stream, shuffled):
            counts = CountTable(m_x)
            sequential = 0.0
            for cfg_val, value in ordering:
                cfg = (cfg_val,)
                sequential += predictive_log_prob(counts.row(cfg), value, alpha_x, m_x)
                counts.increment(cfg, value)
            batch = log_marginal_likelihood(counts, alpha_x)
            assert sequential == pytest.approx(batch, rel=1e-9, abs=1e-9)


class TestStructurePrior:
    def test_symmetric(self):
        schema = binary_schema("abcx")
        priors = ArcPriorMatrix(default_prior=0.5)
        for parents in [(), (0,), (0, 1, 2)]:
            assert log_structure_prior(3, parents, priors, schema) == pytest.approx(
                3 * math.log(0.5)
            )

    def test_excluding_mandatory_is_impossible(self):
        schema = binary_schema("ax")
        priors = ArcPriorMatrix(entries={(0, 1): 1.0})
        assert log_structure_prior(1, (), priors, schema) == float("-inf")

    def test_including_forbidden_is_impossible(self):
        schema = binary_schema("ax")
        priors = ArcPriorMatrix(entries={(0, 1): 0.0})
        assert log_structure_prior(1, (0,), priors, schema) == float("-inf")

    def test_mixed_priors(self):
        schema = binary_schema("abx")
        priors = ArcPriorMatrix(entries={(0, 2): 0.9, (1, 2): 0.2})
        got = log_structure_prior(2, (0,), priors, schema)
        assert got == pytest.approx(math.log(0.9) + math.log(0.8), abs=1e-12)

    @settings(max_examples=40)
    @given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=6))
    def test_sums_to_one(self, arc_priors):
        k = len(arc_priors)
        schema = binary_schema([f"v{i}" for i in range(k)] + ["x"])
        priors = ArcPriorMatrix(entries={(i, k): p for i, p in enumerate(arc_priors)})
        total = 0.0
        for r in range(k + 1):
            for chosen in itertools.combinations(range(k), r):
                total += math.exp(log_structure_prior(k, chosen, priors, schema))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_sums_to_one_ten_predecessors(self):
        k = 10
        schema = binary_schema([f"v{i}" for i in range(k)] + ["x"])
        rng = np.random.default_rng(3)
        priors = ArcPriorMatrix(
            entries={(i, k): float(p) for i, p in enumerate(rng.uniform(0.05, 0.95, k))}
        )
        total = sum(
            math.exp(log_structure_prior(k, chosen, priors, schema))
            for r in range(k + 1)
            for chosen in itertools.combinations(range(k), r)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


class TestExpectedTheta:
    def test_no_data_is_uniform(self):
        table = expected_theta(CountTable(2), 0.5, 2, (2,))
        assert np.allclose(table, 0.5)
        assert table.shape == (2, 2)

    def test_posterior_mean(self):
        counts = table_from_rows(2, {(): [3, 7]})
        table = expected_theta(counts, 0.5, 2, ())
        assert table[0] == pytest.approx([3.5 / 11, 7.5 / 11])

    def test_shrinkage_never_reaches_certainty(self):
        counts = table_from_rows(2, {(): [1000, 0]})
        table = expected_theta(counts, 0.5, 2, ())
        assert table[0] == pytest.approx([1000.5 / 1001, 0.5 / 1001])
        assert 0.0 < table[0][1] < table[0][0] < 1.0

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(0, 50), min_size=3, max_size=3),
        st.floats(min_value=0.01, max_value=5.0),
    )
    def test_rows_normalized_and_interior(self, row, alpha_x):
        counts = table_from_rows(3, {(0,): row})
        table = expected_theta(counts, alpha_x, 3, (2,))
        assert np.all(table > 0.0) and np.all(table < 1.0)
        assert np.allclose(table.sum(axis=1), 1.0, atol=1e-12)


class TestJointLogLikelihood:
    def test_single_variable(self):
        net = ConcreteNetwork(binary_schema("a"), ((),), (np.array([[0.5, 0.5]]),))
        assert joint_log_likelihood(net, (0,)) == pytest.approx(math.log(0.5))

    def test_independent_product(self):
        tables = (np.array([[0.3, 0.7]]), np.array([[0.3, 0.7]]))
        net = ConcreteNetwork(binary_schema("ab"), ((), ()), tables)
        assert joint_log_likelihood(net, (0, 1)) == pytest.approx(
            math.log(0.3) + math.log(0.7)
        )

    def test_zero_entry_gives_neg_inf(self):
        net = ConcreteNetwork(binary_schema("a"), ((),), (np.array([[1.0, 0.0]]),))
        assert joint_log_likelihood(net, (1,)) == float("-inf")

    def test_seven_variable_topology_matches_enumeration(self):
        # a diamond-ish 7-variable graph with randomly filled CPTs
        schema = binary_schema("abcdefg")
        parents = ((), (), (0,), (0, 1), (2,), (2, 3), (4, 5))
        rng = np.random.default_rng(11)
        tables = []
        for ps in parents:
            raw = rng.uniform(0.1, 0.9, size=(2 ** len(ps), 2))
            tables.append(raw / raw.sum(axis=1, keepdims=True))
        net = ConcreteNetwork(schema, parents, tuple(tables))
        joint = full_joint_enumeration(net)
        for example in [(0,) * 7, (1,) * 7, (0, 1, 0, 1, 0, 1, 0), (1, 0, 1, 1, 0, 0, 1)]:
            assert joint_log_likelihood(net, example) == pytest.approx(
                math.log(joint[example]), rel=1e-12
            )


class TestLogSumExp:
    def test_empty(self):
        assert log_sum_exp([]) == float("-inf")

    def test_matches_direct(self):
        values = [-1000.0, -1001.0, -1002.5]
        direct = math.log(sum(math.exp(v + 1000.0) for v in values)) - 1000.0
        assert log_sum_exp(values) == pytest.approx(direct, rel=1e-12)
