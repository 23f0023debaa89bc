import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnrefine import (
    ArcPriorMatrix,
    ConcreteNetwork,
    CountTable,
    DomainSchema,
    PriorConfig,
    VariableSpec,
)
from bnrefine.domain import config_codes
from bnrefine.kernels import (
    expected_theta,
    log_marginal_likelihood,
    log_marginal_likelihoods,
    log_sum_exp,
    rows_log_likelihood,
)
from bnrefine.oracle import alpha_for, log_structure_prior

from helpers import (
    add_counts,
    binary_schema,
    full_joint_enumeration,
    log_beta_multi,
    predictive_log_prob,
    reference_counts,
    table_rows,
)


def table_from_rows(m_x, arities, rows):
    """A ``CountTable`` holding ``rows``: configuration code -> per-value counts."""
    counts = CountTable(m_x, arities)
    for code, row in rows.items():
        values = np.repeat(np.arange(m_x), row)
        add_counts(counts, np.full(len(values), code), values)
    return counts


class TestCountTable:
    def test_blocks_merge_into_ascending_codes(self):
        counts = CountTable(3, (2, 3))
        add_counts(counts, np.array([4, 1, 4]), np.array([0, 2, 0]))
        add_counts(counts, np.array([0, 4]), np.array([1, 1]))
        assert counts.codes.tolist() == [0, 1, 4]
        assert counts.cells.tolist() == [[0, 1, 0], [0, 0, 1], [2, 1, 0]]
        assert counts.total == 5 and counts.m_x == 3

    @settings(max_examples=60)
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)), max_size=30),
        st.integers(0, 30),
    )
    def test_any_split_counts_like_one_example_at_a_time(self, pairs, cut):
        whole, split = CountTable(3, (6,)), CountTable(3, (6,))
        codes = np.array([c for c, _ in pairs], dtype=np.int64)
        values = np.array([v for _, v in pairs], dtype=np.int64)
        add_counts(whole, codes, values)
        add_counts(split, codes[:cut], values[:cut])
        add_counts(split, codes[cut:], values[cut:])
        reference = {}
        for code, value in pairs:
            reference.setdefault(code, [0, 0, 0])[value] += 1
        assert whole == split
        assert dict(zip(whole.codes.tolist(), whole.cells.tolist())) == reference

    # parent arities with m_x = 2 or 3: the root and small sets are always
    # counted densely; 2^9, 2^10 and 4^5 cross from sorting to dense counting
    # within the drawn block sizes, and 3^7 always sorts
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(), (3,), (2, 3), (2,) * 9, (2,) * 10, (4,) * 5, (3,) * 7]),
        st.integers(2, 3),
        st.lists(st.integers(0, 700), min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    @example((), 2, [0, 5, 0], 0)  # the no-parent root, empty blocks first and last
    @example((2,) * 10, 2, [600, 100, 0], 1)  # dense, then sorting, then empty
    @example((2,) * 10, 2, [100, 600], 2)  # sorting, then dense over sorted rows
    def test_successive_blocks_match_the_reference(self, arities, m_x, sizes, seed):
        schema = DomainSchema(
            tuple(VariableSpec(f"v{i}", tuple(map(str, range(a)))) for i, a in enumerate(arities))
            + (VariableSpec("x", tuple(map(str, range(m_x)))),)
        )
        parents, x = tuple(range(len(arities))), len(arities)
        rng = np.random.default_rng(seed)
        table = CountTable(m_x, arities)
        seen = np.empty((0, x + 1), dtype=np.int64)
        for size in sizes:
            # each parent's values capped at random, so a block can miss
            # configurations that earlier blocks saw
            caps = [int(rng.integers(1, a + 1)) for a in arities] + [m_x]
            block = np.stack([rng.integers(0, cap, size) for cap in caps], axis=1)
            add_counts(table, config_codes(block, parents, schema), block[:, x])
            seen = np.concatenate((seen, block))
            assert table_rows(table) == reference_counts(seen, x, parents, m_x)
            assert table.codes.dtype == np.int64 and table.cells.dtype == np.int64
            assert np.all(np.diff(table.codes) > 0)
            assert table.cells.shape == (len(table.codes), m_x)
            assert table.cells.any(axis=1).all()


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
        assert log_marginal_likelihood(np.empty((0, 2), dtype=np.int64), 0.5) == 0.0

    def test_first_observation_is_uniform(self):
        got = log_marginal_likelihood(np.array([[1, 0]]), 0.5)
        assert got == pytest.approx(math.log(0.5), abs=1e-12)

    def test_sequential_product(self):
        expected = math.log((0.5 * 1.5 * 2.5 * 0.5) / (1 * 2 * 3 * 4))
        got = log_marginal_likelihood(np.array([[3, 1]]), 0.5)
        assert got == pytest.approx(expected, abs=1e-12)
        # same number from the direct Beta-ratio form
        direct = log_beta_multi((3.5, 1.5)) - log_beta_multi((0.5, 0.5))
        assert got == pytest.approx(direct, abs=1e-12)

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
            rows = {}
            sequential = 0.0
            for cfg, value in ordering:
                row = rows.setdefault(cfg, np.zeros(m_x, dtype=np.int64))
                sequential += predictive_log_prob(row, value, alpha_x, m_x)
                row[value] += 1
            batch = log_marginal_likelihood(np.array(list(rows.values())), alpha_x)
            assert sequential == pytest.approx(batch, rel=1e-9, abs=1e-9)


    @settings(max_examples=100)
    @given(
        st.integers(2, 4),
        st.lists(
            st.tuples(st.integers(0, 6), st.floats(min_value=0.01, max_value=50.0)),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 2**16),
    )
    def test_grouped_tables_score_as_each_table_alone(self, m_x, groups, seed):
        # several tables scored in one call, each group's rows shuffled, give
        # each table's own score bit for bit; an empty group scores 0.0
        rng = np.random.default_rng(seed)
        tables = [rng.integers(0, 5, size=(size, m_x)) for size, _ in groups]
        shuffled = np.concatenate([rng.permutation(t) for t in tables]).reshape(-1, m_x)
        alphas = [alpha for _, alpha in groups]
        got = log_marginal_likelihoods(shuffled, [len(t) for t in tables], alphas)
        assert len(got) == len(groups)
        for score, table, alpha in zip(got, tables, alphas):
            assert score.hex() == log_marginal_likelihood(table, alpha).hex()
            if not len(table):
                assert score == 0.0

    def test_grouped_tables_reject_a_nonpositive_concentration(self):
        with pytest.raises(ValueError):
            log_marginal_likelihoods(np.ones((2, 2), dtype=np.int64), [1, 1], [0.5, 0.0])


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
        table = expected_theta(CountTable(2, (2,)), 0.5)
        assert np.allclose(table, 0.5)
        assert table.shape == (2, 2)

    def test_posterior_mean(self):
        table = expected_theta(table_from_rows(2, (), {0: [3, 7]}), 0.5)
        assert table[0] == pytest.approx([3.5 / 11, 7.5 / 11])

    def test_rows_land_at_their_codes(self):
        table = expected_theta(table_from_rows(2, (2, 3), {4: [3, 1]}), 0.5)
        assert table.shape == (6, 2)
        assert table[4] == pytest.approx([3.5 / 5, 1.5 / 5])
        assert np.all(np.delete(table, 4, axis=0) == 0.5)

    def test_shrinkage_never_reaches_certainty(self):
        table = expected_theta(table_from_rows(2, (), {0: [1000, 0]}), 0.5)
        assert table[0] == pytest.approx([1000.5 / 1001, 0.5 / 1001])
        assert 0.0 < table[0][1] < table[0][0] < 1.0

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(0, 50), min_size=3, max_size=3),
        st.floats(min_value=0.01, max_value=5.0),
    )
    def test_rows_normalized_and_interior(self, row, alpha_x):
        table = expected_theta(table_from_rows(3, (2,), {0: row}), alpha_x)
        assert np.all(table > 0.0) and np.all(table < 1.0)
        assert np.allclose(table.sum(axis=1), 1.0, atol=1e-12)


class TestJointLogLikelihood:
    def test_single_variable(self):
        net = ConcreteNetwork(binary_schema("a"), ((),), (np.array([[0.5, 0.5]]),))
        assert rows_log_likelihood(net, net.schema.encode_rows([(0,)])) == pytest.approx(math.log(0.5))

    def test_independent_product(self):
        tables = (np.array([[0.3, 0.7]]), np.array([[0.3, 0.7]]))
        net = ConcreteNetwork(binary_schema("ab"), ((), ()), tables)
        assert rows_log_likelihood(net, net.schema.encode_rows([(0, 1)])) == pytest.approx(
            math.log(0.3) + math.log(0.7)
        )

    def test_zero_entry_gives_neg_inf(self):
        net = ConcreteNetwork(binary_schema("a"), ((),), (np.array([[1.0, 0.0]]),))
        assert rows_log_likelihood(net, net.schema.encode_rows([(1,)])) == float("-inf")

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
            assert rows_log_likelihood(net, schema.encode_rows([example])) == pytest.approx(
                math.log(joint[example]), rel=1e-12
            )


class TestLogSumExp:
    def test_empty(self):
        assert log_sum_exp([]) == float("-inf")

    def test_matches_direct(self):
        values = [-1000.0, -1001.0, -1002.5]
        direct = math.log(sum(math.exp(v + 1000.0) for v in values)) - 1000.0
        assert log_sum_exp(values) == pytest.approx(direct, rel=1e-12)
