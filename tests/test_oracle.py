import math

import numpy as np
import pytest

from bnrefine import ArcPriorMatrix, ConcreteNetwork, PriorConfig
from bnrefine.oracle import OracleSizeError, exhaustive_posterior

from bnrefine.sampling import forward_sample

from helpers import (
    binary_schema,
    chain_v_truth,
    exhaustive_arc_posterior,
    five_var_truth,
    full_joint_enumeration,
    log_beta_multi,
    quadrature_marginal_1d,
)


class TestExhaustivePosterior:
    def test_no_candidates(self):
        schema = binary_schema("x")
        exact = exhaustive_posterior(0, [], ArcPriorMatrix(), PriorConfig(), schema)
        assert exact.posterior == {frozenset(): 1.0}

    def test_no_data_posterior_equals_prior(self):
        schema = binary_schema("abx")
        exact = exhaustive_posterior(2, [], ArcPriorMatrix(), PriorConfig(), schema)
        assert len(exact.posterior) == 4
        for p in exact.posterior.values():
            assert p == pytest.approx(0.25, abs=1e-12)

    def test_masses_sum_to_one(self):
        schema = binary_schema("abcx")
        data = [(0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)]
        exact = exhaustive_posterior(3, data, ArcPriorMatrix(), PriorConfig(), schema)
        assert sum(exact.posterior.values()) == pytest.approx(1.0, abs=1e-12)

    def test_mandatory_parent_in_every_set(self):
        schema = binary_schema("abx")
        priors = ArcPriorMatrix(entries={(0, 2): 1.0})
        exact = exhaustive_posterior(2, [], priors, PriorConfig(), schema)
        assert all(0 in s for s in exact.posterior)

    def test_candidate_guard(self):
        schema = binary_schema([f"v{i}" for i in range(17)] + ["x"])
        with pytest.raises(OracleSizeError):
            exhaustive_posterior(17, [], ArcPriorMatrix(), PriorConfig(), schema)


class TestExhaustiveArcPosterior:
    def test_uniform_no_data(self):
        schema = binary_schema("abx")
        for y in (0, 1):
            p = exhaustive_arc_posterior(y, 2, [], ArcPriorMatrix(), PriorConfig(), schema)
            assert p == pytest.approx(0.5, abs=1e-12)

    def test_mandatory_is_one(self):
        schema = binary_schema("ax")
        priors = ArcPriorMatrix(entries={(0, 1): 1.0})
        assert exhaustive_arc_posterior(0, 1, [], priors, PriorConfig(), schema) == 1.0

    def test_ordering_enforced(self):
        schema = binary_schema("ab")
        with pytest.raises(ValueError):
            exhaustive_arc_posterior(1, 0, [], ArcPriorMatrix(), PriorConfig(), schema)

    @pytest.mark.parametrize("truth", [five_var_truth, chain_v_truth])
    def test_never_exceeds_one(self, truth):
        # summed with plain sum, 18 of these arcs read above 1 by up to 1.4e-14
        network = truth()
        schema = network.schema
        for seed in range(15):
            data = forward_sample(network, 300, seed)
            for x in range(1, len(schema)):
                exact = exhaustive_posterior(x, data, ArcPriorMatrix(), PriorConfig(), schema)
                for y in range(x):
                    assert 0.0 <= exact.arc_mass(y) <= 1.0


class TestFullJoint:
    def test_single_variable(self):
        net = ConcreteNetwork(binary_schema("a"), ((),), (np.array([[0.25, 0.75]]),))
        joint = full_joint_enumeration(net)
        assert joint == {(0,): 0.25, (1,): 0.75}

    def test_independent_outer_product(self):
        tables = (np.array([[0.2, 0.8]]), np.array([[0.6, 0.4]]))
        net = ConcreteNetwork(binary_schema("ab"), ((), ()), tables)
        joint = full_joint_enumeration(net)
        assert joint[(0, 1)] == pytest.approx(0.2 * 0.4)
        assert joint[(1, 0)] == pytest.approx(0.8 * 0.6)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        parents = ((), (0,), (0, 1))
        tables = []
        for ps in parents:
            raw = rng.uniform(0.05, 0.95, size=(2 ** len(ps), 2))
            tables.append(raw / raw.sum(axis=1, keepdims=True))
        net = ConcreteNetwork(binary_schema("abc"), parents, tuple(tables))
        assert sum(full_joint_enumeration(net).values()) == pytest.approx(1.0, abs=1e-9)


class TestQuadrature:
    def test_constant_likelihood_proper_prior(self):
        # standard normal prior over a wide grid integrates to 1
        grid = np.linspace(-12, 12, 4001)
        log_prior = lambda t: -0.5 * t * t - 0.5 * math.log(2 * math.pi)
        assert quadrature_marginal_1d(lambda t: 0.0, log_prior, grid) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_bernoulli_conjugate_closed_form(self):
        k, n = 7, 20
        grid = np.linspace(1e-9, 1 - 1e-9, 20001)
        loglik = lambda t: k * math.log(t) + (n - k) * math.log(1 - t)
        marginal = quadrature_marginal_1d(loglik, lambda t: 0.0, grid)  # uniform prior
        closed_form = log_beta_multi((k + 1.0, n - k + 1.0))
        assert marginal == pytest.approx(closed_form, abs=1e-6)

    def test_grid_doubling_converged(self):
        k, n = 3, 10
        loglik = lambda t: k * math.log(t) + (n - k) * math.log(1 - t)
        coarse = quadrature_marginal_1d(loglik, lambda t: 0.0, np.linspace(1e-9, 1 - 1e-9, 20001))
        fine = quadrature_marginal_1d(loglik, lambda t: 0.0, np.linspace(1e-9, 1 - 1e-9, 40001))
        assert abs(fine - coarse) < 1e-6

    def test_joint_guard(self):
        schema = binary_schema([f"v{i}" for i in range(21)])
        parents = tuple(() for _ in range(21))
        tables = tuple(np.array([[0.5, 0.5]]) for _ in range(21))
        with pytest.raises(OracleSizeError):
            full_joint_enumeration(ConcreteNetwork(schema, parents, tables))
