import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnrefine import PriorConfig, SearchParams, observe_batch, refine
from bnrefine.localmodels import (
    FitConvergenceError,
    LaplaceError,
    LogisticParams,
    MapFit,
    NoisyOrParams,
    UnsupportedModelError,
    _blocks,
    _kernel,
    boolean_counts,
    boolean_node_data,
    exact_table_log_marginal,
    fit_map,
    laplace_log_marginal,
    log_det_neg_hessian,
    logistic_loglik,
    logistic_loglik_grad,
    noisyor_loglik,
    noisyor_loglik_grad,
    score_node_with_model,
)
from bnrefine.oracle import quadrature_marginal_1d
from bnrefine.sampling import forward_sample

from helpers import fresh_net


def sample_noisyor(q, n_rows, seed):
    """Draw boolean (child, parent) data from a noisy-or gate."""
    rng = np.random.default_rng(seed)
    q = np.asarray(q)
    rows = rng.random((n_rows, len(q) - 1)) < 0.5
    p_false = q[0] * np.prod(np.where(rows, q[1:], 1.0), axis=1)
    x = rng.random(n_rows) >= p_false
    return x, rows


def random_points(seed, n_points, n_parents):
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        q = rng.uniform(0.05, 0.95, n_parents + 1)
        tau = rng.uniform(-2.0, 2.0, n_parents + 1)
        x = rng.random(8) < 0.5
        rows = rng.random((8, n_parents)) < 0.5
        yield q, tau, x, rows


class TestNoisyOrLoglik:
    def test_leak_only(self):
        params = NoisyOrParams((0.3,))
        assert noisyor_loglik(params, boolean_counts([False], np.empty((1, 0)))) == pytest.approx(
            math.log(0.3)
        )

    def test_all_parents_false_is_bernoulli(self):
        params = NoisyOrParams((0.3, 0.1, 0.9))
        rows = np.zeros((4, 2), dtype=bool)
        x = np.array([False, True, False, True])
        expected = 2 * math.log(0.3) + 2 * math.log(0.7)
        assert noisyor_loglik(params, boolean_counts(x, rows)) == pytest.approx(expected)

    def test_matches_row_by_row_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            q = rng.uniform(0.05, 0.95, 4)
            x = rng.random(10) < 0.5
            rows = rng.random((10, 3)) < 0.5
            direct = 0.0
            for xi, row in zip(x, rows):
                p_false = q[0] * np.prod(q[1:][row])
                direct += math.log(1 - p_false) if xi else math.log(p_false)
            got = noisyor_loglik(NoisyOrParams(tuple(q)), boolean_counts(x, rows))
            assert got == pytest.approx(direct, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NoisyOrParams((0.5, 1.0))
        with pytest.raises(ValueError):
            NoisyOrParams((0.0,))


class TestLogisticLoglik:
    def test_zero_params_give_half(self):
        params = LogisticParams((0.0, 0.0))
        x = np.array([True, False, True])
        rows = np.array([[True], [False], [False]])
        assert logistic_loglik(params, boolean_counts(x, rows)) == pytest.approx(3 * math.log(0.5))

    def test_large_negative_intercept_makes_true_certain(self):
        params = LogisticParams((-30.0,))
        x = np.array([True] * 5)
        counts = boolean_counts(x, np.empty((5, 0)))
        assert logistic_loglik(params, counts) == pytest.approx(0.0, abs=1e-10)

    def test_small_product_regime_matches_noisyor(self):
        # with the false-probability product below 1e-3, both forms agree
        q = np.array([1e-4, 0.3, 0.6, 0.8])
        tau = np.log(q)
        rng = np.random.default_rng(32)
        x = rng.random(10) < 0.5
        rows = rng.random((10, 3)) < 0.5
        a = noisyor_loglik(NoisyOrParams(tuple(q)), boolean_counts(x, rows))
        b = logistic_loglik(LogisticParams(tuple(tau)), boolean_counts(x, rows))
        assert abs(a - b) < 1e-2


class TestGradients:
    def test_noisyor_matches_finite_differences(self):
        step = 1e-5
        for q, _, x, rows in random_points(33, 25, 3):
            grad = noisyor_loglik_grad(NoisyOrParams(tuple(q)), boolean_counts(x, rows))
            for i in range(len(q)):
                hi, lo = q.copy(), q.copy()
                hi[i] += step
                lo[i] -= step
                fd = (
                    noisyor_loglik(NoisyOrParams(tuple(hi)), boolean_counts(x, rows))
                    - noisyor_loglik(NoisyOrParams(tuple(lo)), boolean_counts(x, rows))
                ) / (2 * step)
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_logistic_matches_finite_differences(self):
        step = 1e-5
        for _, tau, x, rows in random_points(34, 25, 3):
            grad = logistic_loglik_grad(LogisticParams(tuple(tau)), boolean_counts(x, rows))
            for i in range(len(tau)):
                hi, lo = tau.copy(), tau.copy()
                hi[i] += step
                lo[i] -= step
                fd = (
                    logistic_loglik(LogisticParams(tuple(hi)), boolean_counts(x, rows))
                    - logistic_loglik(LogisticParams(tuple(lo)), boolean_counts(x, rows))
                ) / (2 * step)
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(35)
        q = rng.uniform(0.1, 0.9, 4)
        tau = rng.uniform(-1.5, 1.5, 4)
        x = rng.random(12) < 0.5
        rows = rng.random((12, 3)) < 0.5
        perm = [2, 0, 1]
        a = noisyor_loglik(NoisyOrParams(tuple(q)), boolean_counts(x, rows))
        b = noisyor_loglik(
            NoisyOrParams((q[0], *q[1:][perm])), boolean_counts(x, rows[:, perm])
        )
        assert a == pytest.approx(b, rel=1e-12)
        a = logistic_loglik(LogisticParams(tuple(tau)), boolean_counts(x, rows))
        b = logistic_loglik(
            LogisticParams((tau[0], *tau[1:][perm])), boolean_counts(x, rows[:, perm])
        )
        assert a == pytest.approx(b, rel=1e-12)


@st.composite
def boolean_blocks(draw, u_bound):
    """Boolean (child, parent rows) data and an unconstrained parameter vector."""
    n_parents = draw(st.integers(0, 3))
    n_rows = draw(st.integers(1, 40))
    size = n_rows * (n_parents + 1)
    bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    block = np.array(bits, dtype=bool).reshape(n_rows, n_parents + 1)
    u = draw(st.lists(st.floats(-u_bound, u_bound), min_size=n_parents + 1, max_size=n_parents + 1))
    return block[:, 0], block[:, 1:], np.array(u)


def per_row_loglik(kind, u, x, rows):
    """The log likelihood summed one row at a time, in natural parameters."""
    total = 0.0
    for xi, row in zip(x, rows):
        active = [0] + [i + 1 for i, bit in enumerate(row) if bit]
        if kind == "logistic":
            t = sum(u[i] for i in active)  # log odds of false
            total += -math.log1p(math.exp(t)) if xi else -math.log1p(math.exp(-t))
        else:
            p_false = math.prod(1.0 / (1.0 + math.exp(-u[i])) for i in active)
            total += math.log(1.0 - p_false) if xi else math.log(p_false)
    return total


def central_differences(fn, u, h=1e-5):
    """Columns d fn / d u_j by central differences: the reference for the analytic derivatives."""
    columns = []
    for j in range(len(u)):
        shift = np.zeros(len(u))
        shift[j] = h
        columns.append((np.asarray(fn(u + shift)) - np.asarray(fn(u - shift))) / (2.0 * h))
    return np.stack(columns, axis=-1)


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(boolean_blocks(u_bound=5.0), st.sampled_from(["noisy-or", "logistic"]))
    def test_loglik_matches_per_row_sum(self, data, kind):
        x, rows, u = data
        ll, _, _ = _kernel(kind, u, *_blocks(boolean_counts(x, rows)))
        assert ll == pytest.approx(per_row_loglik(kind, u, x, rows), rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(boolean_blocks(u_bound=30.0), st.sampled_from(["noisy-or", "logistic"]))
    def test_derivatives_match_central_differences(self, data, kind):
        x, rows, u = data
        blocks = _blocks(boolean_counts(x, rows))
        _, grad, hess = _kernel(kind, u, *blocks)
        fd_grad = central_differences(lambda v: _kernel(kind, v, *blocks)[0], u)
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-6)
        fd_hess = central_differences(lambda v: _kernel(kind, v, *blocks)[1], u)
        np.testing.assert_allclose(hess, (fd_hess + fd_hess.T) / 2.0, rtol=1e-6, atol=1e-6)

    def test_noisyor_hessian_is_stable_near_the_bounds(self):
        # q -> 1 makes w = 1/expm1(-s) huge and w (1 + w) overflow;
        # q -> 0 makes expm1(-s) overflow
        x, rows = sample_noisyor((0.7, 0.4, 0.6), 200, seed=50)
        blocks = _blocks(boolean_counts(x, rows))
        for u in ([700.0, 400.0, -3.0], [-700.0, 2.0, 400.0], [400.0, -400.0, 700.0]):
            u = np.array(u)
            _, _, hess = _kernel("noisy-or", u, *blocks)
            fd_hess = central_differences(lambda v: _kernel("noisy-or", v, *blocks)[1], u)
            assert np.all(np.isfinite(hess))
            np.testing.assert_allclose(hess, (fd_hess + fd_hess.T) / 2.0, rtol=1e-6, atol=1e-6)


class TestFitMap:
    def test_recovers_noisyor_parameters(self):
        q_true = (0.85, 0.3, 0.5, 0.6)
        x, rows = sample_noisyor(q_true, 10_000, seed=36)
        fit = fit_map("noisy-or", boolean_counts(x, rows))
        assert fit.gradient_norm < 1e-8
        for got, want in zip(fit.params.q, q_true):
            assert abs(got - want) < 0.05

    def test_warm_start_at_optimum_converges_immediately(self):
        x, rows = sample_noisyor((0.7, 0.4), 500, seed=37)
        fit = fit_map("noisy-or", boolean_counts(x, rows))
        again = fit_map("noisy-or", boolean_counts(x, rows), warm_start=fit.params)
        assert again.iterations <= 2
        assert again.log_posterior == pytest.approx(fit.log_posterior, abs=1e-9)

    def test_separable_data_converges_under_the_prior(self):
        # child exactly equals its single parent: unregularized MLE diverges
        rows = np.array([[True]] * 20 + [[False]] * 20)
        x = np.array([True] * 20 + [False] * 20)
        fit = fit_map("logistic", boolean_counts(x, rows))
        assert fit.gradient_norm < 1e-8
        assert all(abs(t) < 100 for t in fit.params.tau)

    def test_objective_trace_is_nondecreasing(self):
        x, rows = sample_noisyor((0.6, 0.2, 0.8), 300, seed=38)
        for kind in ("noisy-or", "logistic"):
            fit = fit_map(kind, boolean_counts(x, rows))
            trace = fit.trace
            assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_iteration_cap_reports_error_with_best(self):
        x, rows = sample_noisyor((0.6, 0.3), 200, seed=39)
        with pytest.raises(FitConvergenceError) as err:
            fit_map("noisy-or", boolean_counts(x, rows), max_iter=1, tol=1e-14)
        assert isinstance(err.value.best, MapFit)

    def test_requires_data(self):
        with pytest.raises(ValueError):
            fit_map("logistic", boolean_counts([], np.empty((0, 1))))


class TestLaplace:
    def test_one_parameter_model_matches_quadrature(self):
        rng = np.random.default_rng(40)
        x = rng.random(100) < 0.37
        rows = np.empty((100, 0))
        marginal = laplace_log_marginal("noisy-or", boolean_counts(x, rows))
        n_true = int(x.sum())
        n_false = 100 - n_true
        scale = 10.0

        def loglik(u):
            log_q = -math.log1p(math.exp(-u)) if u > -30 else u
            return n_false * log_q + n_true * math.log(-math.expm1(log_q))

        def log_prior(u):
            return -0.5 * (u / scale) ** 2 - math.log(scale * math.sqrt(2 * math.pi))

        exact = quadrature_marginal_1d(loglik, log_prior, np.linspace(-60, 60, 24001))
        assert abs(marginal - exact) < 0.5

    def test_table_laplace_close_to_exact_dirichlet(self):
        rng = np.random.default_rng(41)
        rows = (rng.random((500, 1)) < 0.5)
        x = np.where(rows[:, 0], rng.random(500) < 0.8, rng.random(500) < 0.2)
        exact = exact_table_log_marginal(boolean_counts(x, rows))
        approx = laplace_log_marginal("table", boolean_counts(x, rows))
        assert abs(exact - approx) < 1.0

    def test_doubling_data_grows_penalty_by_half_d_log_two(self):
        x, rows = sample_noisyor((0.7, 0.3, 0.5), 400, seed=42)
        x2, rows2 = np.concatenate([x, x]), np.concatenate([rows, rows])
        d = rows.shape[1] + 1
        penalties = []
        for xs, rs in ((x, rows), (x2, rows2)):
            counts = boolean_counts(xs, rs)
            fit = fit_map("noisy-or", counts)
            marginal = laplace_log_marginal("noisy-or", counts, warm_start=fit.params)
            penalties.append(fit.log_posterior + 0.5 * d * math.log(2 * math.pi) - marginal)
        assert penalties[1] - penalties[0] == pytest.approx(0.5 * d * math.log(2), abs=0.2)

    def test_degenerate_curvature_is_an_error(self):
        with pytest.raises(LaplaceError):
            log_det_neg_hessian(np.zeros((2, 2)))

    def test_marginal_stays_below_zero_on_toy_data(self):
        # proper prior + likelihood <= 1 means the marginal cannot exceed 1
        x, rows = sample_noisyor((0.6, 0.4), 50, seed=43)
        for kind in ("noisy-or", "logistic"):
            assert laplace_log_marginal(kind, boolean_counts(x, rows)) < 0.0


class TestScoreNodeWithModel:
    def _noisyor_net(self, n, seed):
        q_true = (0.9, 0.25, 0.4, 0.55)
        x, rows = sample_noisyor(q_true, n, seed=seed)
        net = fresh_net("abcx")
        observe_batch(
            net,
            [tuple(int(v) for v in row) + (int(xi),) for row, xi in zip(rows, x)],
        )
        refine(net, SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12))
        return net

    def test_table_kind_is_the_exact_score(self):
        net = self._noisyor_net(200, seed=44)
        lattice = net.lattices[3]
        node = lattice.nodes[0b111]
        score = score_node_with_model(net, 3, node, "table")
        assert score.log_marginal == node.log_ml

    def test_noisyor_beats_table_on_noisyor_data(self):
        net = self._noisyor_net(500, seed=45)
        node = net.lattices[3].nodes[0b111]  # all three parents
        table = score_node_with_model(net, 3, node, "table").log_marginal
        noisy = score_node_with_model(net, 3, node, "noisy-or").log_marginal
        assert noisy > table
        assert node.model_ml["noisy-or"] == noisy
        assert node.model_synced["noisy-or"] == net.n_total

    def test_parentless_node_kinds_agree_with_matched_priors(self):
        # scale 2.5 puts roughly the same prior density near the MAP as the
        # symmetric Dirichlet, making the three marginals comparable
        net = self._noisyor_net(300, seed=46)
        node = net.lattices[3].nodes[0]
        exact = score_node_with_model(net, 3, node, "table").log_marginal
        counts = boolean_node_data(net, 3, node)
        for kind in ("noisy-or", "logistic"):
            approx = laplace_log_marginal(kind, counts, prior_scale=2.5)
            assert abs(approx - exact) < 1.0

    def test_boolean_node_data_reads_the_log_columns(self):
        net = self._noisyor_net(50, seed=43)
        observe_batch(net, net.example_log[:10])  # asleep nodes now lag the log
        log = net.example_log
        for node in net.lattices[3].nodes.values():
            counts = boolean_node_data(net, 3, node)
            assert counts is node.counts and node.synced_through == net.n_total
            assert counts == boolean_counts(log[:, 3] == 1, log[:, list(node.parents)] == 1)
        assert boolean_node_data(net, 3, net.lattices[3].root).rows.keys() == {()}

    def test_non_boolean_variable_is_rejected(self):
        from bnrefine import ArcPriorMatrix, DomainSchema, VariableSpec, init

        schema = DomainSchema(
            (VariableSpec("a", ("x", "y", "z")), VariableSpec("b", ("f", "t")))
        )
        net = init(schema, ArcPriorMatrix(), PriorConfig())
        observe_batch(net, [(0, 1), (2, 0), (1, 1)])
        with pytest.raises(UnsupportedModelError):
            score_node_with_model(net, 0, net.lattices[0].root, "noisy-or")
        refine(net, SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12))
        parent_node = net.lattices[1].nodes[0b1]  # boolean child, ternary parent
        with pytest.raises(UnsupportedModelError):
            score_node_with_model(net, 1, parent_node, "logistic")


class TestModelDrivenSearch:
    def _noisyor_examples(self, n, seed):
        q_true = (0.9, 0.3, 0.5)
        x, rows = sample_noisyor(q_true, n, seed=seed)
        return [tuple(int(v) for v in row) + (int(xi),) for row, xi in zip(rows, x)]

    def test_refine_and_query_read_the_model_slot(self):
        net = fresh_net("abx")
        net.scoring_model = "noisy-or"
        observe_batch(net, self._noisyor_examples(400, seed=47))
        report = refine(net, SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12))
        assert report.exhausted
        from bnrefine import NodeStatus, all_arc_posteriors

        lattice = net.lattices[2]
        assert set(lattice.nodes) == {0, 0b01, 0b10, 0b11}
        for node in lattice.nodes.values():
            if node.status is not NodeStatus.DEAD:
                assert node.model_synced.get("noisy-or") == net.n_total
        matrix = all_arc_posteriors(net)
        assert matrix.entries[(0, 2)] > 0.5 and matrix.entries[(1, 2)] > 0.5

    @pytest.mark.parametrize("model", ["noisy-or", "logistic"])
    def test_reported_best_score_uses_the_active_model(self, model):
        from bnrefine import NodeStatus

        net = fresh_net("abx")
        net.scoring_model = model
        observe_batch(net, self._noisyor_examples(400, seed=47))
        report = refine(net, SearchParams())
        for lattice in net.lattices:
            alive = [n for n in lattice.nodes.values() if n.status is NodeStatus.ALIVE]
            best = max(n.log_prior + n.model_ml[model] for n in alive)
            assert report.best_scores[net.schema.name(lattice.x)] == best
        table_best = max(n.log_score for n in net.lattices[2].alive_nodes())
        assert report.best_scores["x"] != table_best

    def test_zero_budget_refits_nothing(self):
        from helpers import node_state

        def fits(net):
            return {
                (lat.x, n.key): (dict(n.model_ml), dict(n.model_synced))
                for lat in net.lattices
                for n in lat.nodes.values()
            }

        net = fresh_net("abx")
        net.scoring_model = "noisy-or"
        observe_batch(net, self._noisyor_examples(200, seed=47))
        searched = refine(net, SearchParams())
        observe_batch(net, self._noisyor_examples(200, seed=49))  # every fit is now stale
        state, fitted = node_state(net), fits(net)
        report = refine(net, SearchParams(budget=0))
        assert report.expansions == 0 and not report.exhausted
        assert node_state(net) == state and fits(net) == fitted
        assert report.best_scores == searched.best_scores  # the cached, stale scores

    def test_budget_spent_early_leaves_later_lattices_unfitted(self):
        net = fresh_net("abx")
        net.scoring_model = "noisy-or"
        observe_batch(net, self._noisyor_examples(200, seed=47))
        report = refine(net, SearchParams(budget=1))  # spent on a's root
        assert report.expansions == 1 and not report.exhausted
        assert net.lattices[0].root.model_synced == {"noisy-or": net.n_total}
        assert net.lattices[2].root.model_synced == {}
        assert report.best_scores["x"] == float("-inf")  # never scored under the model

    def test_model_choice_changes_the_ranking_inputs(self):
        examples = self._noisyor_examples(400, seed=48)
        with_table = fresh_net("abx")
        observe_batch(with_table, examples)
        refine(with_table, SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12))
        with_model = fresh_net("abx")
        with_model.scoring_model = "noisy-or"
        observe_batch(with_model, examples)
        refine(with_model, SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12))
        node = with_model.lattices[2].nodes[0b11]
        twin = with_table.lattices[2].nodes[0b11]
        assert node.model_ml["noisy-or"] != twin.log_ml
        assert twin.model_ml == {}

    def _stream_demo(self, model, seed):
        """The benchmark's restricted session: 600 rows in batches of 200."""
        from bnrefine import ArcPriorMatrix, init

        from helpers import chain_v_truth

        truth = chain_v_truth()
        priors = ArcPriorMatrix(entries={(0, 1): 1.0, (0, 5): 0.0}, default_prior=0.5)
        net = init(truth.schema, priors, PriorConfig(alpha=1.0))
        net.scoring_model = model
        data = forward_sample(truth, 600, seed=seed)
        for start in range(0, len(data), 200):
            observe_batch(net, data[start : start + 200])
            refine(net, SearchParams())
        return net

    def test_stalled_warm_start_is_refitted_from_cold(self):
        # the benchmark's restricted noisy-or session (seed 1, session 1):
        # on the third batch a warm start near q = 0.99 used to stall at
        # the 500-iteration cap where a cold start converges
        net = self._stream_demo("noisy-or", seed=7920)
        for lattice in net.lattices:
            assert lattice.alive_nodes()

    def test_converged_fit_is_accepted(self):
        # the benchmark's restricted logistic session (seed 9, session 5):
        # Newton converged in 5 steps, then the line search took ulp-sized
        # steps that left the objective unchanged until the iteration cap
        net = self._stream_demo("logistic", seed=39604)
        for lattice in net.lattices:
            assert lattice.alive_nodes()

    def test_model_scored_search_is_reproducible(self):
        from bnrefine.fileio import serialize_session

        sessions = []
        for _ in range(2):
            net = fresh_net("abx")
            net.scoring_model = "logistic"
            observe_batch(net, self._noisyor_examples(200, seed=49))
            refine(net, SearchParams())
            sessions.append(serialize_session(net))
        assert sessions[0] == sessions[1]
