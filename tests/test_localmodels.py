import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnrefine import NodeStatus, PriorConfig, SearchParams, localmodels, observe_batch, refine
from bnrefine.domain import CountTable
from bnrefine.engine import SCORING_MODELS, family_log_ml
from bnrefine.kernels import log_marginal_likelihood
from bnrefine.localmodels import (
    FitConvergenceError,
    LaplaceError,
    LogisticParams,
    MapFit,
    NoisyOrParams,
    UnsupportedModelError,
    _ascend,
    _blocks,
    _cholesky,
    _kernel,
    _laplace,
    _log_det,
    _log_posterior,
    _solve,
    boolean_node_data,
    fit_map,
    laplace_log_marginal,
    score_node_with_model,
)
from bnrefine.sampling import forward_sample

from helpers import (
    FLAT_PRIOR,
    boolean_counts,
    fresh_net,
    logistic_loglik,
    logistic_loglik_grad,
    noisyor_loglik,
    noisyor_loglik_grad,
    quadrature_marginal_1d,
    reference_blocks,
    reference_kernel,
    symmetric,
    table_laplace_log_marginal,
    table_log_ml,
    to_u,
)


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


# the 3-batch demo session (``_stream_demo``, seed 3) under each restricted model:
# the fits, their Newton iterations and kernel evaluations; every stored set's
# marginal by (child, parent-set key) and each batch's best score per variable
# (u to z), as ``float.hex``, so that a change in rounding shows
DEMO_SESSION_WORK = {
    "noisy-or": (96, 424, 545),
    "logistic": (82, 217, 299),
}
DEMO_SESSION_SCORES = {
    "noisy-or": {
        (0, 0): "-0x1.66915bbeb2958p+8",
        (1, 0): "-0x1.389a9300dd6cdp+8",
        (2, 2): "-0x1.019246499f92cp+8",
        (2, 3): "-0x1.034a20060e9d0p+8",
        (3, 4): "-0x1.5f0e0510475f3p+8",
        (3, 5): "-0x1.60362072b5c21p+8",
        (3, 6): "-0x1.603389a8cc84ep+8",
        (3, 7): "-0x1.614b760489c6cp+8",
        (4, 0): "-0x1.8b0ed9b9b4eb1p+8",
        (4, 1): "-0x1.8cc51fac019e4p+8",
        (4, 2): "-0x1.8c2415d7f16eep+8",
        (4, 3): "-0x1.8dd3d8478fc03p+8",
        (4, 4): "-0x1.8c27121efd9a4p+8",
        (4, 5): "-0x1.8dd0c500074c6p+8",
        (4, 6): "-0x1.8d2d906a5b766p+8",
        (4, 7): "-0x1.8ee0895e9d93bp+8",
        (4, 8): "-0x1.8c27263dffd9ep+8",
        (4, 9): "-0x1.8de05f611cde4p+8",
        (4, 10): "-0x1.8d3b4af052288p+8",
        (4, 11): "-0x1.8eef8df3d2c2dp+8",
        (4, 12): "-0x1.8d3d512d4620ap+8",
        (4, 13): "-0x1.8eecd16451e82p+8",
        (4, 14): "-0x1.8e45747faecc2p+8",
        (4, 15): "-0x1.8ffd059d3b697p+8",
        (5, 12): "-0x1.13db507821386p+8",
        (5, 13): "-0x1.1580530f81770p+8",
        (5, 14): "-0x1.156bebc693f6ap+8",
        (5, 15): "-0x1.16a74a3bd0baep+8",
    },
    "logistic": {
        (0, 0): "-0x1.66915bbeb295ap+8",
        (1, 0): "-0x1.38b727983791dp+8",
        (2, 2): "-0x1.01a7e6fcdb695p+8",
        (2, 3): "-0x1.04e1ebeacc04dp+8",
        (3, 4): "-0x1.5f3590b70706dp+8",
        (3, 5): "-0x1.630210a488fd6p+8",
        (3, 6): "-0x1.629a61dd12effp+8",
        (4, 0): "-0x1.8b0ed9b9b4eb1p+8",
        (4, 1): "-0x1.8e5a8aaebbd4dp+8",
        (4, 2): "-0x1.8f110161a4c41p+8",
        (4, 3): "-0x1.91d233df9d7b0p+8",
        (4, 4): "-0x1.8f14b3ac573fap+8",
        (4, 8): "-0x1.8ecf9ead322fcp+8",
        (4, 9): "-0x1.91e560d12851bp+8",
        (5, 12): "-0x1.129fc4a4f3f8dp+8",
        (5, 13): "-0x1.15d092c300d03p+8",
        (5, 14): "-0x1.1621f203da00ap+8",
        (5, 15): "-0x1.192c08c107199p+8",
    },
}
DEMO_SESSION_BEST_SCORES = {
    "noisy-or": [
        ("-0x1.eafc37dad3ca6p+6", "-0x1.beec096a4e035p+6", "-0x1.7c84c96465ffep+6",
         "-0x1.e313ca90931a1p+6", "-0x1.0d046ebfa563ep+7", "-0x1.a4aa66de8c631p+6"),
        ("-0x1.e71b08b9fdb2fp+7", "-0x1.b00bdf880e5a6p+7", "-0x1.69f68ae5c458ep+7",
         "-0x1.e0de28ae5a1d8p+7", "-0x1.0ff8decc40130p+8", "-0x1.7b3ab606ffe15p+7"),
        ("-0x1.66915bbeb2958p+8", "-0x1.389a9300dd6cdp+8", "-0x1.02f52a798f366p+8",
         "-0x1.61225b582ed4ap+8", "-0x1.8dd4a21994325p+8", "-0x1.16a118d8007fap+8"),
    ],
    "logistic": [
        ("-0x1.eafc37dad3cbfp+6", "-0x1.bf6f0a3a7bfb8p+6", "-0x1.7cdfc4c84dfb5p+6",
         "-0x1.e3a1006b18924p+6", "-0x1.0d046ebfa563dp+7", "-0x1.a1ef3c1a5a6a4p+6"),
        ("-0x1.e71b08b9fdb30p+7", "-0x1.b04e5f4ab49b2p+7", "-0x1.6a21de18ddd4dp+7",
         "-0x1.e12d5df34c23bp+7", "-0x1.0ff8decc40131p+8", "-0x1.7e8c2520ade97p+7"),
        ("-0x1.66915bbeb295ap+8", "-0x1.38b727983791dp+8", "-0x1.030acb2ccb0cfp+8",
         "-0x1.6149e6feee7c4p+8", "-0x1.8dd4a21994325p+8", "-0x1.15658d04d3401p+8"),
    ],
}


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


def kernel_arrays(kind, u, blocks):
    """``_kernel`` at the array u under the flat prior, the log likelihood,
    its gradient and matrices as full arrays."""
    ll, grad, neg_hess, info = _kernel(kind, np.asarray(u, dtype=float).tolist(), blocks, FLAT_PRIOR)
    return ll, np.array(grad), symmetric(neg_hess), symmetric(info)


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
        ll, _, _, _ = _kernel(kind, u.tolist(), _blocks(boolean_counts(x, rows)), FLAT_PRIOR)
        assert ll == pytest.approx(per_row_loglik(kind, u, x, rows), rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(boolean_blocks(u_bound=30.0), st.sampled_from(["noisy-or", "logistic"]))
    def test_derivatives_match_central_differences(self, data, kind):
        x, rows, u = data
        blocks = _blocks(boolean_counts(x, rows))
        _, grad, neg_hess, _ = kernel_arrays(kind, u, blocks)
        fd_grad = central_differences(lambda v: kernel_arrays(kind, v, blocks)[0], u)
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-6)
        fd_hess = central_differences(lambda v: kernel_arrays(kind, v, blocks)[1], u)
        np.testing.assert_allclose(-neg_hess, (fd_hess + fd_hess.T) / 2.0, rtol=1e-6, atol=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(boolean_blocks(u_bound=30.0), st.sampled_from(["noisy-or", "logistic"]))
    def test_the_prior_adds_a_normal_per_coordinate(self, data, kind):
        # the kernel's log posterior is the flat prior's log likelihood plus
        # the normal log density, whose gradient is -u / sigma^2 and whose
        # curvature puts 1 / sigma^2 on the diagonal of both matrices
        x, rows, u = data
        blocks, prior, _ = _log_posterior(kind, boolean_counts(x, rows), 10.0)
        ll, grad, neg_hess, info = kernel_arrays(kind, u, blocks)
        value, post_grad, post_neg, post_info = _kernel(kind, u.tolist(), blocks, prior)
        density = sum(-0.5 * v * v / 100.0 - 0.5 * math.log(2.0 * math.pi * 100.0) for v in u)
        assert value == pytest.approx(ll + density, rel=1e-12)
        np.testing.assert_allclose(post_grad, grad - u / 100.0, rtol=1e-12, atol=1e-12)
        ridge = np.eye(len(u)) / 100.0
        np.testing.assert_allclose(symmetric(post_neg), neg_hess + ridge, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(symmetric(post_info), info + ridge, rtol=1e-12, atol=1e-12)

    def test_noisyor_hessian_is_stable_near_the_bounds(self):
        # q -> 1 makes w = 1/expm1(-s) huge and w (1 + w) overflow;
        # q -> 0 makes expm1(-s) overflow
        x, rows = sample_noisyor((0.7, 0.4, 0.6), 200, seed=50)
        blocks = _blocks(boolean_counts(x, rows))
        for u in ([700.0, 400.0, -3.0], [-700.0, 2.0, 400.0], [400.0, -400.0, 700.0]):
            u = np.array(u)
            _, _, neg_hess, _ = kernel_arrays("noisy-or", u, blocks)
            fd_hess = central_differences(lambda v: kernel_arrays("noisy-or", v, blocks)[1], u)
            assert np.all(np.isfinite(neg_hess))
            np.testing.assert_allclose(-neg_hess, (fd_hess + fd_hess.T) / 2.0, rtol=1e-6, atol=1e-6)

    def test_noisyor_past_float_range_is_minus_infinity_without_warnings(self):
        # every q rounds to 1 once u passes ~745: Pr(x = true) underflows to 0
        # in each configuration; under the pytest RuntimeWarning filter a
        # log(0) or 0/0 here would raise
        x, rows = sample_noisyor((0.7, 0.4, 0.6), 200, seed=50)
        blocks = _blocks(boolean_counts(x, rows))
        for u in ([800.0, 800.0, 800.0], [800.0, -3.0, 2.0]):
            ll, _, _, _ = _kernel("noisy-or", u, blocks, FLAT_PRIOR)
            assert ll == -math.inf

    @settings(max_examples=150, deadline=None)
    @given(boolean_blocks(u_bound=5.0), st.sampled_from(["noisy-or", "logistic"]))
    def test_information_is_minus_the_hessian_at_expected_counts(self, data, kind):
        x, rows, u = data
        counts = boolean_counts(x, rows)
        activity, n_false, n_true = reference_blocks(counts)
        n = n_false + n_true
        if kind == "logistic":
            t = activity @ u
            p_false, p_true = 1.0 / (1.0 + np.exp(-t)), 1.0 / (1.0 + np.exp(t))
        else:
            s = -(activity @ np.log1p(np.exp(-u)))
            p_false, p_true = np.exp(s), -np.expm1(s)
        blocks = _blocks(counts)
        expected = [
            (active, lower, float(e_false), float(e_true))
            for (active, lower, _, _), e_false, e_true in zip(blocks, n * p_false, n * p_true)
        ]
        _, _, _, info = kernel_arrays(kind, u, blocks)
        _, _, neg_hess, _ = kernel_arrays(kind, u, expected)
        np.testing.assert_allclose(info, neg_hess, rtol=1e-12)

    def test_information_is_positive_definite_near_the_bounds(self):
        # the likelihood's own information underflows to singular here;
        # the prior's I / sigma^2 keeps the step matrix fit_map solves against
        # positive definite
        x, rows = sample_noisyor((0.7, 0.4, 0.6), 200, seed=50)
        counts = boolean_counts(x, rows)
        for kind in ("noisy-or", "logistic"):
            rows, prior, _ = _log_posterior(kind, counts, 10.0)
            for u in ([700.0, 400.0, -3.0], [-700.0, 2.0, 400.0], [400.0, -400.0, 700.0],
                      [-700.0, -400.0, -500.0], [700.0, 500.0, 400.0]):
                info = _kernel(kind, u, rows, prior)[3]
                assert np.all(np.isfinite(symmetric(info)))
                np.linalg.cholesky(symmetric(info))  # raises unless positive definite
                assert _cholesky(info) is not None  # the factor a fit steps with


@st.composite
def count_tables(draw, max_parents=5):
    """A boolean family's count table, up to ``max_parents`` parents, some of
    whose configurations go unobserved; at times one count column is all 0."""
    n_parents = draw(st.integers(0, max_parents))
    codes = sorted(draw(st.sets(st.integers(0, 2**n_parents - 1), min_size=1)))
    zero = draw(st.sampled_from([None, 0, 1]))
    cells = []
    for _ in codes:
        row = [draw(st.integers(0, 60)), draw(st.integers(0, 60))]
        if zero is not None:
            row[zero] = 0
        if not any(row):
            row[1 - (zero or 0)] = 1
        cells.append(row)
    return CountTable.from_rows(
        (2,) * n_parents, np.array(codes, dtype=np.int64), np.array(cells, dtype=np.int64)
    )


class TestFloatKernel:
    # the fit runs on plain floats; the numpy kernel it replaced is the reference

    @settings(max_examples=300, deadline=None)
    @given(count_tables(), st.sampled_from(["noisy-or", "logistic"]), st.data())
    def test_matches_the_numpy_reference(self, counts, kind, data):
        d = len(counts.arities) + 1
        u = data.draw(st.lists(st.floats(-30.0, 30.0), min_size=d, max_size=d))
        got = kernel_arrays(kind, u, _blocks(counts))
        expected = reference_kernel(kind, np.array(u), *reference_blocks(counts))
        assert math.isclose(got[0], expected[0], rel_tol=1e-12, abs_tol=1e-12)
        for value, reference in zip(got[1:], expected[1:]):
            np.testing.assert_allclose(value, reference, rtol=1e-12, atol=1e-12)

    def test_plain_floats_raise_where_numpy_warned(self):
        # numpy answered these with inf or nan and a RuntimeWarning; plain
        # floats raise, so the fit path must guard every place they could occur
        with pytest.raises(ZeroDivisionError):
            _ = 1.0 / 0.0
        with pytest.raises(ValueError):
            math.log(0.0)
        with pytest.raises(OverflowError):
            math.exp(1000.0)

    @pytest.mark.parametrize("kind", ["noisy-or", "logistic"])
    def test_extreme_points_raise_only_fit_errors(self, kind, monkeypatch):
        x, rows = sample_noisyor((0.7, 0.4, 0.6), 200, seed=50)
        counts = boolean_counts(x, rows)
        blocks, prior, _ = _log_posterior(kind, counts, localmodels.PRIOR_SCALE)
        values = []

        def traced(*args):
            point = _kernel(*args)
            values.append(point[0])
            return point

        monkeypatch.setattr(localmodels, "_kernel", traced)
        optimum = fit_map(kind, counts).log_posterior
        starts = [
            point
            for v in (40.0, -40.0, 745.0, -745.0, 1e3, -1e3)
            for point in ([v, v, v], [v, 0.0, 0.0], [0.0, v, -v], [v, -3.0, 2.0])
        ]
        # the all-q-near-1 noisy-or start, where -H is indefinite
        starts += [to_u("noisy-or", NoisyOrParams((q,) * 3)).tolist() for q in (0.99, 1 - 1e-6, 1 - 1e-12)]
        underflows = backed_off = 0
        for u in starts:
            ll, grad, neg_hess, info = _kernel(kind, u, blocks, FLAT_PRIOR)
            if ll == -math.inf:
                # the noisy-or underflow branch: the leak's q (always active)
                # rounded to 1, so some Pr(x = true) is 0; fit_map never starts
                # there (its start keeps every q below exp(-1e-3))
                assert kind == "noisy-or" and u[0] == 1e3
                assert np.isnan(grad).all()
                assert np.isnan(symmetric(neg_hess)).all() and np.isnan(symmetric(info)).all()
                underflows += 1
                continue
            values.clear()
            try:
                fit = _ascend(kind, blocks, prior, u)
                _laplace(fit)
            except (FitConvergenceError, LaplaceError):
                continue
            # a trial point in the underflow branch is -inf, so the line
            # search halves its step and never accepts it
            backed_off += values.count(-math.inf)
            assert all(map(math.isfinite, fit.trace))
            resolution = localmodels.RESOLUTION
            assert all(b >= a - resolution * abs(a) for a, b in zip(fit.trace, fit.trace[1:]))
            assert fit.log_posterior == pytest.approx(optimum, rel=1e-9)
        assert (underflows, backed_off > 0) == ((3, True) if kind == "noisy-or" else (0, False))


@st.composite
def spd_matrices(draw, max_d=8):
    """A symmetric positive definite matrix B B' + I, eigenvalues at least 1,
    and a right-hand side."""
    d = draw(st.integers(1, max_d))
    entries = st.floats(-3.0, 3.0, allow_nan=False)
    b = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
    rhs = np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    return b @ b.T + np.eye(d), rhs


def dense(factor):
    """The factor's rows of floats as a square lower-triangular array."""
    return np.array([row + [0.0] * (len(factor) - len(row)) for row in factor])


def numpy_factors(matrix) -> bool:
    """Whether numpy finds a Cholesky factor: it raises on a pivot <= 0, and
    on some builds returns a factor of NaN for a NaN pivot instead."""
    try:
        with np.errstate(invalid="ignore"):
            factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


class TestFactorization:
    # a fit solves its d x d systems in plain floats; numpy is the reference

    @settings(max_examples=200, deadline=None)
    @given(spd_matrices())
    def test_factor_solve_and_log_det_match_numpy(self, system):
        matrix, rhs = system
        factor = _cholesky(matrix.tolist())
        reference = np.linalg.cholesky(matrix)
        assert np.linalg.norm(dense(factor) - reference) <= 1e-12 * np.linalg.norm(reference)
        solution, expected = np.array(_solve(factor, rhs.tolist())), np.linalg.solve(matrix, rhs)
        assert np.linalg.norm(solution - expected) <= 1e-12 * max(np.linalg.norm(expected), 1e-300)
        sign, log_det = np.linalg.slogdet(matrix)
        assert sign == 1.0
        assert math.isclose(_log_det(matrix.tolist()), log_det, rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(spd_matrices(), st.data())
    def test_no_factor_exactly_where_numpy_has_none(self, system, data):
        # each edit breaks the matrix at pivot k, whose predecessors stay those
        # of a well-conditioned positive definite matrix, so rounding cannot
        # decide the outcome: a negative diagonal (indefinite), a zero row and
        # column (singular: the pivot is exactly 0), or a NaN
        matrix, _ = system
        d = len(matrix)
        k = data.draw(st.integers(0, d - 1))
        edit = data.draw(st.sampled_from(["indefinite", "singular", "nan diagonal", "nan off"]))
        broken = matrix.copy()
        if edit == "indefinite":
            broken[k, k] = -data.draw(st.floats(0.0, 10.0))
        elif edit == "singular":
            broken[k, :] = broken[:, k] = 0.0
        elif edit == "nan diagonal" or k == 0:
            broken[k, k] = math.nan
        else:
            j = data.draw(st.integers(0, k - 1))
            broken[k, j] = broken[j, k] = math.nan
        assert _cholesky(matrix.tolist()) is not None and numpy_factors(matrix)
        assert _cholesky(broken.tolist()) is None
        assert not numpy_factors(broken)
        assert _log_det(broken.tolist()) is None

    def test_exactly_singular_and_semidefinite_matrices_have_no_factor(self):
        for matrix in ([[1.0, 1.0], [1.0, 1.0]], [[0.0]], [[4.0, 2.0, 2.0], [2.0, 1.0, 1.0], [2.0, 1.0, 5.0]]):
            assert _cholesky(matrix) is None
            assert not numpy_factors(np.array(matrix))


class TestFitMap:
    def test_recovers_noisyor_parameters(self):
        q_true = (0.85, 0.3, 0.5, 0.6)
        x, rows = sample_noisyor(q_true, 10_000, seed=36)
        fit = fit_map("noisy-or", boolean_counts(x, rows))
        assert fit.gradient_norm < 1e-8
        for got, want in zip(fit.params.q, q_true):
            assert abs(got - want) < 0.05

    def test_an_ascent_from_the_optimum_converges_immediately(self):
        x, rows = sample_noisyor((0.7, 0.4), 500, seed=37)
        counts = boolean_counts(x, rows)
        fit = fit_map("noisy-or", counts)
        blocks, prior, _ = _log_posterior("noisy-or", counts, localmodels.PRIOR_SCALE)
        again = _ascend("noisy-or", blocks, prior, to_u("noisy-or", fit.params).tolist())
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

    def test_start_without_usable_curvature_ascends_and_converges(self):
        # near q = 0.99 the observed -H is indefinite, so the first steps
        # solve against the expected information instead
        x, rows = sample_noisyor((0.6, 0.2, 0.8), 300, seed=38)
        counts = boolean_counts(x, rows)
        start = to_u("noisy-or", NoisyOrParams((0.99, 0.99, 0.99))).tolist()
        blocks, prior, _ = _log_posterior("noisy-or", counts, 10.0)
        assert np.min(np.linalg.eigvalsh(symmetric(_kernel("noisy-or", start, blocks, prior)[2]))) < 0
        fit = _ascend("noisy-or", blocks, prior, start)
        assert fit.iterations > 0 and fit.gradient_norm < 1e-8
        assert all(b >= a for a, b in zip(fit.trace, fit.trace[1:]))
        cold = fit_map("noisy-or", counts)
        np.testing.assert_allclose(fit.params.q, cold.params.q, rtol=1e-6)


    @pytest.mark.parametrize("kind", ["noisy-or", "logistic"])
    def test_the_start_lies_inside_the_parameter_space(self, kind):
        # x is false only when its parent is true: regressed alone, the
        # parent's log q would be positive, so noisy-or clamps it below 0
        rows = np.array([[True], [False]] * 50)
        x = ~rows[:, 0]
        counts = boolean_counts(x, rows)
        blocks, prior, start = _log_posterior(kind, counts, localmodels.PRIOR_SCALE)
        assert np.isfinite(start).all() and math.isfinite(_kernel(kind, start, blocks, prior)[0])
        if kind == "noisy-or":
            assert start[1] == pytest.approx(-1e-3 - math.log(-math.expm1(-1e-3)))
        fit = _ascend(kind, blocks, prior, start)
        assert fit.gradient_norm < localmodels.TOL and fit == fit_map(kind, counts)

    def test_a_start_where_the_objective_is_minus_infinity_is_named(self):
        # past u ~ 745 every Pr(x = true) underflows: no curvature has a
        # Cholesky factor there, and the first solve met None
        x, rows = sample_noisyor((0.7, 0.4, 0.6), 200, seed=50)
        blocks, prior, _ = _log_posterior("noisy-or", boolean_counts(x, rows), localmodels.PRIOR_SCALE)
        with pytest.raises(ValueError, match=r"noisy-or fit cannot start at u = \[1000.0, 0.0, 0.0\]"):
            _ascend("noisy-or", blocks, prior, [1000.0, 0.0, 0.0])

    def test_iteration_cap_reports_error_with_best(self, monkeypatch):
        x, rows = sample_noisyor((0.6, 0.3), 200, seed=39)
        monkeypatch.setattr(localmodels, "MAX_ITER", 1)
        monkeypatch.setattr(localmodels, "TOL", 1e-14)
        with pytest.raises(FitConvergenceError) as err:
            fit_map("noisy-or", boolean_counts(x, rows))
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
        counts = boolean_counts(x, rows)
        alpha_x = 1.0 / (2.0 * 2.0 ** len(counts.arities))  # alpha 1 over every cell
        exact = log_marginal_likelihood(counts.cells, alpha_x)
        approx = table_laplace_log_marginal(counts, alpha_x)
        assert abs(exact - approx) < 1.0

    def test_doubling_data_grows_penalty_by_half_d_log_two(self):
        x, rows = sample_noisyor((0.7, 0.3, 0.5), 400, seed=42)
        x2, rows2 = np.concatenate([x, x]), np.concatenate([rows, rows])
        d = rows.shape[1] + 1
        penalties = []
        for xs, rs in ((x, rows), (x2, rows2)):
            counts = boolean_counts(xs, rs)
            fit = fit_map("noisy-or", counts)
            marginal = laplace_log_marginal("noisy-or", counts)
            penalties.append(fit.log_posterior + 0.5 * d * math.log(2 * math.pi) - marginal)
        assert penalties[1] - penalties[0] == pytest.approx(0.5 * d * math.log(2), abs=0.2)

    @pytest.mark.parametrize("kind", ["noisy-or", "logistic"])
    def test_the_fit_carries_log_det_of_minus_h_at_its_point(self, kind):
        # the fit factors -H once, at its optimum, for the Laplace term
        x, rows = sample_noisyor((0.7, 0.3, 0.5), 400, seed=42)
        counts = boolean_counts(x, rows)
        fit = fit_map(kind, counts)
        blocks, prior, _ = _log_posterior(kind, counts, localmodels.PRIOR_SCALE)
        neg_hess = _kernel(kind, to_u(kind, fit.params).tolist(), blocks, prior)[2]
        sign, log_det = np.linalg.slogdet(symmetric(neg_hess))
        assert sign == 1.0 and fit.log_det == pytest.approx(log_det, rel=1e-9)
        d = len(counts.arities) + 1
        assert laplace_log_marginal(kind, counts) == (
            fit.log_posterior + 0.5 * d * math.log(2.0 * math.pi) - 0.5 * fit.log_det
        )

    def test_degenerate_curvature_is_an_error(self):
        # a fit whose -H has no Cholesky factor carries no log determinant
        assert _log_det([[0.0, 0.0], [0.0, 0.0]]) is None
        x, rows = sample_noisyor((0.6, 0.4), 50, seed=43)
        fit = fit_map("noisy-or", boolean_counts(x, rows))
        with pytest.raises(LaplaceError):
            _laplace(replace(fit, log_det=None))

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

    @pytest.mark.parametrize("kind", ["table", "bayes", ""])
    def test_only_restricted_kinds_are_scored(self, kind):
        # the table's exact score is the engine's, from the counts
        net = self._noisyor_net(200, seed=44)
        lattice = net.lattices[3]
        node = lattice.nodes[0b111]
        with pytest.raises(ValueError, match="not a restricted model"):
            score_node_with_model(kind, node.counts)
        assert node.scores["table"] == (net.n_total, table_log_ml(lattice, node))
        with pytest.raises(ValueError, match="not a restricted model"):
            score_node_with_model(kind, CountTable(2, ()))  # before the zero-count shortcut

    def test_noisyor_beats_table_on_noisyor_data(self):
        net = self._noisyor_net(500, seed=45)
        lattice = net.lattices[3]
        node = lattice.nodes[0b111]  # all three parents
        noisy = score_node_with_model("noisy-or", node.counts)
        table = table_log_ml(lattice, node)
        assert noisy > table
        # a function of the counts; the search's cache is left alone
        assert "noisy-or" not in node.scores
        assert noisy == laplace_log_marginal("noisy-or", node.counts)

    def test_parentless_node_kinds_agree_with_matched_priors(self, monkeypatch):
        # scale 2.5 puts roughly the same prior density near the MAP as the
        # symmetric Dirichlet, making the three marginals comparable
        net = self._noisyor_net(300, seed=46)
        lattice = net.lattices[3]
        node = lattice.nodes[0]
        counts = boolean_node_data(net.schema, 3, node.parents, node.counts)
        exact = table_log_ml(lattice, node)
        monkeypatch.setattr(localmodels, "PRIOR_SCALE", 2.5)
        for kind in ("noisy-or", "logistic"):
            approx = laplace_log_marginal(kind, counts)
            assert abs(approx - exact) < 1.0

    def test_boolean_node_data_reads_the_log_columns(self):
        # scoring counts nothing: every stored set, an asleep one too, holds
        # the counts of the whole log, as observe_batch left them
        net = self._noisyor_net(50, seed=43)
        lattice = net.lattices[3]
        lattice.nodes[0b011].status = NodeStatus.ASLEEP  # counted like the alive sets
        observe_batch(net, net.example_log[:10])
        rows = net.example_log
        for node in lattice.nodes.values():
            counts = boolean_node_data(net.schema, 3, node.parents, node.counts)
            score = score_node_with_model("noisy-or", counts)
            assert counts is node.counts
            assert score == laplace_log_marginal("noisy-or", counts)
            assert counts == boolean_counts(rows[:, 3] == 1, rows[:, list(node.parents)] == 1)
            assert counts.total == net.n_total == 60
        assert lattice.nodes[0].counts.codes.tolist() == [0]

    def test_non_boolean_variable_is_rejected(self):
        from bnrefine import ArcPriorMatrix, DomainSchema, VariableSpec, init

        schema = DomainSchema(
            (VariableSpec("a", ("x", "y", "z")), VariableSpec("b", ("f", "t")))
        )
        net = init(schema, ArcPriorMatrix(), PriorConfig())
        root = net.lattices[0].nodes[0]
        with pytest.raises(UnsupportedModelError, match="not boolean: a$"):  # no rows to fit
            family_log_ml("noisy-or", root.counts, 1.0, schema, 0, ())
        observe_batch(net, [(0, 1), (2, 0), (1, 1)])
        with pytest.raises(UnsupportedModelError, match="not boolean: a$"):
            family_log_ml("noisy-or", root.counts, 1.0, schema, 0, ())
        refine(net, SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12))
        parent_node = net.lattices[1].nodes[0b1]  # boolean child, ternary parent
        with pytest.raises(UnsupportedModelError, match="not boolean: a$"):
            family_log_ml("logistic", parent_node.counts, 1.0, schema, 1, parent_node.parents)
        # the check reads the family alone, and names each of its non-boolean variables
        wide = DomainSchema((*schema.variables, VariableSpec("c", ("p", "q", "r"))))
        with pytest.raises(UnsupportedModelError, match="not boolean: c, a$"):
            boolean_node_data(wide, 2, (0, 1), CountTable(3, (3, 2)))
        table = CountTable(2, ())
        assert boolean_node_data(wide, 1, (), table) is table


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
        from bnrefine import all_arc_posteriors

        lattice = net.lattices[2]
        assert set(lattice.nodes) | lattice.dead == {0, 0b01, 0b10, 0b11}
        for node in lattice.nodes.values():
            assert node.scores["noisy-or"][0] == net.n_total
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
            best = max(n.log_prior + n.scores[model][1] for n in alive)
            assert report.best_scores[net.schema.name(lattice.x)] == best
        lattice = net.lattices[2]
        table_best = max(n.log_prior + table_log_ml(lattice, n) for n in lattice.alive_nodes())
        assert report.best_scores["x"] != table_best

    @staticmethod
    def _cached(net):
        return {
            (lat.x, n.key): dict(n.scores)
            for lat in net.lattices
            for n in lat.nodes.values()
        }

    @pytest.mark.parametrize("model", SCORING_MODELS)
    def test_zero_budget_refits_nothing(self, model):
        from helpers import node_state

        net = fresh_net("abx")
        net.scoring_model = model
        observe_batch(net, self._noisyor_examples(200, seed=47))
        searched = refine(net, SearchParams())
        observe_batch(net, self._noisyor_examples(200, seed=49))  # every score is now stale
        state, cached = node_state(net), self._cached(net)
        report = refine(net, SearchParams(budget=0))
        assert report.expansions == 0 and not report.exhausted
        assert node_state(net) == state and self._cached(net) == cached
        assert report.best_scores == searched.best_scores  # the cached, stale scores

    @pytest.mark.parametrize("model", SCORING_MODELS)
    def test_zero_budget_on_a_loaded_session_reports_unscored_lattices(self, model):
        from bnrefine.fileio import serialize_session, session_from_document

        net = fresh_net("abx")
        net.scoring_model = model
        observe_batch(net, self._noisyor_examples(200, seed=47))
        refine(net, SearchParams())
        loaded = session_from_document(json.loads(serialize_session(net)))
        cached = self._cached(loaded)
        assert all(scores == {} for scores in cached.values())  # a session stores no score
        report = refine(loaded, SearchParams(budget=0))
        assert self._cached(loaded) == cached
        assert report.best_scores == dict.fromkeys("abx", float("-inf"))

    @pytest.mark.parametrize("model", SCORING_MODELS)
    def test_a_session_with_no_rows_refines_and_answers(self, model):
        # noisy-or and logistic raised "fit_map requires at least one data row":
        # a set with no counts scores 0 under every model, its prior integrating to 1
        from bnrefine import all_arc_posteriors

        table = fresh_net("abx", default_prior=0.3)
        net = fresh_net("abx", default_prior=0.3)
        net.scoring_model = model
        assert refine(net, SearchParams()) == refine(table, SearchParams())
        assert all_arc_posteriors(net).entries == all_arc_posteriors(table).entries
        assert len(net.lattices[2].nodes) == 4
        for lattice in net.lattices:
            for node in lattice.nodes.values():
                assert node.scores[model] == (0, 0.0)

    def test_budget_spent_early_leaves_later_lattices_unfitted(self):
        net = fresh_net("abx")
        net.scoring_model = "noisy-or"
        observe_batch(net, self._noisyor_examples(200, seed=47))
        report = refine(net, SearchParams(budget=1))  # spent on a's root
        assert report.expansions == 1 and not report.exhausted
        assert net.lattices[0].nodes[0].scores["noisy-or"][0] == net.n_total
        assert net.lattices[2].nodes[0].scores == {}
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
        assert node.scores["noisy-or"][1] != twin.scores["table"][1]
        assert set(twin.scores) == {"table"}

    def _stream_demo(self, model, seed, batch=200):
        """The benchmark's restricted session: 600 rows in batches of 200, each
        observed, refined and queried; the session and each refine's best scores."""
        from bnrefine import ArcPriorMatrix, all_arc_posteriors, init

        from helpers import chain_v_truth

        truth = chain_v_truth()
        priors = ArcPriorMatrix(entries={(0, 1): 1.0, (0, 5): 0.0}, default_prior=0.5)
        net = init(truth.schema, priors, PriorConfig(alpha=1.0))
        net.scoring_model = model
        data = forward_sample(truth, 600, seed=seed)
        best = []
        for start in range(0, len(data), batch):
            observe_batch(net, data[start : start + batch])
            best.append(refine(net, SearchParams()).best_scores)
            all_arc_posteriors(net)
        return net, best

    @pytest.mark.parametrize("model", ["noisy-or", "logistic"])
    def test_every_split_of_the_rows_gives_the_same_scores(self, model):
        # each fit used to start where the set's last fit ended: on this sample
        # 27 of the 28 noisy-or scores of sets stored in every run, and 14 of
        # the 18 logistic ones, differed across the three splits, by up to
        # 2.2e-8 and 1.9e-10
        from bnrefine import engine

        scores = []
        for batch in (600, 200, 50):
            net, _ = self._stream_demo(model, seed=3, batch=batch)
            scored = {}
            for lattice in net.lattices:
                for key, node in lattice.nodes.items():
                    engine.sync_node(net, lattice, node)
                    scored[lattice.x, key] = engine._node_score(net, lattice, node)
            scores.append(scored)
        common = scores[0].keys() & scores[1].keys() & scores[2].keys()
        assert len(common) > 10
        for key in common:
            assert scores[0][key] == scores[1][key] == scores[2][key], key

    @pytest.mark.parametrize("model", ["noisy-or", "logistic"])
    def test_the_demo_session_does_the_pinned_work(self, model, monkeypatch):
        # the same fits, iterations and kernel evaluations as when the fit
        # solved with numpy's linear algebra, and, since the fit ran on plain
        # floats, the same marginals and best scores to the last bit
        fits, iterations, kernels = [], [], [0]
        fit, kernel = localmodels.fit_map, localmodels._kernel

        def counted_fit(*args):
            result = fit(*args)
            fits.append(args[0])
            iterations.append(result.iterations)
            return result

        def counted_kernel(*args):
            kernels[0] += 1
            return kernel(*args)

        monkeypatch.setattr(localmodels, "fit_map", counted_fit)
        monkeypatch.setattr(localmodels, "_kernel", counted_kernel)
        net, best = self._stream_demo(model, seed=3)
        assert set(fits) == {model}
        assert (len(fits), sum(iterations), kernels[0]) == DEMO_SESSION_WORK[model]
        scores = {
            (lattice.x, key): node.scores[model][1].hex()
            for lattice in net.lattices
            for key, node in lattice.nodes.items()
            if model in node.scores
        }
        assert scores == DEMO_SESSION_SCORES[model]
        assert [tuple(b[v].hex() for v in "uvwxyz") for b in best] == DEMO_SESSION_BEST_SCORES[model]

    @pytest.mark.parametrize("seed", [8, 15, 7920])
    def test_fits_converge_in_a_few_steps(self, seed, monkeypatch):
        # data seeds whose warm starts (a fit started where the last batch's
        # fit ended) near q = 0.99 stalled at the 500-iteration cap (up to 493
        # iterations, 8 stalls a session) when the fallback direction was the
        # raw gradient; a fit that does not converge raises, since nothing
        # retries it
        from bnrefine import localmodels

        iterations = []

        def counted(*args, **kwargs):
            fit = fit_map(*args, **kwargs)
            iterations.append(fit.iterations)
            return fit

        monkeypatch.setattr(localmodels, "fit_map", counted)
        net, _ = self._stream_demo("noisy-or", seed=seed)
        assert iterations and max(iterations) <= 25
        for lattice in net.lattices:
            assert lattice.alive_nodes()

    def test_converged_fit_is_accepted(self):
        # the benchmark's restricted logistic session (seed 9, session 5):
        # Newton converged in 5 steps, then the line search took ulp-sized
        # steps that left the objective unchanged until the iteration cap
        net, _ = self._stream_demo("logistic", seed=39604)
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
