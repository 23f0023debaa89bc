"""Acceptance suite: one test per exit criterion, printed pass lines included.

Engine-driven scenarios run once in module-scoped fixtures, each wrapped in
a dead-node monitor; the final criterion asserts the monitors saw nothing.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

import copy
import itertools
import math
import time

import numpy as np
import pytest

from bnrefine import (
    ArcPriorMatrix,
    CountTable,
    NodeStatus,
    PriorConfig,
    SearchParams,
    all_arc_posteriors,
    init,
    observe,
    observe_batch,
    refine,
)
from bnrefine.domain import project
from bnrefine.fileio import load_session, save_session, serialize_session
from bnrefine.kernels import (
    alpha_for,
    log_marginal_likelihood,
    posterior_mean_row,
    predictive_log_prob,
)
from bnrefine.localmodels import (
    LogisticParams,
    NoisyOrParams,
    boolean_counts,
    fit_map,
    laplace_log_marginal,
    logistic_loglik,
    logistic_loglik_grad,
    noisyor_loglik,
    noisyor_loglik_grad,
)
from bnrefine.oracle import exhaustive_posterior, quadrature_marginal_1d
from bnrefine.query import draw_index, leaf_masses, sample_smoothed
from bnrefine.sampling import forward_sample

from helpers import (
    DeadNodeMonitor,
    binary_schema,
    chain_v_truth,
    five_var_truth,
    fresh_net,
    sampled_net,
)

PERMISSIVE = SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12)


def _passed(number: int, label: str) -> None:
    print(f"ACCEPTANCE PASS criterion {number}: {label}")


# -- shared scenario runs --------------------------------------------------


@pytest.fixture(scope="module")
def crit1_run():
    monitor = DeadNodeMonitor()
    start = time.monotonic()
    net, data = sampled_net(five_var_truth(), 500, seed=7)
    monitor.check(net)
    refine(net, PERMISSIVE)
    monitor.check(net)
    elapsed = time.monotonic() - start
    return {"net": net, "data": data, "monitor": monitor, "elapsed": elapsed}


@pytest.fixture(scope="module")
def crit2_run():
    warmup = forward_sample(five_var_truth(), 200, seed=100)
    base = fresh_net("abcde")
    observe_batch(base, warmup)
    refine(base, SearchParams())
    stream = forward_sample(five_var_truth(), 1000, seed=101)
    one_at_a_time = copy.deepcopy(base)
    batched = copy.deepcopy(base)
    monitors = [DeadNodeMonitor(), DeadNodeMonitor()]
    monitors[0].check(one_at_a_time)
    monitors[1].check(batched)
    for example in stream:
        observe(one_at_a_time, example)
    observe_batch(batched, stream)
    monitors[0].check(one_at_a_time)
    monitors[1].check(batched)
    return {
        "single": one_at_a_time,
        "batch": batched,
        "monitors": monitors,
    }


@pytest.fixture(scope="module")
def crit4_run():
    monitor = DeadNodeMonitor()
    start = time.monotonic()
    net, _ = sampled_net(chain_v_truth(), 5000, seed=2026)
    monitor.check(net)
    refine(net, SearchParams())
    monitor.check(net)
    elapsed = time.monotonic() - start
    return {"net": net, "monitor": monitor, "elapsed": elapsed}


@pytest.fixture(scope="module")
def crit5_run():
    monitors = []
    runs = {}
    for label, budgets in (("split", (50, None)), ("small_split", (5, None)), ("single", (None,))):
        monitor = DeadNodeMonitor()
        net, _ = sampled_net(five_var_truth(), 500, seed=7)
        for budget in budgets:
            refine(net, SearchParams(
                c_alive=1e-12, d_open=1e-12, e_dead=1e-12, budget=budget
            ))
            monitor.check(net)
        runs[label] = serialize_session(net)
        monitors.append(monitor)
    return {"runs": runs, "monitors": monitors}


def _oscillation_batches(ln_c: float, n_batches: int, margin: float = 0.15):
    """Craft mini-batches for two binary variables (parent a, child b) whose
    exact score gap between parent sets {a} and {} crosses ln_c each batch,
    while staying above the hysteresis-0.5 demotion bound ln_c + ln(0.5)."""
    with_parent = CountTable(2)
    empty = CountTable(2)
    state = {"delta": 0.0}

    def gain(j: int, i: int) -> float:
        return predictive_log_prob(with_parent.row((j,)), i, 0.25, 2) - (
            predictive_log_prob(empty.row(()), i, 0.5, 2)
        )

    def push(j: int, i: int) -> tuple[int, int]:
        state["delta"] += gain(j, i)
        with_parent.increment((j,), i)
        empty.increment((), i)
        return (j, i)

    pairs = list(itertools.product((0, 1), (0, 1)))
    warmup = []
    while state["delta"] > ln_c - margin:
        warmup.append(push(*min(pairs, key=lambda ji: gain(*ji))))
        assert len(warmup) < 2000
    batches = []
    upward = True
    for _ in range(n_batches):
        target = ln_c + margin if upward else ln_c - margin
        batch = []
        while (state["delta"] < target) if upward else (state["delta"] > target):
            pick = max if upward else min
            batch.append(push(*pick(pairs, key=lambda ji: gain(*ji))))
            assert len(batch) < 2000
        assert batch, "batch must actually move the score gap"
        batches.append(batch)
        upward = not upward
    return warmup, batches


@pytest.fixture(scope="module")
def crit6_run():
    params_c = 0.1
    warmup, batches = _oscillation_batches(math.log(params_c), n_batches=20)
    monitors = []
    changes = {}
    for hysteresis in (0.5, 1.0):
        monitor = DeadNodeMonitor()
        net = fresh_net("ab")
        observe_batch(net, warmup)
        params = SearchParams(
            c_alive=params_c, d_open=0.01, e_dead=0.001, hysteresis=hysteresis
        )
        refine(net, params)
        monitor.check(net)
        node = net.lattices[1].nodes[0b1]
        flips = 0
        last = node.status
        for batch in batches:
            observe_batch(net, batch)
            refine(net, params)
            monitor.check(net)
            if node.status is not last:
                flips += 1
                last = node.status
        changes[hysteresis] = flips
        monitors.append(monitor)
    return {"changes": changes, "monitors": monitors}


# -- criteria ---------------------------------------------------------------


def test_criterion_01_oracle_equivalence(crit1_run):
    net, data = crit1_run["net"], crit1_run["data"]
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
                assert subset in alive, (x, sorted(subset), mass / top)
    assert crit1_run["elapsed"] < 30.0
    _passed(1, "permissive search matches the exhaustive oracle")


def test_criterion_02_incremental_equals_batch(crit2_run):
    single, batched = crit2_run["single"], crit2_run["batch"]
    for lat_s, lat_b in zip(single.lattices, batched.lattices):
        assert lat_s.nodes.keys() == lat_b.nodes.keys()
        for key, node_s in lat_s.nodes.items():
            node_b = lat_b.nodes[key]
            assert node_s.counts == node_b.counts
            assert node_s.log_ml == pytest.approx(node_b.log_ml, abs=1e-9)
            # both match a from-scratch rescoring of the retained log
            if node_s.status is not NodeStatus.DEAD:
                counts = CountTable(single.schema.arity(lat_s.x))
                for example in single.example_log[: node_s.synced_through]:
                    counts.increment(project(example, node_s.parents), example[lat_s.x])
                assert node_s.log_ml == pytest.approx(
                    log_marginal_likelihood(counts, node_s.alpha_x), abs=1e-9
                )
    arcs_s = all_arc_posteriors(single).entries
    arcs_b = all_arc_posteriors(batched).entries
    for pair, p in arcs_s.items():
        assert p == pytest.approx(arcs_b[pair], abs=1e-10)
    _passed(2, "streaming one example at a time equals one batch update")


def test_criterion_03_prior_equivalence():
    rng = np.random.default_rng(55)

    def ml(x, parents, examples):
        # concentration follows the equivalent-prior scheme: alpha / (m_x |v(parents)|)
        counts = CountTable(2)
        for example in examples:
            counts.increment(project(example, parents), example[x])
        return log_marginal_likelihood(counts, 1.0 / (2.0 * 2.0 ** len(parents)))

    for _ in range(20):
        n = int(rng.integers(1, 60))
        examples = [tuple(int(v) for v in rng.integers(0, 2, 2)) for _ in range(n)]
        forward = ml(0, (), examples) + ml(1, (0,), examples)
        reverse = ml(1, (), examples) + ml(0, (1,), examples)
        assert forward == pytest.approx(reverse, abs=1e-10)

    for _ in range(20):
        n = int(rng.integers(1, 60))
        examples = [tuple(int(v) for v in rng.integers(0, 2, 3)) for _ in range(n)]
        chain_up = ml(0, (), examples) + ml(1, (0,), examples) + ml(2, (1,), examples)
        diverging = ml(1, (), examples) + ml(0, (1,), examples) + ml(2, (1,), examples)
        chain_down = ml(2, (), examples) + ml(1, (2,), examples) + ml(0, (1,), examples)
        assert chain_up == pytest.approx(diverging, abs=1e-10)
        assert chain_up == pytest.approx(chain_down, abs=1e-10)
    _passed(3, "score-equivalent structures get equal marginal likelihoods")


def test_criterion_04_structure_recovery(crit4_run):
    net = crit4_run["net"]
    matrix = all_arc_posteriors(net)
    true_arcs = {(0, 1), (1, 2), (2, 3), (3, 5), (4, 5)}
    for pair, p in matrix.entries.items():
        if pair in true_arcs:
            assert p > 0.95, (pair, p)
        else:
            assert p < 0.05, (pair, p)
    assert crit4_run["elapsed"] < 60.0
    _passed(4, "chain-plus-v-structure recovered at N=5000")


def test_criterion_05_resumable_search(crit5_run):
    runs = crit5_run["runs"]
    assert runs["split"] == runs["single"]
    assert runs["small_split"] == runs["single"]
    _passed(5, "interrupted and uninterrupted searches end byte-identical")


def test_criterion_06_hysteresis(crit6_run):
    changes = crit6_run["changes"]
    assert changes[0.5] <= 2, changes
    assert changes[1.0] >= 10, changes
    _passed(6, f"status changes {changes[0.5]} with hysteresis vs {changes[1.0]} without")


def test_criterion_07_smoothed_networks(crit1_run):
    net = crit1_run["net"]
    smoothed = sample_smoothed(net, seed=31)
    for x, var in enumerate(smoothed.variables):
        assert np.allclose(var.table.sum(axis=1), 1.0, atol=1e-12)
        family = [
            n for n in net.lattices[x].alive_nodes() if set(n.parents) <= set(var.leaf)
        ]
        arities = [net.schema.arity(p) for p in var.leaf]
        for row, cfg in enumerate(itertools.product(*(range(a) for a in arities))):
            contributions = np.array(
                [
                    posterior_mean_row(
                        n.counts,
                        tuple(cfg[var.leaf.index(p)] for p in n.parents),
                        n.alpha_x,
                    )
                    for n in family
                ]
            )
            assert np.all(var.table[row] >= contributions.min(axis=0) - 1e-12)
            assert np.all(var.table[row] <= contributions.max(axis=0) + 1e-12)

    # seeded leaf draws follow the family masses
    multi_leaf, _ = sampled_net(five_var_truth(), 30, seed=28)
    refine(multi_leaf, SearchParams(c_alive=0.1, d_open=0.01, e_dead=0.001))
    x = max(range(5), key=lambda v: len(leaf_masses(multi_leaf, v)[0]))
    leaves, _, masses = leaf_masses(multi_leaf, x)
    assert len(leaves) >= 2
    probs = masses / masses.sum()
    n_draws = 100_000
    rng = np.random.default_rng(32)
    hits = np.zeros(len(leaves))
    for _ in range(n_draws):
        hits[draw_index(rng, masses)] += 1
    for k, p in enumerate(probs):
        se = math.sqrt(p * (1 - p) / n_draws)
        assert abs(hits[k] / n_draws - p) <= 3 * se + 1e-12
    _passed(7, "smoothed CPTs normalized, convex, and leaf draws follow masses")


def test_criterion_08_local_models():
    # analytic gradients vs central finite differences at 100 random points
    rng = np.random.default_rng(60)
    step = 1e-5
    for _ in range(100):
        n_parents = int(rng.integers(0, 4))
        q = rng.uniform(0.05, 0.95, n_parents + 1)
        tau = rng.uniform(-2.0, 2.0, n_parents + 1)
        x = rng.random(8) < 0.5
        rows = rng.random((8, n_parents)) < 0.5
        got_q = noisyor_loglik_grad(NoisyOrParams(tuple(q)), boolean_counts(x, rows))
        got_t = logistic_loglik_grad(LogisticParams(tuple(tau)), boolean_counts(x, rows))
        for i in range(n_parents + 1):
            hi, lo = q.copy(), q.copy()
            hi[i] += step
            lo[i] -= step
            fd = (
                noisyor_loglik(NoisyOrParams(tuple(hi)), boolean_counts(x, rows))
                - noisyor_loglik(NoisyOrParams(tuple(lo)), boolean_counts(x, rows))
            ) / (2 * step)
            assert got_q[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)
            hi, lo = tau.copy(), tau.copy()
            hi[i] += step
            lo[i] -= step
            fd = (
                logistic_loglik(LogisticParams(tuple(hi)), boolean_counts(x, rows))
                - logistic_loglik(LogisticParams(tuple(lo)), boolean_counts(x, rows))
            ) / (2 * step)
            assert got_t[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    # noisy-or parameter recovery from 10^4 seeded rows
    q_true = np.array([0.85, 0.3, 0.5, 0.6])
    sample_rng = np.random.default_rng(61)
    rows = sample_rng.random((10_000, 3)) < 0.5
    p_false = q_true[0] * np.prod(np.where(rows, q_true[1:], 1.0), axis=1)
    x = sample_rng.random(10_000) >= p_false
    fit = fit_map("noisy-or", boolean_counts(x, rows))
    for got, want in zip(fit.params.q, q_true):
        assert abs(got - want) < 0.05

    # one-parameter marginal against direct quadrature
    bern_rng = np.random.default_rng(62)
    x1 = bern_rng.random(100) < 0.4
    marginal = laplace_log_marginal("noisy-or", boolean_counts(x1, np.empty((100, 0))))
    n_true = int(x1.sum())
    scale = 10.0

    def loglik(u):
        log_q = -math.log1p(math.exp(-u)) if u > -30 else u
        return (100 - n_true) * log_q + n_true * math.log(-math.expm1(log_q))

    def log_prior(u):
        return -0.5 * (u / scale) ** 2 - math.log(scale * math.sqrt(2 * math.pi))

    exact = quadrature_marginal_1d(loglik, log_prior, np.linspace(-60, 60, 24001))
    assert abs(marginal - exact) < 0.5

    # small-product regime: the two likelihoods agree
    q = np.array([1e-4, 0.3, 0.6, 0.8])
    small_rng = np.random.default_rng(63)
    x2 = small_rng.random(10) < 0.5
    rows2 = small_rng.random((10, 3)) < 0.5
    a = noisyor_loglik(NoisyOrParams(tuple(q)), boolean_counts(x2, rows2))
    b = logistic_loglik(LogisticParams(tuple(np.log(q))), boolean_counts(x2, rows2))
    assert abs(a - b) < 1e-2
    _passed(8, "gradients, recovery, Laplace-vs-quadrature, and model agreement")


def test_criterion_09_persistence(tmp_path, crit5_run):
    net, _ = sampled_net(five_var_truth(), 500, seed=7)
    refine(net, SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12, budget=5))
    mid = tmp_path / "mid-search.json"
    save_session(mid, net)
    resumed = load_session(mid)
    refine(resumed, PERMISSIVE)
    assert serialize_session(resumed) == crit5_run["runs"]["single"]

    # mid-stream boundary: save/load between two halves of the data
    data = forward_sample(five_var_truth(), 500, seed=7)
    direct = fresh_net("abcde")
    observe_batch(direct, data)
    refine(direct, PERMISSIVE)
    silo = fresh_net("abcde")
    observe_batch(silo, data[:250])
    stream_path = tmp_path / "mid-stream.json"
    save_session(stream_path, silo)
    reloaded = load_session(stream_path)
    observe_batch(reloaded, data[250:])
    refine(reloaded, PERMISSIVE)
    assert serialize_session(reloaded) == serialize_session(direct)
    _passed(9, "save/load boundaries leave behaviour observably identical")


def test_criterion_10_dead_node_safety(crit1_run, crit2_run, crit4_run, crit5_run, crit6_run):
    violations = []
    for run in (crit1_run, crit2_run, crit4_run, crit5_run, crit6_run):
        for monitor in run.get("monitors", [run.get("monitor")]):
            violations.extend(monitor.violations)
    assert violations == []
    _passed(10, "no dead node was ever revived or re-expanded")
