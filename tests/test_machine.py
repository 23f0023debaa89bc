"""One stateful machine for the lattice rules under any interleaving.

A ``five_var_truth`` session, under every scoring model, starts from a short
stream (batches each observed and searched under one budget), then takes
random steps: observe, ``refine``, ``rethreshold``, a model switch, save/load.
A twin takes the same steps but is never saved or loaded, and refines as if
no lattice remembered its last re-aim.  Each check below is run after every
step; the open-set and alive rules also after every re-aim, inside a search
as well.
"""

import copy
import json
import math
from dataclasses import replace
from unittest import mock

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from bnrefine import (
    ArcPriorMatrix,
    ExpansionFlag,
    NodeStatus,
    PriorConfig,
    SearchParams,
    all_arc_posteriors,
    arc_posterior,
    init,
    observe_batch,
    refine,
    rethreshold,
)
from bnrefine import engine
from bnrefine.engine import SCORING_MODELS
from bnrefine.fileio import serialize_session, session_from_document
from bnrefine.oracle import alpha_for, exhaustive_posterior
from bnrefine.sampling import forward_sample

from helpers import (
    DeadNodeMonitor,
    five_var_truth,
    node_reference_counts,
    node_state,
    reference_arc_posteriors,
    reference_log_ml,
    table_log_ml,
    table_rows,
)

# the searches the machine switches between: the default, each of its four
# thresholds changed alone, and two permissive ones
THRESHOLDS = [
    SearchParams(),
    SearchParams(c_alive=0.2),
    SearchParams(d_open=0.05),
    SearchParams(e_dead=0.005),
    SearchParams(dead_kappa=1.0),
    SearchParams(c_alive=1e-6, d_open=1e-6, e_dead=1e-7),
    SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12),
]

# a search either keeps the last thresholds, as a stream that refines after
# every batch does, or takes new ones
SEARCH_THRESHOLDS = st.one_of(st.none(), st.sampled_from(THRESHOLDS))
# budget stops, not complete searches, leave open sets behind
BUDGETS = st.sampled_from([0, 1, 2, 3, None])

# uncertain arcs only, or a mandatory arc a->b and a forbidden one c->e besides
PRIORS = [ArcPriorMatrix(), ArcPriorMatrix(entries={(0, 1): 1.0, (2, 4): 0.0})]

MAX_BATCH = 30
STREAM = 4  # batches at most before the steps
STEPS = 12


def _unaimed_refine(net, params):
    """``refine`` as if no lattice remembered its last re-aim: every pass
    re-aims."""
    with mock.patch.object(engine, "_aim_stamp", lambda *_: object()):
        return refine(net, params)


def _assert_sets_clear_their_thresholds(net, lattice, params):
    """Every open set clears ``d_open``, and a set is alive exactly when it
    clears ``c_alive``, both against the best of the lattice's last re-aim."""
    best = engine._cached_best(net, lattice)
    open_from = math.log(params.d_open) + best
    alive_from = math.log(params.c_alive) + best
    for node in lattice.nodes.values():
        score = engine._node_score(net, lattice, node)
        if node.expansion is ExpansionFlag.OPEN:
            assert score >= open_from, (lattice.x, node.key)
        assert (node.status is NodeStatus.ALIVE) == (score >= alive_from), (lattice.x, node.key)


def _checked_re_aim(net, lattice, params, re_aim=engine._re_aim):
    re_aim(net, lattice, params)
    _assert_sets_clear_their_thresholds(net, lattice, params)


def _checked(operation, net, params):
    """``operation(net, params)``, checking the open-set and alive rules after
    every re-aim."""
    with mock.patch.object(engine, "_re_aim", _checked_re_aim):
        return operation(net, params)


class LatticeMachine(RuleBasedStateMachine):
    @initialize(
        model=st.sampled_from(SCORING_MODELS),
        priors=st.sampled_from(PRIORS),
        seed=st.integers(0, 10_000),
        batches=st.lists(st.integers(0, MAX_BATCH), min_size=2, max_size=STREAM),
        budget=BUDGETS,
        thresholds=st.sampled_from(THRESHOLDS),
    )
    def start(self, model, priors, seed, batches, budget, thresholds):
        # hypothesis leaves out each rule in about half its examples, so the
        # start runs a stream itself: every lattice then holds several sets,
        # and a search may have stopped inside one, when the steps begin
        truth = five_var_truth()
        self.rows = forward_sample(truth, MAX_BATCH * (STREAM + STEPS), seed)
        self.net = init(truth.schema, priors, PriorConfig())
        self.net.scoring_model = model
        self.params = replace(thresholds, budget=budget)  # the last search asked for
        for size in batches:
            observe_batch(self.net, self.rows[self.net.n_total : self.net.n_total + size])
            _checked(refine, self.net, self.params)
        self.twin = copy.deepcopy(self.net)
        self.monitors = (DeadNodeMonitor(), DeadNodeMonitor())
        self.recounts = {}  # (x, key, rows logged) -> (counts, table log ml)

    @rule(size=st.integers(0, MAX_BATCH))
    def observe(self, size):
        batch = self.rows[self.net.n_total : self.net.n_total + size]
        observe_batch(self.net, batch)
        observe_batch(self.twin, batch)

    @rule(budget=BUDGETS, thresholds=SEARCH_THRESHOLDS)
    def search(self, budget, thresholds):
        self.params = replace(thresholds or self.params, budget=budget)
        report = _checked(refine, self.net, self.params)
        assert report == _checked(_unaimed_refine, self.twin, self.params)

    @rule(thresholds=st.sampled_from(THRESHOLDS))
    def re_aim(self, thresholds):
        self.params = thresholds
        _checked(rethreshold, self.net, thresholds)
        _checked(rethreshold, self.twin, thresholds)

    @rule(model=st.sampled_from(SCORING_MODELS))
    def switch_model(self, model):
        self.net.scoring_model = self.twin.scoring_model = model

    @rule()
    def save_and_load(self):
        self.net = session_from_document(json.loads(serialize_session(self.net)))

    @invariant()
    def every_lattice_keeps_the_rules(self):
        for monitor, net in zip(self.monitors, (self.net, self.twin)):
            monitor.check(net)  # check_lattice, and dead keys only grow
            assert monitor.violations == []

    @invariant()
    def the_twin_is_the_same_session(self):
        assert serialize_session(self.net) == serialize_session(self.twin)
        assert node_state(self.net) == node_state(self.twin)

    @invariant()
    def open_and_alive_sets_clear_their_thresholds(self):
        for lattice in self.net.lattices:
            if lattice.aim == engine._aim_stamp(self.net, lattice, self.params):
                _assert_sets_clear_their_thresholds(self.net, lattice, self.params)

    @invariant()
    def every_stored_set_equals_a_whole_log_recount(self):
        # asleep sets too: observe_batch counts every batch into every stored set
        net = self.net
        for lattice in net.lattices:
            m_x = net.schema.arity(lattice.x)
            for node in lattice.nodes.values():
                at = (lattice.x, node.key, net.n_total)
                if at not in self.recounts:
                    counts = node_reference_counts(net, lattice.x, node)
                    alpha_x = alpha_for(lattice.x, node.parents, net.config, net.schema)
                    self.recounts[at] = counts, reference_log_ml(counts, alpha_x, m_x)
                counts, log_ml = self.recounts[at]
                assert table_rows(node.counts) == counts, at
                assert table_log_ml(lattice, node) == log_ml, at
                cached = node.scores.get("table")
                if cached is not None and cached[0] == net.n_total:
                    assert cached[1] == log_ml, at

    @invariant()
    def every_query_equals_the_reference(self):
        reference = reference_arc_posteriors(self.net)
        for (y, x), p in reference.items():
            assert arc_posterior(self.net, y, x) == p
        assert all_arc_posteriors(self.net).entries == reference
        assert all_arc_posteriors(self.twin).entries == reference

    def teardown(self):
        # with no set dead, a search that kills nothing and opens every set
        # within 1e-300 of the best, below any score gap these few rows can
        # make, stores every set (a closed set would hide its children's
        # mass), so the table model's arc posteriors are the exact ones
        net = getattr(self, "net", None)
        if net is None or any(lattice.dead for lattice in net.lattices):
            return
        net.scoring_model = "table"
        floor = 1e-300
        refine(net, SearchParams(c_alive=floor, d_open=floor, e_dead=floor, dead_kappa=math.inf))
        data = self.rows[: net.n_total]
        for x in range(len(net.schema)):
            exact = exhaustive_posterior(x, data, net.priors, net.config, net.schema)
            for y in range(x):
                assert abs(arc_posterior(net, y, x) - exact.arc_mass(y)) <= 1e-9, (y, x)


LatticeMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=STEPS, deadline=None
)
TestLatticeMachine = LatticeMachine.TestCase
