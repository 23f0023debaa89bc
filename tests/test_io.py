import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from bnrefine import (
    ArcPriorMatrix,
    ConcreteNetwork,
    DomainSchema,
    NodeStatus,
    PriorConfig,
    SearchParams,
    all_arc_posteriors,
    best_network,
    observe_batch,
    refine,
)
from bnrefine import fileio
from bnrefine.dotexport import export_dot
from bnrefine.fileio import (
    CsvFormatError,
    SessionFormatError,
    SpecFormatError,
    load_csv,
    load_network,
    load_session,
    network_from_document,
    network_to_document,
    parse_csv,
    parse_spec,
    print_spec,
    save_session,
    serialize_session,
    session_from_document,
    write_csv,
)
from bnrefine.query import sample_smoothed
from bnrefine.sampling import forward_sample

from helpers import (
    binary_schema,
    chain_v_truth,
    five_var_truth,
    forward_sample_reference,
    fresh_net,
    mixed_arity_network,
    node_state,
    oversize_session_document,
    sampled_net,
    scored_best,
    table_log_ml,
)

LIST_LOG_SESSION = (
    '{"example_log":[[0,0,1],[1,1,1],[1,1,0],[0,0,0],[1,1,1],[0,1,1]],'
    '"format":"bnrefine-session","lattices":[{"last_refine_n":6,"nodes":['
    '{"counts":{"":[3,3]},"expanded":true,"key":0,"log_ml":-5.322033893165353,'
    '"log_prior":0.0,"model_ml":{},"model_params":{},"model_synced":{},"open":false,'
    '"status":"alive","synced_through":6}],"x":0},{"last_refine_n":6,"nodes":['
    '{"counts":{"":[2,4]},"expanded":true,"key":0,"log_ml":-4.985561656544139,'
    '"log_prior":-0.6931471805599453,"model_ml":{},"model_params":{},"model_synced":{},'
    '"open":false,"status":"alive","synced_through":6},{"counts":{"0":[2,1],"1":[0,3]},'
    '"expanded":false,"key":1,"log_ml":-4.1588830833596715,'
    '"log_prior":-0.6931471805599453,"model_ml":{},"model_params":{},"model_synced":{},'
    '"open":true,"status":"alive","synced_through":6}],"x":1},{"last_refine_n":0,"nodes":['
    '{"counts":{"":[2,4]},"expanded":false,"key":0,"log_ml":-4.985561656544139,'
    '"log_prior":-1.3862943611198906,"model_ml":{},"model_params":{},"model_synced":{},'
    '"open":true,"status":"alive","synced_through":6}],"x":2}],"scoring_model":"table",'
    '"spec":{"alpha":1.0,"arcs":[],"default_prior":0.5,"format":"bnrefine-spec",'
    '"variables":[{"name":"a","values":["f","t"]},{"name":"b","values":["f","t"]},'
    '{"name":"c","values":["f","t"]}],"version":1},"version":1}\n'
)

# written by the release that kept dead parent sets as full nodes: five_var_truth,
# 150 rows of seed 1, one default refine; 12 of the 22 stored nodes are dead
V1_DEAD_SESSION = Path(__file__).parent / "data" / "session_v1_dead.json"
# what that release answers after it also observes 100 rows of seed 2 and refines
V1_CONTINUED_ARCS = {
    (0, 1): 1.0,
    (0, 2): 0.22737218241152188,
    (1, 2): 0.9999999999999992,
    (0, 3): 1.0,
    (1, 3): 0.0,
    (2, 3): 1.0,
    (0, 4): 0.0,
    (1, 4): 0.0,
    (2, 4): 1.0,
    (3, 4): 0.0,
}

# written by the release with session version 2: chain_v_truth under the logistic
# model, 120 of 200 rows of seed 12, one refine with budget 8, which fitted lattices
# u, v, w and x and left y and z with table scores only
V2_SESSION = Path(__file__).parent / "data" / "session_v2.json"
# what the current release answers after loading it, and after it also observes
# rows 120-199 and refines
V2_LOADED_ARCS = {
    (0, 1): 1.0,
    (0, 2): 0.1044821577150821,
    (1, 2): 0.9999999999999986,
    (0, 3): 0.0,
    (1, 3): 0.0,
    (2, 3): 1.0,
    (0, 4): 0.0,
    (1, 4): 0.0,
    (2, 4): 0.0,
    (3, 4): 0.0,
    (0, 5): 0.0,
    (1, 5): 0.0,
    (2, 5): 0.0,
    (3, 5): 0.0,
    (4, 5): 0.0,
}
V2_CONTINUED_ARCS = {
    (0, 1): 1.0,
    (0, 2): 0.0,
    (1, 2): 1.0,
    (0, 3): 0.0,
    (1, 3): 0.0,
    (2, 3): 1.0,
    (0, 4): 0.0,
    (1, 4): 0.0,
    (2, 4): 0.0,
    (3, 4): 0.0,
    (0, 5): 0.0,
    (1, 5): 0.0,
    (2, 5): 0.0,
    (3, 5): 1.0,
    (4, 5): 1.0,
}

# written by the release with session version 3: chain_v_truth under the noisy-or
# model, 120 of 200 rows of seed 12, one refine with budget 8, which fitted lattices
# u, v, w and x and left y and z with table scores only
V3_NOISYOR_SESSION = Path(__file__).parent / "data" / "session_v3_noisyor.json"
# what that release answers after loading it, and after it also observes rows
# 120-199 and refines
V3_NOISYOR_LOADED_ARCS = {
    (0, 1): 1.0,
    (0, 2): 0.21116998798867417,
    (1, 2): 0.9999999999999977,
    (0, 3): 0.22006981474683804,
    (1, 3): 0.20453636844140902,
    (2, 3): 0.9999999999999993,
    (0, 4): 0.0,
    (1, 4): 0.0,
    (2, 4): 0.0,
    (3, 4): 0.0,
    (0, 5): 0.0,
    (1, 5): 0.0,
    (2, 5): 0.0,
    (3, 5): 0.0,
    (4, 5): 0.0,
}
V3_NOISYOR_CONTINUED_ARCS = {
    (0, 1): 1.0,
    (0, 2): 0.18344226279343034,
    (1, 2): 0.9999999999999938,
    (0, 3): 0.2563851089612816,
    (1, 3): 0.24595584406407367,
    (2, 3): 0.999999999999996,
    (0, 4): 0.24100001415892403,
    (1, 4): 0.22976480382201964,
    (2, 4): 0.24176221336241474,
    (3, 4): 0.07381385227202172,
    (0, 5): 0.22998712509859462,
    (1, 5): 0.24975843837919876,
    (2, 5): 0.2531453054771265,
    (3, 5): 0.9999999999999976,
    (4, 5): 0.9999999999999976,
}

# written by the release with session version 4: chain_v_truth under the logistic
# model, 300 rows of seed 3, one default refine after the first 150 rows and one
# with d_open 0.005, e_dead 0.0005 and budget 3 after all 300, which left lattice
# y's key-5 node open; it holds open, closed and expanded nodes, dead keys and a
# logistic warm start on every node
V4_SESSION = Path(__file__).parent / "data" / "session_v4.json"

# written by the release with session version 5: chain_v_truth under the table
# model, 120 rows of seed 1, refine(budget=6) after the first 60 rows, then
# d_open 0.005, e_dead 0.0005, hysteresis 0.2 (an option since removed) and
# budget 3 after 100; the last 20 rows were observed and not refined, so every
# lattice's last_refine_n (100 for u-x, 0 for y and z) lags the log; it holds
# alive and asleep, open, closed and expanded nodes and dead keys
V5_SESSION = Path(__file__).parent / "data" / "session_v5.json"

# written by the release with session version 6: chain_v_truth, 350 rows of seed
# 6; under the logistic model refine(budget=6) after the first 150 rows, then under
# the noisy-or model a default refine after 300; the last 50 rows were observed and
# not refined, so asleep nodes lag the log; it holds logistic and noisy-or warm
# starts, alive and asleep, closed and expanded nodes and dead keys
V6_SESSION = Path(__file__).parent / "data" / "session_v6.json"
# what the current release answers after loading the version 5 session and one
# default refine
V5_REFINED_ARCS = {
    (0, 1): 1.0,
    (0, 2): 0.0909432088620994,
    (1, 2): 0.9999999999999977,
    (0, 3): 0.2924940520341327,
    (1, 3): 0.0,
    (2, 3): 1.0,
    (0, 4): 0.08196482007077961,
    (1, 4): 0.11998884876768602,
    (2, 4): 0.0,
    (3, 4): 0.0,
    (0, 5): 0.0,
    (1, 5): 0.0,
    (2, 5): 0.0,
    (3, 5): 0.3852486711666809,
    (4, 5): 0.9999999999999969,
}

# written by the release with session version 7 that still had the hysteresis
# factor: the criterion-6 oscillation stream of tests/test_acceptance.py for
# parent a and child b, _oscillation_batches(ln 0.1, n_batches=2): 46 warm-up
# rows, then an upward batch of 7 rows and a downward one of 4, each followed by
# a default refine (c_alive 0.1, d_open 0.01, e_dead 0.001, hysteresis 0.5);
# after the downward batch b's set {a} scored its root's score + ln 0.1 - 0.19,
# and the file stores it alive, alive only by the hysteresis factor
V7_SESSION = Path(__file__).parent / "data" / "session_v7.json"
# after one default refine, which demotes {a}: a set is alive exactly when it
# clears ln c_alive + best
V7_REFINED_ARCS = {(0, 1): 0.0}

# every committed session, and what the release that wrote the newest of them
# answers on loading each one
GOLDEN_SESSIONS = sorted((Path(__file__).parent / "data").glob("session_v*.json"))
GOLDEN_LOADED_ARCS = {
    "session_v1_dead.json": {
        (0, 1): 1.0,
        (0, 2): 0.0,
        (1, 2): 1.0,
        (0, 3): 1.0,
        (1, 3): 0.0,
        (2, 3): 1.0,
        (0, 4): 0.0,
        (1, 4): 0.0,
        (2, 4): 1.0,
        (3, 4): 0.0,
    },
    "session_v2.json": V2_LOADED_ARCS,
    "session_v3_noisyor.json": V3_NOISYOR_LOADED_ARCS,
    "session_v4.json": {
        (0, 1): 1.0,
        (0, 2): 0.170480533932792,
        (1, 2): 0.9999999999999927,
        (0, 3): 0.0,
        (1, 3): 0.0,
        (2, 3): 1.0,
        (0, 4): 0.038982363205436646,
        (1, 4): 0.0,
        (2, 4): 0.0,
        (3, 4): 0.21055113137180678,
        (0, 5): 0.0,
        (1, 5): 0.0,
        (2, 5): 0.0,
        (3, 5): 1.0,
        (4, 5): 1.0,
    },
    "session_v5.json": {
        (0, 1): 1.0,
        (0, 2): 0.0909432088620994,
        (1, 2): 0.9999999999999977,
        (0, 3): 0.27271659293985767,
        (1, 3): 0.06504932570376232,
        (2, 3): 0.9323833802542871,
        (0, 4): 0.0,
        (1, 4): 0.0,
        (2, 4): 0.0,
        (3, 4): 0.0,
        (0, 5): 0.0,
        (1, 5): 0.0,
        (2, 5): 0.0,
        (3, 5): 0.0,
        (4, 5): 0.0,
    },
    "session_v6.json": {
        (0, 1): 1.0,
        (0, 2): 0.24800075601641897,
        (1, 2): 1.0,
        (0, 3): 0.24605827634095062,
        (1, 3): 0.25397639785597803,
        (2, 3): 1.0,
        (0, 4): 0.08742553207876567,
        (1, 4): 0.20259726174503753,
        (2, 4): 0.2608037542076616,
        (3, 4): 0.09902992823626938,
        (0, 5): 0.20228520665671995,
        (1, 5): 0.39559784035756584,
        (2, 5): 0.17388540197698338,
        (3, 5): 0.9999999999999937,
        (4, 5): 0.9999999999999937,
    },
    "session_v7.json": {(0, 1): 0.07634971742631823},
}


VERSION_SESSIONS = {2: V2_SESSION, 4: V4_SESSION, 6: V6_SESSION}


def session_doc(version: int) -> dict:
    """A session document with restricted fits: 2, 4 and 6 as committed, 8 the
    version-6 golden resaved, and 7 that document as version 7 wrote it, each
    node with the number of log rows it had absorbed."""
    if version in (7, 8):
        doc = json.loads(serialize_session(load_session(V6_SESSION)))
        if version == 7:
            doc["version"] = 7
            for lattice in doc["lattices"]:
                for node in lattice["nodes"]:
                    node["synced_through"] = len(doc["example_log"])
    else:
        doc = json.loads(VERSION_SESSIONS[version].read_text(encoding="utf-8"))
    assert doc["version"] == version
    return doc


# the table-model session loop, run in a fresh interpreter: it must never import
# the restricted models
TABLE_LOOP_SCRIPT = """
import sys

from bnrefine import (
    ArcPriorMatrix, DomainSchema, PriorConfig, SearchParams, VariableSpec,
    all_arc_posteriors, init, observe_batch, refine,
)
from bnrefine.fileio import load_session, save_session

schema = DomainSchema(tuple(VariableSpec(n, ("f", "t")) for n in "abc"))
net = init(schema, ArcPriorMatrix(), PriorConfig())
observe_batch(net, [(0, 1, 1), (1, 1, 0), (1, 0, 1), (0, 0, 0)] * 5)
refine(net, SearchParams())
all_arc_posteriors(net)
save_session(sys.argv[1], net)
all_arc_posteriors(load_session(sys.argv[1]))
print("\\n".join(sorted(sys.modules)))
"""

SPEC_DOC = {
    "format": "bnrefine-spec",
    "version": 1,
    "alpha": 2.0,
    "default_prior": 0.4,
    "variables": [
        {"name": "rain", "values": ["no", "yes"]},
        {"name": "sprinkler", "values": ["off", "on"]},
        {"name": "wet", "values": ["dry", "wet"]},
    ],
    "arcs": [
        {"from": "rain", "to": "wet", "prior": 1.0},
        {"from": "sprinkler", "to": "wet", "prior": 0.7},
    ],
}


class TestParseSpec:
    def test_round_trip(self):
        schema, priors, config = parse_spec(json.dumps(SPEC_DOC))
        assert [v.name for v in schema.variables] == ["rain", "sprinkler", "wet"]
        assert config.alpha == 2.0
        assert priors.prior(0, 2) == 1.0
        assert priors.prior(1, 2) == 0.7
        assert priors.prior(0, 1) == 0.4  # default
        text = print_spec(schema, priors, config)
        assert parse_spec(text) == (schema, priors, config)
        assert print_spec(*parse_spec(text)) == text

    def test_no_arcs_means_all_uncertain(self):
        doc = dict(SPEC_DOC, arcs=[], default_prior=0.5)
        schema, priors, _ = parse_spec(json.dumps(doc))
        for x in range(3):
            for y in range(x):
                assert priors.prior(y, x) == 0.5

    def test_duplicate_arc_rejected(self):
        doc = dict(SPEC_DOC)
        doc["arcs"] = SPEC_DOC["arcs"] + [{"from": "rain", "to": "wet", "prior": 0.2}]
        with pytest.raises(SpecFormatError, match=r"arcs\[2\]"):
            parse_spec(json.dumps(doc))

    def test_arc_against_ordering_rejected(self):
        doc = dict(SPEC_DOC)
        doc["arcs"] = [{"from": "wet", "to": "rain", "prior": 0.5}]
        with pytest.raises(SpecFormatError, match="precede"):
            parse_spec(json.dumps(doc))

    def test_unknown_variable_rejected(self):
        doc = dict(SPEC_DOC)
        doc["arcs"] = [{"from": "frost", "to": "wet", "prior": 0.5}]
        with pytest.raises(SpecFormatError, match="frost"):
            parse_spec(json.dumps(doc))

    def test_prior_out_of_range_rejected(self):
        doc = dict(SPEC_DOC)
        doc["arcs"] = [{"from": "rain", "to": "wet", "prior": 1.5}]
        with pytest.raises(SpecFormatError, match=r"arcs\[0\]"):
            parse_spec(json.dumps(doc))

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_alpha_must_be_finite(self, alpha):
        # "alpha": Infinity loaded, and every score was then NaN
        with pytest.raises(SpecFormatError, match="alpha must be positive and finite"):
            parse_spec(json.dumps(dict(SPEC_DOC, alpha=alpha)))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("arcs", 1, "prior"), True, r"arcs\[1\]: prior: True is not a number"),
            (("alpha",), True, "alpha: True is not a number"),
            (("default_prior",), True, "default_prior: True is not a number"),
            (("arcs",), 5, "arcs: 5 is not a list"),
            (("arcs",), None, "arcs: None is not a list"),
            (("arcs",), "ab", "arcs: 'ab' is not a list"),
            (("arcs",), {"from": "rain"}, r"arcs: \{'from': 'rain'\} is not a list"),
            (("arcs", 0, "from"), ["rain"], r"arcs\[0\]: from \['rain'\] is not a variable name"),
            (("arcs", 1, "to"), {"wet": 1}, r"arcs\[1\]: to \{'wet': 1\} is not a variable name"),
            (("version",), True, "unsupported spec version True"),
            (("version",), 1.0, r"unsupported spec version 1\.0"),
        ],
        ids=[
            "prior-true",
            "alpha-true",
            "default_prior-true",
            "arcs-a-number",
            "arcs-null",
            "arcs-a-string",
            "arcs-a-dict",
            "from-a-list",
            "to-a-dict",
            "version-true",
            "version-a-float",
        ],
    )
    def test_a_malformed_field_is_named(self, path, value, message):
        # true loaded as 1.0: a mandatory arc, a concentration of 1, or
        # version 1, as did a version of 1.0; a number or null for arcs, or a
        # list or dict for an endpoint, escaped as a TypeError, and a string
        # or dict arcs was walked item by item
        doc = copy.deepcopy(SPEC_DOC)
        *outer, last = path
        target = doc
        for key in outer:
            target = target[key]
        target[last] = value
        with pytest.raises(SpecFormatError, match=message):
            parse_spec(json.dumps(doc))

    def _with_variable(self, **fields):
        doc = copy.deepcopy(SPEC_DOC)
        doc["variables"][1].update(fields)
        return json.dumps(doc)

    def test_values_string_is_not_a_list(self):
        # "ftx" loaded as the three labels f, t and x
        with pytest.raises(SpecFormatError, match=r"variables\[1\]: values 'ftx' is not a list"):
            parse_spec(self._with_variable(values="ftx"))

    def test_values_must_be_strings(self):
        # the label 0 was written to CSV as "0" and read back as the label "0"
        with pytest.raises(SpecFormatError, match=r"variables\[1\]: values \['0', 0\]"):
            parse_spec(self._with_variable(values=["0", 0]))

    def test_name_must_be_a_string(self):
        # 5 escaped as a bare AttributeError from the identifier check
        with pytest.raises(SpecFormatError, match=r"variables\[1\]: name 5 is not a string"):
            parse_spec(self._with_variable(name=5))

    def test_nested_values_are_not_labels(self):
        # [[1], [2]] escaped as a bare TypeError from the duplicate check
        with pytest.raises(SpecFormatError, match=r"variables\[1\]: values \[\[1\], \[2\]\]"):
            parse_spec(self._with_variable(values=[[1], [2]]))


class TestCsv:
    def setup_method(self):
        self.schema = binary_schema("ab")

    def test_empty_data_with_header(self):
        assert parse_csv("a,b\n", self.schema) == []

    def test_unknown_label_names_row_and_column(self):
        with pytest.raises(CsvFormatError, match=r"row 3.*'b'.*'maybe'"):
            parse_csv("a,b\nf,t\nf,maybe\n", self.schema)

    def test_missing_value_rejected(self):
        with pytest.raises(CsvFormatError, match="missing value"):
            parse_csv("a,b\nf,\n", self.schema)

    def test_permuted_columns_map_by_name(self):
        assert parse_csv("b,a\nt,f\nf,t\n", self.schema) == [(0, 1), (1, 0)]

    def test_header_mismatch_rejected(self):
        with pytest.raises(CsvFormatError, match="header"):
            parse_csv("a,c\nf,t\n", self.schema)

    def test_write_then_load_is_identity(self, tmp_path):
        examples = [(0, 1), (1, 1), (0, 0)]
        path = tmp_path / "data.csv"
        write_csv(path, examples, self.schema)
        assert load_csv(path, self.schema) == examples


class TestForwardSample:
    def test_empty(self):
        assert forward_sample(five_var_truth(), 0, seed=1) == []

    def test_law_of_large_numbers(self):
        net = ConcreteNetwork(binary_schema("a"), ((),), (np.array([[0.25, 0.75]]),))
        data = forward_sample(net, 100_000, seed=2)
        frequency = sum(e[0] for e in data) / len(data)
        assert abs(frequency - 0.75) < 0.01

    def test_deterministic_rows_follow_parent(self):
        tables = (np.array([[0.5, 0.5]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        net = ConcreteNetwork(binary_schema("ab"), ((), (0,)), tables)
        for a, b in forward_sample(net, 500, seed=3):
            assert a == b

    def test_same_seed_same_sample(self):
        truth = five_var_truth()
        assert forward_sample(truth, 50, seed=4) == forward_sample(truth, 50, seed=4)

    @pytest.mark.parametrize("n", [0, 1, 7, 1000, 2500])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_whole_array_draws_equal_the_row_by_row_reference(self, seed, n):
        # 2500 rows span three blocks of sampling.BLOCK_ROWS
        empty = ConcreteNetwork(DomainSchema(()), (), ())
        for network in (five_var_truth(), mixed_arity_network(seed), empty):
            assert forward_sample(network, n, seed) == forward_sample_reference(network, n, seed)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            forward_sample(five_var_truth(), -1, seed=0)


class TestSession:
    def test_a_saved_file_takes_the_mode_of_a_plain_write(self, tmp_path):
        # every file went through mkstemp's 0600 temp file, whatever the umask,
        # and an overwrite changed the mode of the file it replaced
        net = fresh_net("abc")
        new, existing = tmp_path / "new.json", tmp_path / "existing.json"
        existing.write_text("{}")
        existing.chmod(0o640)
        umask = os.umask(0o022)
        try:
            save_session(new, net)
            save_session(existing, net)
        finally:
            os.umask(umask)
        assert oct(new.stat().st_mode & 0o777) == oct(0o644)
        assert oct(existing.stat().st_mode & 0o777) == oct(0o640)
        assert load_session(existing) == load_session(new)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.json", "new.json"]

    def test_fresh_round_trip(self, tmp_path):
        net = fresh_net("abc")
        path = tmp_path / "s.json"
        save_session(path, net)
        loaded = load_session(path)
        assert node_state(loaded) == node_state(net)
        assert all_arc_posteriors(loaded).entries == all_arc_posteriors(net).entries

    def test_refined_state_round_trips_bit_stably(self, tmp_path):
        net, _ = sampled_net(five_var_truth(), 120, seed=5)
        refine(net, SearchParams())
        path = tmp_path / "s.json"
        save_session(path, net)
        loaded = load_session(path)
        assert serialize_session(loaded) == serialize_session(net)
        assert node_state(loaded) == node_state(net)
        for a, b in zip(net.lattices, loaded.lattices):
            assert scored_best(net, a) == scored_best(loaded, b)

    @pytest.mark.parametrize("model", ["table", "noisy-or", "logistic"])
    def test_a_query_before_a_save_leaves_its_bytes_unchanged(self, model):
        # a restricted query refitted the alive sets that lagged their scores
        # and stored the fits as warm starts, so the save wrote other bytes
        data = forward_sample(five_var_truth(), 150, seed=8)
        sessions = []
        for query in (False, True):
            net = fresh_net("abcde")
            net.scoring_model = model
            observe_batch(net, data[:100])
            refine(net, SearchParams())
            observe_batch(net, data[100:])
            if query:
                all_arc_posteriors(net)
                best_network(net)
                sample_smoothed(net, 1)
            sessions.append(serialize_session(net))
        assert sessions[0] == sessions[1]

    def test_a_network_equals_its_copy_and_its_loaded_session(self):
        # == compares the log by value and every persistent field, and no
        # cache: neither the cached scores nor the bit index are saved
        def loaded(net):
            return session_from_document(json.loads(serialize_session(net)))

        net, data = sampled_net(five_var_truth(), 130, seed=5)
        refine(net, SearchParams(budget=3))
        assert any(n.scores for lattice in net.lattices for n in lattice.nodes.values())
        assert copy.deepcopy(net) == net and loaded(net) == net
        refine(net, SearchParams())
        observe_batch(net, forward_sample(five_var_truth(), 40, seed=6))
        stored = [n for lattice in net.lattices for n in lattice.nodes.values()]
        assert any(n.status is NodeStatus.ASLEEP for n in stored)
        assert all(n.counts.total == net.n_total for n in stored)
        assert copy.deepcopy(net) == net and loaded(net) == net
        longer = loaded(net)
        observe_batch(longer, data[:1])
        assert longer != net and net != longer

    @pytest.mark.parametrize("model", ["table", "noisy-or", "logistic"])
    def test_a_loaded_session_is_its_log_observed_as_one_batch(self, tmp_path, model):
        # loading is init, the stored sets, then one observe_batch of the
        # whole log: the network equals the live one it was saved from
        data = forward_sample(five_var_truth(), 150, seed=9)
        net = fresh_net("abcde")
        net.scoring_model = model
        for start in range(0, 150, 50):
            observe_batch(net, data[start : start + 50])
            refine(net, SearchParams())
        path = tmp_path / "s.json"
        save_session(path, net)
        with mock.patch.object(fileio, "observe_batch", wraps=fileio.observe_batch) as spy:
            loaded = load_session(path)
        assert spy.call_count == 1
        (target, rows), _ = spy.call_args
        assert target is loaded and rows == json.loads(path.read_text())["example_log"]
        assert loaded == net
        assert all_arc_posteriors(loaded).entries == all_arc_posteriors(net).entries

    def test_mid_search_round_trip_then_refine_matches_uninterrupted(self, tmp_path):
        net_a, _ = sampled_net(five_var_truth(), 150, seed=6)
        net_b = copy.deepcopy(net_a)
        refine(net_a, SearchParams(budget=5))
        path = tmp_path / "mid.json"
        save_session(path, net_a)
        resumed = load_session(path)
        refine(resumed, SearchParams())
        refine(net_b, SearchParams())
        assert serialize_session(resumed) == serialize_session(net_b)

    def test_session_with_a_half_searched_lattice_loads_and_resaves(self, tmp_path):
        # a version 1 file, written by the release that kept the log as a list
        # of tuples and absorbed examples one at a time; lattice c was never refined
        path = tmp_path / "old.json"
        path.write_text(LIST_LOG_SESSION, encoding="utf-8")
        net = load_session(path)
        assert net.n_total == 6 and net.example_log.dtype == np.uint8
        observe_batch(net, [(1, 0, 1), (0, 1, 0)])
        refine(net, SearchParams())
        for lattice in net.lattices:
            for node in lattice.nodes.values():
                assert node.counts.total == 8
        save_session(path, net)
        text = path.read_text(encoding="utf-8")
        assert json.loads(text)["version"] == 8
        assert serialize_session(load_session(path)) == text

    def test_version_2_session_loads_and_continues(self):
        doc = json.loads(V2_SESSION.read_text(encoding="utf-8"))
        assert doc["version"] == 2 and doc["scoring_model"] == "logistic"
        net = session_from_document(doc)
        assert all_arc_posteriors(net).entries == V2_LOADED_ARCS
        observe_batch(net, forward_sample(chain_v_truth(), 200, seed=12)[120:])
        refine(net, SearchParams())
        assert all_arc_posteriors(net).entries == V2_CONTINUED_ARCS
        resaved = json.loads(serialize_session(net))
        assert resaved["version"] == 8
        for lattice in resaved["lattices"]:
            for node in lattice["nodes"]:
                assert "counts" not in node and "log_ml" not in node and "fits" not in node
                assert "model_ml" not in node and "model_params" not in node
                assert "log_prior" not in node and "open" not in node and "expanded" not in node

    @pytest.mark.parametrize("path", GOLDEN_SESSIONS, ids=lambda path: path.name)
    def test_golden_session_loads_and_resaves_at_the_current_version(self, path):
        net = load_session(path)
        assert all_arc_posteriors(net).entries == GOLDEN_LOADED_ARCS[path.name]
        text = serialize_session(net)
        assert json.loads(text)["version"] == 8
        assert serialize_session(session_from_document(json.loads(text))) == text

    def test_a_node_document_holds_its_key_status_and_expansion_only(self):
        # no count, score, fit, prior or absorbed-row count: loading counts
        # every stored set on the whole log, asleep ones too
        net, _ = sampled_net(five_var_truth(), 120, seed=5)
        refine(net, SearchParams())
        observe_batch(net, forward_sample(five_var_truth(), 40, seed=6))
        doc = json.loads(serialize_session(net))
        assert doc["version"] == 8
        nodes = [n for lattice in doc["lattices"] for n in lattice["nodes"]]
        assert {n["status"] for n in nodes} == {"alive", "asleep"}
        assert all(n.keys() == {"key", "status", "expansion"} for n in nodes)
        assert session_from_document(doc) == net

    def test_a_loaded_status_is_the_stored_one_until_a_refine(self):
        # a session stores each set's status: loading neither re-aims nor
        # rescores, so b's set {a} stays alive below ln c_alive + best until
        # the first refine re-aims b and demotes it
        net = load_session(V7_SESSION)
        lattice = net.lattices[1]
        node = lattice.nodes[0b1]
        assert node.status is NodeStatus.ALIVE
        gap = scored_best(net, lattice) - node.log_prior - table_log_ml(lattice, node)
        assert -gap < math.log(SearchParams().c_alive)
        assert all_arc_posteriors(net).entries == GOLDEN_LOADED_ARCS["session_v7.json"]
        refine(net, SearchParams())
        assert node.status is NodeStatus.ASLEEP
        assert all_arc_posteriors(net).entries == V7_REFINED_ARCS

    @pytest.mark.parametrize("last_refine_n", [0, 100, 120, 10**6])
    def test_a_stored_last_refine_n_is_ignored(self, last_refine_n):
        # set to the log's 120 rows, it stopped the release that wrote it from
        # re-aiming its lattices at the 20 rows observed after the last refine
        doc = json.loads(V5_SESSION.read_text(encoding="utf-8"))
        assert doc["version"] == 5 and len(doc["example_log"]) == 120
        twin = session_from_document(copy.deepcopy(doc))
        for lattice in doc["lattices"]:
            lattice["last_refine_n"] = last_refine_n
        net = session_from_document(doc)
        assert refine(net, SearchParams()) == refine(twin, SearchParams())
        assert serialize_session(net) == serialize_session(twin)
        assert all_arc_posteriors(net).entries == V5_REFINED_ARCS

    @pytest.mark.parametrize("path", [V2_SESSION, V4_SESSION], ids=lambda path: path.name)
    def test_stored_log_priors_are_ignored(self, path):
        # loaded unchecked, this log_prior moved the u->w posterior from 0.104 to
        # 0.945 in the version 2 session, and from 0.170 to 0.968 in the version 4 one
        doc = json.loads(path.read_text(encoding="utf-8"))
        node = next(n for n in doc["lattices"][2]["nodes"] if n["key"] == 3)
        node["log_prior"] += 5.0
        loaded = session_from_document(doc)
        assert all_arc_posteriors(loaded).entries == GOLDEN_LOADED_ARCS[path.name]

    @pytest.mark.parametrize("version", [1, 2, 4])
    def test_a_node_both_open_and_expanded_is_a_session_format_error(self, version):
        # the engine never writes one, and versions 5 to 7 cannot say it
        if version == 1:
            doc = json.loads(LIST_LOG_SESSION)
            node = doc["lattices"][1]["nodes"][0]
        else:
            doc = session_doc(version)
            node = next(n for n in doc["lattices"][2]["nodes"] if n["key"] == 2)
        assert node["expanded"] and not node["open"]
        node["open"] = True
        message = f"lattice {'b' if version == 1 else 'w'!r}: a node is both open and expanded"
        with pytest.raises(SessionFormatError, match=message):
            session_from_document(doc)

    @pytest.mark.parametrize("expansion", ["reopened", "OPEN", None])
    def test_unknown_expansion_is_a_session_format_error(self, expansion):
        doc = session_doc(7)
        doc["lattices"][2]["nodes"][0]["expansion"] = expansion
        with pytest.raises(
            SessionFormatError, match=f"lattice 'w': {expansion!r} is not a valid ExpansionFlag"
        ):
            session_from_document(doc)

    @pytest.mark.parametrize("version", [2, 4, 6, 7, 8])
    def test_status_dead_is_a_version_1_encoding_only(self, version):
        # at version 4 this node loaded silently as a dead key
        doc = session_doc(version)
        next(n for n in doc["lattices"][2]["nodes"] if n["key"] == 2)["status"] = "dead"
        message = "lattice 'w': 'dead' is not a valid NodeStatus"
        with pytest.raises(SessionFormatError, match=message):
            session_from_document(doc)

    def test_stored_model_scores_are_ignored(self):
        # loaded unchecked, this model_ml moved the u->w posterior from 0.104 to 0.00079
        doc = json.loads(V2_SESSION.read_text(encoding="utf-8"))
        node = next(n for n in doc["lattices"][2]["nodes"] if n["key"] == 2)
        node["model_ml"]["logistic"] += 5.0
        assert node["model_synced"]["logistic"] == len(doc["example_log"])
        assert all_arc_posteriors(session_from_document(doc)).entries == V2_LOADED_ARCS

    def test_version_3_noisyor_session_loads_and_continues(self):
        doc = json.loads(V3_NOISYOR_SESSION.read_text(encoding="utf-8"))
        assert doc["version"] == 3 and doc["scoring_model"] == "noisy-or"
        net = session_from_document(doc)
        assert all_arc_posteriors(net).entries == V3_NOISYOR_LOADED_ARCS
        observe_batch(net, forward_sample(chain_v_truth(), 200, seed=12)[120:])
        refine(net, SearchParams())
        assert all_arc_posteriors(net).entries == V3_NOISYOR_CONTINUED_ARCS

    @pytest.mark.parametrize("version", [2, 4, 6])
    @pytest.mark.parametrize(
        "kind, point",
        [
            ("table", [0.1, 0.2]),
            ("logistic", 0.5),
            ("logistic", [0.1]),
            ("logistic", [0.1, math.nan]),
            ("logistic", [0.1, 10**400]),
        ],
    )
    def test_stored_warm_starts_are_ignored(self, version, kind, point):
        # versions 4 to 6 kept each fit's point as the next fit's start, 1 to 3
        # its natural parameters; a fit now starts from the counts alone, so
        # neither a well-formed point nor a malformed one changes an answer
        path = VERSION_SESSIONS[version]
        doc = session_doc(version)
        unedited = serialize_session(session_from_document(copy.deepcopy(doc)))
        node = next(n for n in doc["lattices"][2]["nodes"] if n["key"] == 2)
        points = node["fits" if version >= 4 else "model_params"]
        assert len(points["logistic"]) == 2  # w's key-2 node has one parent, v
        for other in doc["lattices"][3]["nodes"]:
            other.pop("fits" if version >= 4 else "model_params")
        points[kind] = point
        net = session_from_document(doc)
        assert serialize_session(net) == unedited
        assert all_arc_posteriors(net).entries == GOLDEN_LOADED_ARCS[path.name]

    def test_table_session_loop_never_imports_the_restricted_models(self, tmp_path):
        import bnrefine

        env = dict(os.environ, PYTHONPATH=str(Path(bnrefine.__file__).parent.parent))
        result = subprocess.run(
            [sys.executable, "-c", TABLE_LOOP_SCRIPT, str(tmp_path / "s.json")],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        loaded = result.stdout.split()
        assert "bnrefine.engine" in loaded and "bnrefine.fileio" in loaded
        assert "bnrefine.localmodels" not in loaded

    @pytest.mark.parametrize("synced", [-3, 2.7, True, 7, 2])
    def test_a_stored_synced_through_is_ignored(self, synced):
        # versions 1 to 7 stored the log rows each set had absorbed; -3, 2.7
        # and true once loaded and had a refine count 9, 10 and 11 rows of the
        # 6-row log, 7 was refused, and 2 put an alive set behind the log.
        # Every set is now counted on the whole log whatever the file says.
        unedited = session_from_document(json.loads(LIST_LOG_SESSION))
        doc = json.loads(LIST_LOG_SESSION)
        node = doc["lattices"][2]["nodes"][0]
        assert node["status"] == "alive" and node["synced_through"] == 6
        node["synced_through"] = synced
        net = session_from_document(doc)
        assert node_state(net) == node_state(unedited)
        assert serialize_session(net) == serialize_session(unedited)
        assert all(n.counts.total == 6 for lattice in net.lattices for n in lattice.nodes.values())

    def test_stored_counts_and_log_ml_are_recounted_from_the_log(self):
        # loaded unchecked, this log_ml moved the a->b posterior from 0.696 to
        # 0.952, and these counts swapped the rows of b's best_network table
        unedited = session_from_document(json.loads(LIST_LOG_SESSION))
        doc = json.loads(LIST_LOG_SESSION)
        node = doc["lattices"][1]["nodes"][1]
        node["log_ml"] = -2.0
        node["counts"] = {"0": [0, 3], "1": [2, 1]}
        edited = session_from_document(doc)
        assert node_state(edited) == node_state(unedited)
        assert all_arc_posteriors(edited).entries == all_arc_posteriors(unedited).entries
        for a, b in zip(best_network(edited).tables, best_network(unedited).tables):
            assert np.array_equal(a, b)

    def test_version_1_dead_nodes_load_as_tombstones(self):
        text = V1_DEAD_SESSION.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert doc["version"] == 1
        net = session_from_document(doc)
        for lattice, lattice_doc in zip(net.lattices, doc["lattices"]):
            dead = {d["key"] for d in lattice_doc["nodes"] if d["status"] == "dead"}
            assert lattice.dead == dead
            assert set(lattice.nodes) == {d["key"] for d in lattice_doc["nodes"]} - dead
        assert sum(len(lattice.dead) for lattice in net.lattices) == 12
        observe_batch(net, forward_sample(five_var_truth(), 100, seed=2))
        refine(net, SearchParams())
        assert all_arc_posteriors(net).entries == V1_CONTINUED_ARCS

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("key beyond the lattice", "node key 4 names no parent set"),
            ("negative key", "node key -1 names no parent set"),
            ("dead key beyond the lattice", "node key 2 names no parent set"),
            ("key not an integer", "node key '1' is not an integer"),
            ("repeated key", "a node key is repeated"),
            ("stored and dead", r"keys \[1\] are stored and dead"),
            ("no stored node", "no stored node"),
            ("every set asleep", "no alive node"),
            ("a child of an expanded set dropped", r"expanded node 0 has children \[1\] neither"),
            ("the root dropped", "the root, node key 0, is neither stored nor dead"),
        ],
    )
    def test_malformed_node_keys_are_a_session_format_error(self, tmp_path, fault, message):
        # the first two used to load and move the a->b arc posterior; of the
        # last three, which loaded too, the first failed its first query, and
        # no permissive refine of the last two stored the dropped set again.
        # Each is refused before the log is counted into any set
        net = fresh_net("ab")
        observe_batch(net, [(0, 0), (1, 1), (1, 1), (0, 1)] * 5)
        refine(net, SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12))
        doc = json.loads(serialize_session(net))
        lattice = doc["lattices"][1]
        assert [n["key"] for n in lattice["nodes"]] == [0, 1] and lattice["dead"] == []
        extra = copy.deepcopy(lattice["nodes"][1])
        if fault == "key beyond the lattice":
            lattice["nodes"].append(dict(extra, key=4))
        elif fault == "negative key":
            lattice["nodes"].append(dict(extra, key=-1))
        elif fault == "dead key beyond the lattice":
            lattice["dead"] = [2]
        elif fault == "key not an integer":
            lattice["nodes"][1]["key"] = "1"
        elif fault == "repeated key":
            lattice["nodes"].append(extra)
        elif fault == "stored and dead":
            lattice["dead"] = [1]
        elif fault == "no stored node":
            lattice["nodes"] = []
        elif fault == "every set asleep":
            for node in lattice["nodes"]:
                node["status"] = "asleep"
        elif fault == "a child of an expanded set dropped":
            del lattice["nodes"][1]
        else:
            del lattice["nodes"][0]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with mock.patch.object(fileio, "observe_batch", wraps=fileio.observe_batch) as counted:
            with pytest.raises(SessionFormatError, match=f"lattice 'b': {message}"):
                load_session(path)
        counted.assert_not_called()

    def test_a_set_no_int64_code_indexes_is_a_session_format_error(self, tmp_path):
        # it used to be stored, and counting the log raised a bare OverflowError;
        # key -1, read as every candidate chosen, used to meet the same rule
        doc = oversize_session_document()
        path = tmp_path / "s.json"
        for key, message in [
            (1, rf"{2**64} count cells for parent set 0x1, past the 2\*\*63"),
            (-1, "node key -1 names no parent set$"),
        ]:
            doc["lattices"][63]["nodes"][-1]["key"] = key
            path.write_text(json.dumps(doc))
            with mock.patch.object(fileio, "observe_batch") as counted:
                with pytest.raises(SessionFormatError, match=rf"^lattice 'v63': {message}"):
                    load_session(path)
            counted.assert_not_called()  # refused before any row is counted

    @pytest.mark.parametrize("x", [2, 7, -1, True, 1.0, "1"])
    def test_lattice_x_outside_the_schema_is_a_session_format_error(self, tmp_path, x):
        # 7 escaped as a bare IndexError
        net = fresh_net("ab")
        observe_batch(net, [(0, 1), (1, 0)])
        doc = json.loads(serialize_session(net))
        doc["lattices"][1]["x"] = x
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        message = f"lattice x {x!r} names no variable of the 2-variable schema"
        with pytest.raises(SessionFormatError, match=re.escape(message)):
            load_session(path)

    def test_truncated_file_is_a_clean_error(self, tmp_path):
        net = fresh_net("ab")
        path = tmp_path / "s.json"
        save_session(path, net)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(SessionFormatError):
            load_session(path)

    def test_version_mismatch_rejected(self, tmp_path):
        # true loaded as version 1 and 8.0 as version 8
        net = fresh_net("ab")
        path = tmp_path / "s.json"
        save_session(path, net)
        doc = json.loads(path.read_text())
        for version in (99, True, 8.0):
            doc["version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(SessionFormatError, match=f"unsupported session version {version!r}"):
                load_session(path)

    @pytest.mark.parametrize(
        "log, message",
        [
            ([[0, 1], [0, 2]], "value index 2 out of range for 'b'"),
            ([[0, 1], [0]], "example has 1 values, schema has 2"),
            ([[0, 1], [True, 1]], "value for 'a' is not an index: True"),
            ([[0, 1], [0, 1.5]], "value for 'b' is not an index: 1.5"),
            ([[0, 1], ["1", 0]], "value for 'a' is not an index: '1'"),
            ([[0, 1], [2**70, 0]], f"value index {2**70} out of range for 'a'"),
            (None, "example log is not a list of rows"),
        ],
    )
    def test_corrupt_log_cell_is_a_session_format_error(self, tmp_path, log, message):
        # true, 1.5 and "1" were silently truncated to 1 before the log was
        # validated as a whole block
        net = fresh_net("ab")
        observe_batch(net, [(0, 1), (1, 0)])
        doc = json.loads(serialize_session(net))
        doc["example_log"] = log
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SessionFormatError, match=message):
            load_session(path)

    def test_load_failure_leaves_original_file(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(SessionFormatError):
            load_session(path)
        assert not path.exists()


class TestNetworkDocument:
    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_cpt_entries_must_be_finite(self, entry):
        # NaN loaded: forward_sample drew value 0 for every row, and the
        # log likelihood of any data was nan
        doc = json.loads(json.dumps(network_to_document(five_var_truth())))
        doc["tables"][3][1] = [entry, 0.5]
        with pytest.raises(SessionFormatError, match="CPT for 'd' has entries that are not finite"):
            network_from_document(doc)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("values", "ft", r"variables\[0\]: values 'ft' is not a list of strings"),
            ("values", ["f", 0], r"variables\[0\]: values \['f', 0\] is not a list of strings"),
            ("name", 5, r"variables\[0\]: name 5 is not a string"),
        ],
        ids=["values-a-string", "values-with-a-number", "name-a-number"],
    )
    def test_variable_list_is_read_as_a_spec_reads_it(self, field, value, message):
        # the parent loaded "ft" as the labels ('f', 't') and ["f", 0] with a
        # non-string label, and let name 5 escape as an AttributeError
        doc = json.loads(json.dumps(network_to_document(chain_v_truth())))
        doc["variables"][0][field] = value
        with pytest.raises(SessionFormatError, match=message):
            network_from_document(doc)
        spec = json.loads(print_spec(chain_v_truth().schema, ArcPriorMatrix(), PriorConfig()))
        spec["variables"][0][field] = value
        with pytest.raises(SpecFormatError, match=message):
            parse_spec(json.dumps(spec))

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_an_integer(self, version):
        # both loaded as version 1
        doc = dict(network_to_document(five_var_truth()), version=version)
        with pytest.raises(SessionFormatError, match=f"unsupported network version {version!r}"):
            network_from_document(doc)

    def test_a_repeated_parent_is_a_session_format_error(self, tmp_path):
        # parents ["a", "a"] loaded with a 4-row CPT, and forward_sample and
        # loglik_dataset ran on it
        doc = json.loads(json.dumps(network_to_document(five_var_truth())))
        doc["parents"][1] = ["a", "a"]
        doc["tables"][1] = [[0.5, 0.5]] * 4
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SessionFormatError, match="parents of 'b' must be strictly ascending"):
            load_network(str(path))


class TestDotExport:
    def test_empty_matrix_is_a_valid_digraph(self):
        net = fresh_net("ab")
        text = export_dot(all_arc_posteriors(net))
        assert text.startswith("digraph") and text.rstrip().endswith("}")
        assert "->" not in text  # nothing above the display threshold

    def test_certain_arc_is_full_black(self):
        schema = binary_schema("ab")
        net_priors = ArcPriorMatrix(entries={(0, 1): 1.0})
        from bnrefine import init

        net = init(schema, net_priors, PriorConfig())
        text = export_dot(all_arc_posteriors(net))
        assert '"a" -> "b" [color="gray0"' in text

    def test_byte_identical_runs(self):
        net, _ = sampled_net(five_var_truth(), 100, seed=7)
        refine(net, SearchParams())
        matrix = all_arc_posteriors(net)
        assert export_dot(matrix, "log") == export_dot(matrix, "log")
        assert export_dot(matrix).encode() == export_dot(matrix).encode()

    def test_threshold_omits_weak_arcs(self):
        net, _ = sampled_net(five_var_truth(), 400, seed=8)
        refine(net, SearchParams())
        matrix = all_arc_posteriors(net)
        text = export_dot(matrix, threshold=0.5)
        for y_name, x_name, p in matrix.named_entries():
            edge = f'"{y_name}" -> "{x_name}"'
            assert (edge in text) == (p >= 0.5)

    @pytest.mark.parametrize("threshold", [math.nan, -0.01, 1.01, 2.0, math.inf])
    def test_threshold_outside_the_unit_interval_is_an_error(self, threshold):
        # NaN used to draw every arc, 0.000 ones included, and 2 none
        net, _ = sampled_net(five_var_truth(), 100, seed=8)
        refine(net, SearchParams())
        with pytest.raises(ValueError, match=r"^display threshold .* outside \[0, 1\]$"):
            export_dot(all_arc_posteriors(net), threshold=threshold)

    def test_unknown_grey_mapping_is_an_error(self):
        # it was checked only when an arc was drawn, so a matrix with none
        # above the threshold rendered under any mapping
        with pytest.raises(ValueError, match="unknown grey mapping 'bogus'"):
            export_dot(all_arc_posteriors(fresh_net("ab")), "bogus")

    def test_thresholds_at_the_ends_of_the_unit_interval(self):
        schema = binary_schema("abc")
        from bnrefine import init

        net = init(schema, ArcPriorMatrix(entries={(0, 2): 1.0}), PriorConfig())
        matrix = all_arc_posteriors(net)
        assert export_dot(matrix, threshold=0.0).count("->") == 3
        assert export_dot(matrix, threshold=1.0).count("->") == 1

    def test_log_mapping_endpoints(self):
        from bnrefine.dotexport import _grey_level

        assert _grey_level(1.0, "log") == 0
        assert _grey_level(1e-3, "log") == 100
        assert _grey_level(1.0, "linear") == 0
        assert _grey_level(0.0, "linear") == 100

    def test_smoothed_network_renders(self):
        net, _ = sampled_net(five_var_truth(), 200, seed=9)
        refine(net, SearchParams())
        text = export_dot(sample_smoothed(net, seed=1))
        assert text.startswith("digraph smoothed_network")
