import dataclasses
import io
import json
from unittest import mock

import pytest

from bnrefine import engine
from bnrefine.cli import cli_dispatch
from bnrefine.fileio import load_network, save_network, save_spec
from bnrefine import ArcPriorMatrix, PriorConfig, SearchParams

from helpers import binary_schema, chain_v_truth, five_var_truth, oversize_session_document


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_dispatch(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(path, binary_schema("uvwxyz"), ArcPriorMatrix(), PriorConfig())
    return str(path)


@pytest.fixture
def truth_path(tmp_path):
    path = tmp_path / "truth.json"
    save_network(path, chain_v_truth())
    return str(path)


def parse_arc_table(text):
    entries = {}
    for line in text.strip().splitlines():
        tail, _, rest = line.partition(" -> ")
        head, value = rest.split()
        entries[(tail, head)] = float(value)
    return entries


class TestBasics:
    def test_unknown_subcommand_fails_with_usage(self):
        code, _, _ = run(["frobnicate"])
        assert code != 0

    def test_a_flagless_refine_searches_with_the_library_defaults(self, tmp_path, spec_path):
        session = str(tmp_path / "s.json")
        run(["init", "--spec", spec_path, "--out", session])
        with mock.patch.object(engine, "refine", wraps=engine.refine) as refine:
            assert run(["refine", "--session", session])[0] == 0
        params = refine.call_args.args[1]
        assert dataclasses.asdict(params) == dataclasses.asdict(SearchParams())

    def test_the_removed_hysteresis_flag_is_a_usage_error(self, tmp_path, spec_path, capsys):
        session = str(tmp_path / "s.json")
        assert run(["init", "--spec", spec_path, "--out", session])[0] == 0
        code, out, err = run(["refine", "--session", session, "--hysteresis", "0.5"])
        assert capsys.readouterr() == ("", "")  # all of it went to the streams passed
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --hysteresis 0.5" in err
        assert "Traceback" not in err

    def test_help_goes_to_the_out_stream(self, capsys):
        code, out, err = run(["refine", "--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: ") and "--c-alive" in out
        assert capsys.readouterr() == ("", "")

    def test_missing_required_flag_fails(self):
        code, _, _ = run(["init", "--spec", "x.json"])
        assert code != 0

    def test_domain_errors_exit_one(self, tmp_path, spec_path):
        session = str(tmp_path / "s.json")
        assert run(["init", "--spec", spec_path, "--out", session])[0] == 0
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("u,v,w,x,y,z\nf,f,f,f,f,nope\n")
        code, _, err = run(["observe", "--session", session, "--data", str(bad_csv)])
        assert code == 1
        assert "nope" in err

    def test_a_root_no_int64_code_indexes_exits_one(self, tmp_path):
        # 63 mandatory boolean parents: observe used to die with a traceback
        spec = tmp_path / "spec.json"
        priors = ArcPriorMatrix({(y, 63): 1.0 for y in range(63)}, default_prior=0.0)
        save_spec(spec, binary_schema([f"v{i}" for i in range(64)]), priors, PriorConfig())
        session = tmp_path / "s.json"
        code, out, err = run(["init", "--spec", str(spec), "--out", str(session)])
        assert (code, out) == (1, "")
        assert err.startswith("error: variable 'v63' with its 63 mandatory parents")
        assert err.count("\n") == 1 and not session.exists()

    def test_a_csv_with_a_byte_order_mark_observes_as_one_without(self, tmp_path, spec_path, truth_path):
        # a spreadsheet's "CSV UTF-8" starts with a byte-order mark, which
        # was read into the first header name and refused
        data = tmp_path / "data.csv"
        run(["generate", "--network", truth_path, "-n", "50", "--seed", "4", "--out", str(data)])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
        sessions = []
        for source in (data, marked):
            session = tmp_path / f"{source.stem}.session.json"
            assert run(["init", "--spec", spec_path, "--out", str(session)])[0] == 0
            code, _, err = run(["observe", "--session", str(session), "--data", str(source)])
            assert (code, err) == (0, "")
            sessions.append(session.read_bytes())
        assert sessions[0] == sessions[1]

    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_a_failed_write_names_the_path_asked_for(self, tmp_path, spec_path, target):
        # the error named the hidden temp file the write went through
        session = str(tmp_path / "s.json")
        assert run(["init", "--spec", spec_path, "--out", session])[0] == 0
        (tmp_path / "out").mkdir()
        if target == "directory":
            path = str(tmp_path / "out")
            argv = ["arcs", "--session", session, "--dot", path]
        else:
            path = str(tmp_path / "out" / "missing" / "best.json")
            argv = ["map", "--session", session, "--out", path]
        code, _, err = run(argv)
        assert code == 1
        assert err.startswith("error: ") and path in err and ".bnrefine-" not in err
        assert [p.name for p in (tmp_path / "out").iterdir()] == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "s.json", "spec.json"]

    def test_init_then_arcs_reports_zeros(self, tmp_path, spec_path):
        session = str(tmp_path / "s.json")
        assert run(["init", "--spec", spec_path, "--out", session])[0] == 0
        code, out, _ = run(["arcs", "--session", session])
        assert code == 0
        entries = parse_arc_table(out)
        assert len(entries) == 15
        assert all(p == 0.0 for p in entries.values())

    @pytest.mark.parametrize("model", ["noisy-or", "logistic"])
    def test_restricted_refine_right_after_init(self, tmp_path, spec_path, model):
        # exited 1 with "fit_map requires at least one data row"
        session = str(tmp_path / "s.json")
        assert run(["init", "--spec", spec_path, "--out", session])[0] == 0
        code, _, err = run(["refine", "--session", session, "--model", model])
        assert code == 0, err
        code, out, _ = run(["arcs", "--session", session])
        assert code == 0 and len(parse_arc_table(out)) == 15

    def test_nan_kappa_exits_one(self, tmp_path, spec_path):
        # was accepted, and the search could never kill a parent set
        session = str(tmp_path / "s.json")
        assert run(["init", "--spec", spec_path, "--out", session])[0] == 0
        code, _, err = run(["refine", "--session", session, "--kappa", "nan"])
        assert code == 1
        assert "dead_kappa must be nonnegative, got nan" in err


    @pytest.mark.parametrize("source", ["flag", "spec"])
    def test_infinite_alpha_exits_one(self, tmp_path, spec_path, source):
        # was accepted, every score was NaN, and arcs exited 1 with
        # "no alive parent set for 'u'"
        argv = ["init", "--spec", spec_path, "--out", str(tmp_path / "s.json")]
        if source == "flag":
            argv += ["--alpha", "inf"]
        else:
            with open(spec_path, encoding="utf-8") as handle:
                doc = json.load(handle)
            doc["alpha"] = float("inf")
            with open(spec_path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        code, _, err = run(argv)
        assert code == 1
        assert "alpha must be positive and finite, got inf" in err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("command", ["generate", "loglik"])
    def test_network_with_a_nan_entry_exits_one(self, tmp_path, truth_path, command):
        data = tmp_path / "data.csv"
        assert run(["generate", "--network", truth_path, "-n", "5", "--seed", "1",
                    "--out", str(data)])[0] == 0
        with open(truth_path, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["tables"][0][0] = [float("nan"), 0.5]
        with open(truth_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        argv = (["generate", "-n", "5", "--seed", "1", "--out", str(tmp_path / "out.csv")]
                if command == "generate" else ["loglik", "--data", str(data)])
        code, out, err = run(argv + ["--network", truth_path])
        assert code == 1 and out == ""
        assert err.startswith("error: malformed network document: CPT for 'u'")

    def test_session_lattice_past_the_schema_exits_one(self, tmp_path, spec_path):
        # escaped cli_dispatch as an IndexError, with a traceback
        session = tmp_path / "s.json"
        assert run(["init", "--spec", spec_path, "--out", str(session)])[0] == 0
        doc = json.loads(session.read_text())
        doc["lattices"][1]["x"] = 7
        session.write_text(json.dumps(doc))
        code, _, err = run(["arcs", "--session", str(session)])
        assert code == 1
        assert err == "error: lattice x 7 names no variable of the 6-variable schema\n"

    def test_a_session_storing_a_set_no_int64_code_indexes_exits_one(self, tmp_path):
        # counting its log used to raise a bare OverflowError, with a traceback
        session = tmp_path / "s.json"
        session.write_text(json.dumps(oversize_session_document()))
        code, out, err = run(["arcs", "--session", str(session)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: lattice 'v63': {2**64} count cells") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("name", 5, "name 5 is not a string"),  # escaped as an AttributeError
            ("values", "ftx", "values 'ftx' is not a list of strings"),  # loaded as f, t, x
        ],
    )
    def test_spec_with_a_malformed_variable_exits_one(self, tmp_path, spec_path, field, value, message):
        with open(spec_path, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["variables"][2][field] = value
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        code, _, err = run(["init", "--spec", spec_path, "--out", str(tmp_path / "s.json")])
        assert code == 1
        assert err.startswith("error: ") and f"variables[2]: {message}" in err
        assert not (tmp_path / "s.json").exists()


class TestPipeline:
    def test_generate_observe_refine_arcs_recovers_structure(self, tmp_path, spec_path, truth_path):
        data = str(tmp_path / "data.csv")
        session = str(tmp_path / "s.json")
        assert run(["generate", "--network", truth_path, "-n", "5000",
                    "--seed", "2026", "--out", data])[0] == 0
        assert run(["init", "--spec", spec_path, "--out", session])[0] == 0
        assert run(["observe", "--session", session, "--data", data])[0] == 0
        code, out, _ = run(["refine", "--session", session])
        assert code == 0 and "expansions" in out
        code, out, _ = run(["arcs", "--session", session])
        assert code == 0
        entries = parse_arc_table(out)
        true_arcs = {("u", "v"), ("v", "w"), ("w", "x"), ("x", "z"), ("y", "z")}
        for pair, p in entries.items():
            if pair in true_arcs:
                assert p > 0.95, pair
            else:
                assert p < 0.05, pair

    def test_generate_is_seed_reproducible(self, tmp_path, truth_path):
        one = tmp_path / "one.csv"
        two = tmp_path / "two.csv"
        run(["generate", "--network", truth_path, "-n", "100", "--seed", "7", "--out", str(one)])
        run(["generate", "--network", truth_path, "-n", "100", "--seed", "7", "--out", str(two)])
        assert one.read_bytes() == two.read_bytes()

    def test_loglik_matches_library(self, tmp_path, truth_path):
        from bnrefine.query import loglik_dataset
        from bnrefine.sampling import forward_sample

        data = str(tmp_path / "data.csv")
        run(["generate", "--network", truth_path, "-n", "200", "--seed", "3", "--out", data])
        code, out, _ = run(["loglik", "--network", truth_path, "--data", data])
        assert code == 0
        expected = loglik_dataset(chain_v_truth(), forward_sample(chain_v_truth(), 200, 3))
        assert float(out.strip()) == pytest.approx(expected, rel=1e-9)

    def test_map_and_smooth_write_files(self, tmp_path, spec_path, truth_path):
        data = str(tmp_path / "data.csv")
        session = str(tmp_path / "s.json")
        run(["generate", "--network", truth_path, "-n", "1000", "--seed", "5", "--out", data])
        run(["init", "--spec", spec_path, "--out", session])
        run(["observe", "--session", session, "--data", data])
        run(["refine", "--session", session])
        net_out = tmp_path / "best.json"
        assert run(["map", "--session", session, "--out", str(net_out)])[0] == 0
        best = load_network(str(net_out))
        assert best.parents[1] == (0,)
        smooth_out = tmp_path / "smooth.json"
        dot_out = tmp_path / "smooth.dot"
        assert run(["smooth", "--session", session, "--seed", "11",
                    "--out", str(smooth_out), "--dot", str(dot_out)])[0] == 0
        doc = json.loads(smooth_out.read_text())
        assert doc["format"] == "bnrefine-smoothed"
        assert dot_out.read_text().startswith("digraph")

    def test_refine_model_flag_persists_in_session(self, tmp_path):
        import numpy as np

        from bnrefine.fileio import load_session

        spec = tmp_path / "spec.json"
        save_spec(spec, binary_schema("abx"), ArcPriorMatrix(), PriorConfig())
        truth = tmp_path / "truth.json"
        from bnrefine import ConcreteNetwork

        save_network(
            truth,
            ConcreteNetwork(
                binary_schema("abx"),
                ((), (), (0, 1)),
                (
                    np.array([[0.5, 0.5]]),
                    np.array([[0.5, 0.5]]),
                    np.array([[0.9, 0.1], [0.45, 0.55], [0.6, 0.4], [0.3, 0.7]]),
                ),
            ),
        )
        data = str(tmp_path / "data.csv")
        session = str(tmp_path / "s.json")
        run(["generate", "--network", str(truth), "-n", "300", "--seed", "13", "--out", data])
        run(["init", "--spec", str(spec), "--out", session])
        run(["observe", "--session", session, "--data", data])
        assert run(["refine", "--session", session, "--model", "noisy-or"])[0] == 0
        assert load_session(session).scoring_model == "noisy-or"

    def test_arcs_dot_output(self, tmp_path, spec_path, truth_path):
        data = str(tmp_path / "data.csv")
        session = str(tmp_path / "s.json")
        run(["generate", "--network", truth_path, "-n", "500", "--seed", "9", "--out", data])
        run(["init", "--spec", spec_path, "--out", session])
        run(["observe", "--session", session, "--data", data])
        run(["refine", "--session", session])
        dot = tmp_path / "arcs.dot"
        assert run(["arcs", "--session", session, "--dot", str(dot),
                    "--grey-mapping", "log"])[0] == 0
        assert '"u" -> "v"' in dot.read_text()

    @pytest.mark.parametrize("threshold", ["nan", "-0.5", "2"])
    def test_arcs_with_a_threshold_outside_the_unit_interval_exits_one(
        self, tmp_path, spec_path, threshold
    ):
        # NaN used to draw every arc, 0.000 ones included, and 2 none
        session = str(tmp_path / "s.json")
        assert run(["init", "--spec", spec_path, "--out", session])[0] == 0
        dot = tmp_path / "arcs.dot"
        code, out, err = run(
            ["arcs", "--session", session, "--dot", str(dot), "--threshold", threshold]
        )
        assert code == 1
        assert err.startswith("error: display threshold ") and "outside [0, 1]" in err
        assert out == "" and not dot.exists()

    def test_refine_with_a_new_model_re_aims_every_lattice(self, tmp_path, spec_path, truth_path):
        # the second refine kept statuses aimed at the table model's best
        from bnrefine import refine, rethreshold
        from bnrefine.fileio import load_session, serialize_session

        data = str(tmp_path / "data.csv")
        session = str(tmp_path / "s.json")
        run(["generate", "--network", truth_path, "-n", "400", "--seed", "0", "--out", data])
        run(["init", "--spec", spec_path, "--out", session])
        run(["observe", "--session", session, "--data", data])
        assert run(["refine", "--session", session])[0] == 0
        twin = load_session(session)
        assert run(["refine", "--session", session, "--model", "noisy-or"])[0] == 0
        twin.scoring_model = "noisy-or"
        rethreshold(twin, SearchParams())
        refine(twin, SearchParams())
        with open(session, encoding="utf-8") as handle:
            assert handle.read() == serialize_session(twin)


class TestOracleCommand:
    def test_exact_posteriors_match_query_in_permissive_regime(self, tmp_path):
        from bnrefine import all_arc_posteriors, refine
        from helpers import sampled_net

        spec = tmp_path / "spec.json"
        save_spec(spec, binary_schema("abcde"), ArcPriorMatrix(), PriorConfig())
        truth = tmp_path / "truth.json"
        save_network(truth, five_var_truth())
        data = str(tmp_path / "data.csv")
        run(["generate", "--network", str(truth), "-n", "300", "--seed", "21", "--out", data])
        code, out, _ = run(["oracle", "--spec", str(spec), "--data", data])
        assert code == 0
        exact = parse_arc_table(out)

        net, _ = sampled_net(five_var_truth(), 300, seed=21)
        refine(net, SearchParams(c_alive=1e-12, d_open=1e-12, e_dead=1e-12))
        engine_matrix = all_arc_posteriors(net)
        schema = net.schema
        for (y, x), p in engine_matrix.entries.items():
            assert exact[(schema.name(y), schema.name(x))] == pytest.approx(p, abs=1e-6)
