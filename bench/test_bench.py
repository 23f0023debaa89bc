"""Smoke tests of the benchmark harness, so that a broken harness fails fast.

Every workload runs at its tiny size, untraced and traced:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT_COUNTS = (
    "engine.refine.expansions",
    "engine.refine.nodes_created",
    "engine.observe.node_updates",
    "engine.sync_node.examples_replayed",
    "localmodels.fit_map.iterations",
)


def bench(*args: str, cwd: Path = ROOT, runner: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(runner), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, trace: str, seed: str = "3") -> dict:
    done = bench("--workload", workload, "--seed", seed, "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_manifest_follows_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["bench"]
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = MANIFEST["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_traced_counts_repeat_exactly():
    first, second = (tiny("restricted", "1")["metrics"] for _ in range(2))
    assert first["localmodels.fit_map.calls"]["value"] > 0
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name


def test_one_seed_makes_the_same_operations():
    first, second = (tiny("restricted", "0") for _ in range(2))
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_untraced_run_imports_nothing_from_the_tracer():
    probe = (
        "import sys; sys.argv[0] = {run!r}; sys.path.insert(0, {bench!r}); import run; "
        "code = run.main(['--workload', 'stream', '--seed', '1', '--seconds', '1', "
        "'--size', 'tiny']); assert 'tracing' not in sys.modules; sys.exit(code)"
    ).format(run=str(BENCH / "run.py"), bench=str(BENCH))
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "stream", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, runner=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
