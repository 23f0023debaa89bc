"""Timing wrappers for the traced benchmark run, and the per-layer metrics.

``Tracer.install`` replaces each function in ``WRAPPED`` with a wrapper that
records one span per call: name, start, end, parent span and a few exact
counts.  The replacement is made in every loaded ``bnrefine`` module that
holds the function, so calls between modules are captured as well as the
benchmark's own calls.  Spans stay in memory until the run ends.

Untimed runs never import this module.  Run as a script, it is the shim a
traced command-line session starts instead of ``python -m bnrefine.cli``:

    python3 bench/tracing.py --spans spans.json -- refine --session s.json
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from statistics import median

# (module, function): the layer boundaries a traced run records
WRAPPED = (
    ("engine", "observe"),
    ("engine", "sync_node"),
    ("engine", "refine"),
    ("engine", "best_network"),
    ("localmodels", "score_node_with_model"),
    ("localmodels", "boolean_node_data"),
    ("localmodels", "fit_map"),
    ("localmodels", "laplace_log_marginal"),
    ("query", "all_arc_posteriors"),
    ("query", "sample_smoothed"),
    ("fileio", "load_session"),
    ("fileio", "save_session"),
    ("fileio", "load_csv"),
    ("dotexport", "export_dot"),
    ("cli", "cli_dispatch"),
)

def _alive_nodes(net) -> int:
    from bnrefine import NodeStatus

    return sum(
        1
        for lattice in net.lattices
        for node in lattice.nodes.values()
        if node.status is NodeStatus.ALIVE
    )


def _before(name: str, args) -> dict | None:
    """Exact counts taken as a call starts."""
    if name == "engine.observe":
        return {"node_updates": _alive_nodes(args[0])}
    if name == "engine.sync_node":
        net, lattice, node = args[:3]
        return {
            "model": net.scoring_model,
            "x": lattice.x,
            "key": node.key,
            "replayed": net.n_total - node.synced_through,
        }
    return None


def _after(name: str, args, result, attrs: dict) -> None:
    """Exact counts taken from a call's result."""
    if name == "engine.refine":
        attrs.update(
            expansions=result.expansions,
            nodes_created=result.nodes_created,
            nodes_killed=result.nodes_killed,
        )
    elif name == "localmodels.fit_map":
        attrs["iterations"] = result.iterations
    elif name == "fileio.save_session":
        attrs["bytes"] = os.path.getsize(args[0])


class Tracer:
    """Spans as ``[name, start, end, parent, attrs]``; parent is a span index or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            attrs = _before(name, args) or {}
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, attrs])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                attrs["error"] = type(err).__name__
                best = getattr(err, "best", None)  # a failed fit carries its last point
                if name == "localmodels.fit_map" and best is not None:
                    attrs["iterations"] = best.iterations
                raise
            else:
                _after(name, args, result, attrs)
                return result
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever a bnrefine module holds it."""
        import importlib

        modules = [importlib.import_module(f"bnrefine.{m}") for m, _ in WRAPPED]
        modules.append(importlib.import_module("bnrefine"))
        for module_name, attr in WRAPPED:
            original = getattr(importlib.import_module(f"bnrefine.{module_name}"), attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded by another process, re-basing their parents."""
        base = len(self.spans)
        for name, start, end, parent, attrs in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, attrs])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def import_seconds(src: str, repeats: int = 5) -> float:
    """Start-up cost of the command line: importing it minus a bare interpreter."""
    env = dict(os.environ, PYTHONPATH=src)

    def once(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - start

    bare, loaded = [], []
    for _ in range(repeats):
        bare.append(once("pass"))
        loaded.append(once("import bnrefine.cli"))
    return median(loaded) - median(bare)


def layer_metrics(spans: list[list], nets: list, import_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced session, as name -> (value, unit)."""
    from bnrefine import NodeStatus, network_stats

    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    counts = defaultdict(int)
    replays = []
    for name, start, end, parent, attrs in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
        for key, value in attrs.items():
            if key == "error":
                counts[f"{name}.failures"] += 1
            elif key not in ("model", "x", "key"):
                counts[f"{name}.{key}"] += value
        if name == "engine.sync_node":
            replays.append(((attrs["model"], attrs["x"], attrs["key"]), attrs["replayed"]))
    # refine calls no wrapped function but sync_node and localmodels, so its
    # self time is rethresholding, heap and scoring bookkeeping
    refine_self = sum(
        end - start - child_time[i]
        for i, (name, start, end, _, _) in enumerate(spans)
        if name == "engine.refine"
    )
    alive = set()  # (scoring model, variable, key): a session has one network per model
    stored = alive_n = dead = 0
    for net in nets:
        stats = network_stats(net)
        stored += sum(stats.stored.values())
        alive_n += sum(stats.alive.values())
        dead += sum(stats.dead.values())
        alive |= {
            (net.scoring_model, lattice.x, key)
            for lattice in net.lattices
            for key, node in lattice.nodes.items()
            if node.status is NodeStatus.ALIVE
        }
    replayed = counts["engine.sync_node.replayed"]
    useful = sum(r for node, r in replays if node in alive)
    updates = counts["engine.observe.node_updates"]
    observe_s = total["engine.observe"]
    sync_s = total["engine.sync_node"]
    saves = [a.get("bytes") for n, _, _, _, a in spans if n == "fileio.save_session"]
    return {
        "engine.observe.s": (observe_s, "s"),
        "engine.observe.node_updates": (updates, "count"),
        "engine.observe.us_per_node_update": (1e6 * observe_s / updates if updates else 0.0, "us"),
        "engine.sync_node.s": (sync_s, "s"),
        "engine.sync_node.calls": (calls["engine.sync_node"], "count"),
        "engine.sync_node.examples_replayed": (replayed, "count"),
        "engine.sync_node.us_per_example": (1e6 * sync_s / replayed if replayed else 0.0, "us"),
        "engine.sync_node.useful_ratio": (useful / replayed if replayed else 0.0, "ratio"),
        "engine.refine.s": (total["engine.refine"], "s"),
        "engine.refine.self_s": (refine_self, "s"),
        "engine.refine.expansions": (counts["engine.refine.expansions"], "count"),
        "engine.refine.nodes_created": (counts["engine.refine.nodes_created"], "count"),
        "engine.refine.nodes_killed": (counts["engine.refine.nodes_killed"], "count"),
        "engine.best_network.ms": (1e3 * total["engine.best_network"], "ms"),
        "lattice.stored": (stored, "count"),
        "lattice.alive": (alive_n, "count"),
        "lattice.dead": (dead, "count"),
        "kernels.predictive_calls": (updates + replayed, "count"),
        "localmodels.score_node_with_model.s": (total["localmodels.score_node_with_model"], "s"),
        "localmodels.score_node_with_model.calls": (
            calls["localmodels.score_node_with_model"], "count"),
        "localmodels.boolean_node_data.s": (total["localmodels.boolean_node_data"], "s"),
        "localmodels.fit_map.calls": (calls["localmodels.fit_map"], "count"),
        "localmodels.fit_map.iterations": (counts["localmodels.fit_map.iterations"], "count"),
        "localmodels.fit_map.failures": (counts["localmodels.fit_map.failures"], "count"),
        "localmodels.laplace_log_marginal.s": (total["localmodels.laplace_log_marginal"], "s"),
        "query.all_arc_posteriors.ms": (1e3 * total["query.all_arc_posteriors"], "ms"),
        "query.sample_smoothed.ms": (1e3 * total["query.sample_smoothed"], "ms"),
        "fileio.load_session.s": (total["fileio.load_session"], "s"),
        "fileio.save_session.s": (total["fileio.save_session"], "s"),
        "fileio.session_bytes": (saves[-1] if saves else 0, "bytes"),
        "fileio.load_csv.s": (total["fileio.load_csv"], "s"),
        "dotexport.export_dot.ms": (1e3 * total["dotexport.export_dot"], "ms"),
        "cli.dispatch_s": (total["cli.cli_dispatch"], "s"),
        "cli.import_s": (import_s, "s"),
    }


def main(argv: list[str]) -> int:
    """Run one command-line invocation with tracing on; write its spans."""
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracing.py --spans PATH -- COMMAND [ARGS...]", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from bnrefine import cli

    try:
        return cli.cli_dispatch(argv[3:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
