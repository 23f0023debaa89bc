"""The four benchmark workloads: input generation, session loops, output checks.

Every workload is a closed loop driven by one caller making one call at a
time.  A run processes a series of *sessions*; session ``i`` of a run with
seed ``s`` draws its rows with data seed ``s + DATA_SEED_STRIDE * i``, so
one seed always gives the same inputs.  The generating network of each
workload is fixed (drawn once from ``STRUCTURE_SEED``): runs with different
seeds then do the same kind of work on different samples.

The program is driven only through its public functions and its command
line.  An operation is one such call or one command; it fails if it raises,
exits non-zero, or fails an output check.  Failures are counted and the
session goes on, so known defects show up as failures instead of aborting
the run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean

import numpy as np

import bnrefine as bn
from bnrefine import fileio

STRUCTURE_SEED = 0
DATA_SEED_STRIDE = 7919
HELDOUT_SEED_OFFSET = 104729
# parents per variable position; the counts are fixed so that every seed
# searches lattices of the same shape
PARENT_COUNTS = (0, 1, 1, 2, 2, 3, 2, 3, 3, 2, 3, 3, 2, 3, 3, 2, 3, 3, 2, 3)
CPT_TOLERANCE = 1e-9
# a posterior is a sum of normalized weights and may exceed 1 by a few ulps
POSTERIOR_TOLERANCE = 1e-12
PROBE_REF_MS = 1.25  # the host probe on a quiet 2-vCPU virtual machine
PROBE_REUSE_S = 0.05  # back-to-back steps share the probe between them


# -- tallies ----------------------------------------------------------------


def host_probe_ms() -> float:
    """How fast the host runs right now: the median time of a fixed
    interpreted loop.  It touches almost no memory, so it neither depends on
    the program's state nor disturbs it, and a change to the program cannot
    move it."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return 1e3 * sorted(times)[1]


@dataclass
class Tally:
    """Step latencies and operation outcomes of a run.

    With ``host_scaled`` every step is bracketed by two host probes (the
    probe after a step is the one before the next, when it follows at once),
    and ``factors`` holds, per step, PROBE_REF_MS over the mean of its
    probes: multiplied by the step's time it gives the time on a host that
    runs the probe in PROBE_REF_MS.
    """

    host_scaled: bool = False
    steps: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    excluded_s: float = 0.0  # probing and untimed work, kept out of clock()
    last_probe: tuple[float, float] = (PROBE_REF_MS, -math.inf)  # (ms, when it ended)
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)

    def clock(self) -> float:
        """Seconds, less the time spent probing the host or in ``untimed`` work."""
        return time.perf_counter() - self.excluded_s

    @contextmanager
    def untimed(self):
        """Work that is done and checked but kept out of every time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.excluded_s += time.perf_counter() - start

    def probe(self, fresh: bool = True) -> float:
        """The host probe; unless ``fresh``, one that ended at most
        PROBE_REUSE_S ago is reused."""
        start = time.perf_counter()
        if not fresh and start - self.last_probe[1] <= PROBE_REUSE_S:
            return self.last_probe[0]
        ms = host_probe_ms()
        end = time.perf_counter()
        self.excluded_s += end - start
        self.last_probe = (ms, end)
        return ms

    @contextmanager
    def step(self):
        before = self.probe(fresh=False) if self.host_scaled else PROBE_REF_MS
        start = time.perf_counter()
        try:
            yield
        finally:
            self.steps.append(time.perf_counter() - start)
            after = self.probe() if self.host_scaled else PROBE_REF_MS
            self.factors.append(PROBE_REF_MS / fmean((before, after)))

    def call(self, fn, *args, check=None, **kwargs):
        """One operation: returns its result, or None if it raised.

        A raised exception is the program's failure, not the harness's, so
        it is counted by type and the session continues.
        """
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as err:  # noqa: BLE001 - counted, reported by type
            self.failed += 1
            self.errors[type(err).__name__] += 1
            return None
        self.verify(check(result) if check else None)
        return result

    def verify(self, problem: str | None) -> None:
        """Count a failed output check of an operation that returned."""
        if problem:
            self.failed += 1
            self.wrong.append(problem)


@dataclass
class Quality:
    """Final answers of one session, judged against the generating network."""

    recovered: int
    spurious: int
    heldout_loglik: float | None  # None when best_network failed


@dataclass
class SessionResult:
    wall: float
    quality: Quality
    nets: list  # final CombinedNetwork(s), for lattice counts in traced runs


# -- input generation -------------------------------------------------------


def boolean_schema(names) -> bn.DomainSchema:
    return bn.DomainSchema(tuple(bn.VariableSpec(n, ("f", "t")) for n in names))


def generated_truth(n_vars: int) -> bn.ConcreteNetwork:
    """Boolean network with at most three parents per variable.

    Each CPT is a logistic function of its parents with effects of 1.5 to
    2.5 logits, so every true arc is visible in a few thousand rows.
    """
    rng = np.random.default_rng(STRUCTURE_SEED)
    parents, tables = [], []
    for x in range(n_vars):
        k = min(x, PARENT_COUNTS[x % len(PARENT_COUNTS)])
        chosen = tuple(sorted(int(p) for p in rng.choice(x, size=k, replace=False))) if k else ()
        weights = rng.uniform(1.5, 2.5, size=k) * rng.choice([-1.0, 1.0], size=k)
        bias = rng.uniform(-0.5, 0.5) - 0.5 * weights.sum()
        rows = []
        for cfg in range(2**k):
            bits = [(cfg >> (k - 1 - i)) & 1 for i in range(k)]
            p = 1.0 / (1.0 + math.exp(-(bias + float(np.dot(weights, bits)))))
            rows.append([1.0 - p, p])
        parents.append(chosen)
        tables.append(np.array(rows))
    schema = boolean_schema(f"v{i:02d}" for i in range(n_vars))
    return bn.ConcreteNetwork(schema=schema, parents=tuple(parents), tables=tuple(tables))


def demo_truth() -> bn.ConcreteNetwork:
    """The six-variable chain plus v-structure of ``scripts/recovery_demo.py``."""
    return bn.ConcreteNetwork(
        schema=boolean_schema("uvwxyz"),
        parents=((), (0,), (1,), (2,), (), (3, 4)),
        tables=(
            np.array([[0.75, 0.25]]),
            np.array([[0.8, 0.2], [0.25, 0.75]]),
            np.array([[0.85, 0.15], [0.2, 0.8]]),
            np.array([[0.75, 0.25], [0.3, 0.7]]),
            np.array([[0.3, 0.7]]),
            np.array([[0.9, 0.1], [0.3, 0.7], [0.25, 0.75], [0.05, 0.95]]),
        ),
    )


def true_arcs(truth: bn.ConcreteNetwork) -> set[tuple[int, int]]:
    return {(y, x) for x, parents in enumerate(truth.parents) for y in parents}


def expert_priors(truth: bn.ConcreteNetwork) -> bn.ArcPriorMatrix:
    """An expert who is sure of one true arc and rules out one absent arc.

    The hard arcs make every posterior query check that certain arcs
    report exactly 1 and 0.
    """
    arcs = true_arcs(truth)
    sure = min(arcs, key=lambda a: (a[1], a[0]))
    last = len(truth.schema) - 1
    ruled_out = next((y, last) for y in range(last) if (y, last) not in arcs)
    return bn.ArcPriorMatrix(entries={sure: 1.0, ruled_out: 0.0}, default_prior=0.5)


def data_seed(seed: int, session: int) -> int:
    return seed + DATA_SEED_STRIDE * session


@dataclass
class Inputs:
    truth: bn.ConcreteNetwork
    priors: bn.ArcPriorMatrix
    rows: list
    heldout: list
    seed: int
    work: Path | None = None  # directory of the input files, for the command line


def make_inputs(truth: bn.ConcreteNetwork, n_rows: int, n_heldout: int, seed: int) -> Inputs:
    return Inputs(
        truth=truth,
        priors=expert_priors(truth),
        rows=bn.forward_sample(truth, n_rows, seed),
        heldout=bn.forward_sample(truth, n_heldout, seed + HELDOUT_SEED_OFFSET),
        seed=seed,
    )


def batches(rows: list, size: int) -> list[list]:
    return [rows[i : i + size] for i in range(0, len(rows), size)]


# -- output checks ----------------------------------------------------------


def posterior_problem(entries: dict, priors: bn.ArcPriorMatrix) -> str | None:
    """Arc posteriors lie in [0, 1] and hard arcs read exactly 0 or 1."""
    for (y, x), p in entries.items():
        if not -POSTERIOR_TOLERANCE <= p <= 1.0 + POSTERIOR_TOLERANCE:
            return f"posterior of arc {y}->{x} is {p}, outside [0, 1]"
        hard = priors.prior(y, x)
        if hard in (0.0, 1.0) and p != hard:
            return f"hard arc {y}->{x} with prior {hard} has posterior {p}"
    return None


def arcs_check(priors: bn.ArcPriorMatrix):
    return lambda matrix: posterior_problem(matrix.entries, priors)


def rows_problem(what: str, tables) -> str | None:
    """Every CPT row is a probability distribution."""
    for x, table in enumerate(tables):
        table = np.asarray(table, dtype=float)
        if np.any(table < 0) or np.any(np.abs(table.sum(axis=1) - 1.0) > CPT_TOLERANCE):
            return f"{what}: CPT rows of variable {x} do not sum to 1"
    return None


def best_check(network) -> str | None:
    return rows_problem("best_network", network.tables)


def smoothed_check(smoothed) -> str | None:
    return rows_problem("sample_smoothed", [v.table for v in smoothed.variables])


def judge(entries: dict | None, truth: bn.ConcreteNetwork, loglik: float | None,
          n_heldout: int) -> Quality:
    """Arc counts from the final posteriors; a session whose final query
    failed shows no posterior, so it recovers and misreports no arc."""
    arcs = true_arcs(truth)
    entries = entries or {}
    return Quality(
        recovered=sum(1 for a in arcs if entries.get(a, 0.0) > 0.95),
        spurious=sum(1 for a, p in entries.items() if a not in arcs and p > 0.05),
        heldout_loglik=None if loglik is None else loglik / n_heldout,
    )


# -- in-process sessions ----------------------------------------------------


@dataclass(frozen=True)
class Size:
    """The inputs of one session, and how many sessions a run makes.

    A run of ``seconds`` makes as many sessions as fit in it at
    ``session_s`` each, and at least ``sessions``.  The count depends on
    ``--seconds`` alone, never on how fast the host runs, so one seed
    always gives the same operations.
    """

    rows: int
    batch: int
    heldout: int
    sessions: int  # the fewest that give steady medians
    session_s: float = math.inf  # a session's elapsed time, set-up and checks included
    n_vars: int = 0  # of a generated network; unused with a fixed one

    def session_count(self, seconds: float) -> int:
        return max(self.sessions, int(seconds // self.session_s))


class Workload:
    """A fixed generating network, per-session inputs drawn from it, and
    the untimed checks made after session 0 (none by default)."""

    name: str
    sizes: dict[str, Size]

    def __init__(self, size: Size):
        self.size = size
        self.truth = generated_truth(size.n_vars)

    def setup(self, seed: int, work: Path) -> Inputs:
        return make_inputs(self.truth, self.size.rows, self.size.heldout, seed)

    def after(self, tally: Tally, inputs: Inputs, result: SessionResult) -> None:
        pass

    def result(self, tally: Tally, start: float, matrix, loglik: float | None,
               nets: list) -> SessionResult:
        wall = tally.clock() - start
        entries = None if matrix is None else matrix.entries
        return SessionResult(wall, judge(entries, self.truth, loglik, self.size.heldout), nets)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def new_net(inputs: Inputs, model: str = "table") -> bn.CombinedNetwork:
    net = bn.init(inputs.truth.schema, inputs.priors, bn.PriorConfig(alpha=1.0))
    net.scoring_model = model
    return net


def finish(tally: Tally, net, inputs: Inputs):
    """The analyst's closing questions: best network, a smoothed network, held-out fit."""
    best = tally.call(bn.best_network, net, check=best_check)
    tally.call(bn.sample_smoothed, net, inputs.seed, check=smoothed_check)
    if best is None:
        return None
    return tally.call(bn.loglik_dataset, best, inputs.heldout)


def batch_step(tally: Tally, net, chunk, priors: bn.ArcPriorMatrix):
    """Observe a batch, refine with default settings, read every arc posterior."""
    tally.call(bn.observe_batch, net, chunk)
    tally.call(bn.refine, net, bn.SearchParams())
    return tally.call(bn.all_arc_posteriors, net, check=arcs_check(priors))


class Stream(Workload):
    name = "stream"
    sizes = {
        "full": Size(n_vars=12, rows=20000, batch=200, heldout=2000, sessions=3, session_s=5.0),
        "tiny": Size(n_vars=6, rows=600, batch=100, heldout=200, sessions=2),
    }

    def session(self, tally: Tally, inputs: Inputs) -> SessionResult:
        """One step per batch."""
        start = tally.clock()
        net = new_net(inputs)
        matrix = None
        for chunk in batches(inputs.rows, self.size.batch):
            with tally.step():
                matrix = batch_step(tally, net, chunk, inputs.priors)
        return self.result(tally, start, matrix, finish(tally, net, inputs), [net])


class Anytime(Workload):
    name = "anytime"
    sizes = {  # one batch: every row is observed while the lattices are root-only
        "full": Size(n_vars=20, rows=2000, batch=2000, heldout=2000, sessions=2, session_s=7.5),
        "tiny": Size(n_vars=8, rows=300, batch=300, heldout=200, sessions=1),
    }

    def session(self, tally: Tally, inputs: Inputs) -> SessionResult:
        """One step per expansion: refine(budget=1) plus arc posteriors."""
        start = tally.clock()
        net = new_net(inputs)
        tally.call(bn.observe_batch, net, inputs.rows)
        budget = bn.SearchParams(budget=1)
        matrix, exhausted = None, False
        while not exhausted:
            with tally.step():
                report = tally.call(bn.refine, net, budget)
                matrix = tally.call(bn.all_arc_posteriors, net, check=arcs_check(inputs.priors))
            if report is None:
                break  # a failing refine makes no progress; stop instead of spinning
            exhausted = report.exhausted
        return self.result(tally, start, matrix, finish(tally, net, inputs), [net])

    def after(self, tally: Tally, inputs: Inputs, result: SessionResult) -> None:
        """Resumability: budgeted steps end where one unbudgeted refine ends."""
        net = new_net(inputs)
        tally.call(bn.observe_batch, net, inputs.rows)
        tally.call(bn.refine, net, bn.SearchParams())
        reference = tally.call(bn.all_arc_posteriors, net)
        stepped = bn.all_arc_posteriors(result.nets[0])
        if reference is not None and reference.entries != stepped.entries:
            tally.verify("anytime: budgeted refines disagree with one unbudgeted refine")


class Restricted(Workload):
    """Each batch goes to a logistic session, which is timed, and, in the
    first NOISY_OR_SESSIONS sessions of a run, to a noisy-or session, which
    is run and checked but not timed.

    A noisy-or session's cost varies by 3x from sample to sample with how
    many warm-started fits converge slowly or fail (the known defect), so
    its times spread from seed to seed by more than any bound the benchmark
    may set.  Its failures still count, and the traced run covers its fits.
    """

    name = "restricted"
    noisy_or_sessions = 12
    sizes = {
        "full": Size(rows=600, batch=200, heldout=2000, sessions=40, session_s=0.8),
        "tiny": Size(rows=200, batch=100, heldout=200, sessions=2),
    }

    def __init__(self, size: Size):
        self.size = size
        self.truth = demo_truth()
        self.sessions_run = 0

    def session(self, tally: Tally, inputs: Inputs) -> SessionResult:
        """One step per batch: the batch into the logistic session.

        The arc counts and the held-out fit are the logistic session's.
        """
        start = tally.clock()
        timed = new_net(inputs, "logistic")
        untimed = new_net(inputs, "noisy-or") if self.sessions_run < self.noisy_or_sessions else None
        self.sessions_run += 1
        matrix = None
        for chunk in batches(inputs.rows, self.size.batch):
            with tally.step():
                matrix = batch_step(tally, timed, chunk, inputs.priors)
            if untimed is not None:
                with tally.untimed():
                    batch_step(tally, untimed, chunk, inputs.priors)
        result = self.result(tally, start, matrix, finish(tally, timed, inputs), [timed])
        if untimed is not None:
            with tally.untimed():
                finish(tally, untimed, inputs)
            result.nets.append(untimed)
        return result


# -- the command line -------------------------------------------------------

ARC_LINE = re.compile(r"^(\S+) -> (\S+)\s+(\S+)$")


def write_spec(path: Path, truth: bn.ConcreteNetwork, priors: bn.ArcPriorMatrix) -> None:
    schema = truth.schema
    doc = {
        "format": "bnrefine-spec",
        "version": 1,
        "alpha": 1.0,
        "default_prior": priors.default_prior,
        "variables": [{"name": v.name, "values": list(v.values)} for v in schema.variables],
        "arcs": [
            {"from": schema.name(y), "to": schema.name(x), "prior": p}
            for (y, x), p in sorted(priors.entries.items())
        ],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def write_rows(path: Path, schema: bn.DomainSchema, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([v.name for v in schema.variables])
        for row in rows:
            writer.writerow([schema.variables[x].values[v] for x, v in enumerate(row)])


def parse_arcs(text: str, schema: bn.DomainSchema) -> dict:
    entries = {}
    for line in text.splitlines():
        match = ARC_LINE.match(line.strip())
        if match is None:
            raise ValueError(f"unexpected line in `arcs` output: {line!r}")
        y, x, p = match.groups()
        entries[(schema.position(y), schema.position(x))] = float(p)
    return entries


def file_tables(path: Path, smoothed: bool = False) -> list:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [v["table"] for v in doc["variables"]] if smoothed else doc["tables"]


# `python -m bnrefine.cli` that also reports the process's own peak memory
# on exit: getrusage in (or on) a child counts the parent's pages it was
# spawned from, the kernel's VmHWM does not
CLI_MAIN = """\
import atexit, runpy, sys
def peak():
    with open('/proc/self/status') as status:
        kb = [line.split()[1] for line in status if line.startswith('VmHWM')]
    sys.stderr.write(f'peak-rss-kb {kb[0]}\\n')
atexit.register(peak)
runpy.run_module('bnrefine.cli', run_name='__main__', alter_sys=True)
"""
PEAK_LINE = re.compile(r"^peak-rss-kb (\d+)$", re.MULTILINE)


def finite_number(text: str) -> str | None:
    return None if math.isfinite(float(text)) else f"not a finite number: {text!r}"


class Cli(Workload):
    """One fresh `bnrefine` process per command; a session file carries the state.

    ``launcher`` gives the start of each command line: ``CLI_MAIN``
    untraced, or the benchmark's tracing shim in a traced run.
    """

    name = "cli"
    sizes = {
        "full": Size(n_vars=12, rows=4000, batch=400, heldout=2000, sessions=2, session_s=10.0),
        "tiny": Size(n_vars=6, rows=200, batch=100, heldout=100, sessions=1),
    }

    def __init__(self, size: Size):
        super().__init__(size)
        self.env = dict(os.environ, PYTHONPATH=str(Path(bn.__file__).resolve().parent.parent))
        self.launcher = lambda: [sys.executable, "-c", CLI_MAIN]
        self.peak_kb = 0

    def setup(self, seed: int, work: Path) -> Inputs:
        """Sample the rows, then write the spec, one CSV per batch and the held-out CSV."""
        inputs = super().setup(seed, work)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        write_spec(work / "spec.json", self.truth, inputs.priors)
        for k, chunk in enumerate(batches(inputs.rows, self.size.batch)):
            write_rows(work / f"batch{k:03d}.csv", self.truth.schema, chunk)
        write_rows(work / "heldout.csv", self.truth.schema, inputs.heldout)
        inputs.work = work
        return inputs

    def command(self, tally: Tally, work: Path, *args: str, check=None) -> str | None:
        """Run one command as a step; returns its stdout, or None if it failed."""
        tally.attempted += 1
        with tally.step():
            done = subprocess.run(
                [*self.launcher(), *args], cwd=work, env=self.env,
                capture_output=True, text=True, timeout=170,
            )
        for kb in PEAK_LINE.findall(done.stderr):
            self.peak_kb = max(self.peak_kb, int(kb))
        if done.returncode != 0:
            tally.failed += 1
            tally.errors[f"exit {done.returncode}: {args[0]}"] += 1
            return None
        try:
            tally.verify(check(done.stdout) if check else None)
        except (ValueError, KeyError, OSError) as err:
            tally.verify(f"{args[0]}: unreadable output: {err}")
        return done.stdout

    def session(self, tally: Tally, inputs: Inputs) -> SessionResult:
        """init, then observe/refine/arcs per batch, then smooth, map and loglik."""
        work, schema, priors = inputs.work, self.truth.schema, inputs.priors
        session = "session.json"
        matrix = None

        def arcs_ok(stdout):
            nonlocal matrix
            matrix = bn.ArcPosteriorMatrix(schema, parse_arcs(stdout, schema))
            if not (work / "arcs.dot").is_file():
                return "arcs: no DOT file written"
            return posterior_problem(matrix.entries, priors)

        start = tally.clock()
        self.command(tally, work, "init", "--spec", "spec.json", "--out", session)
        for k in range(self.size.rows // self.size.batch):
            self.command(tally, work, "observe", "--session", session, "--data", f"batch{k:03d}.csv")
            self.command(tally, work, "refine", "--session", session)
            self.command(tally, work, "arcs", "--session", session, "--dot", "arcs.dot",
                         check=arcs_ok)
        self.command(tally, work, "smooth", "--session", session, "--seed", str(inputs.seed),
                     "--out", "smoothed.json",
                     check=lambda _: rows_problem("smooth", file_tables(work / "smoothed.json",
                                                                       smoothed=True)))
        mapped = self.command(tally, work, "map", "--session", session, "--out", "best.json",
                              check=lambda _: rows_problem("map", file_tables(work / "best.json")))
        loglik = None
        if mapped is not None:
            out = self.command(tally, work, "loglik", "--network", "best.json",
                               "--data", "heldout.csv", check=finite_number)
            loglik = None if out is None else float(out)
        result = self.result(tally, start, matrix, loglik, [])
        net = tally.call(fileio.load_session, str(work / session))  # untimed, for the checks
        result.nets = [] if net is None else [net]
        return result

    def peak_rss_mb(self) -> float:
        """The largest peak resident memory of one command process."""
        return self.peak_kb / 1024.0

    def after(self, tally: Tally, inputs: Inputs, result: SessionResult) -> None:
        """Session save -> load -> save is byte-identical."""
        if not result.nets:
            return
        again = tally.call(fileio.serialize_session, result.nets[0])
        if again is not None and again != (inputs.work / "session.json").read_text(encoding="utf-8"):
            tally.verify("cli: session save -> load -> save is not byte-identical")


WORKLOADS = {w.name: w for w in (Stream, Anytime, Restricted, Cli)}
