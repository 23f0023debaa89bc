#!/usr/bin/env python3
"""One default refine of a wide network: the cost of expansions as the
number of variables grows.

The network is the benchmark's ``generated_truth(V)`` (boolean, at most
three parents per variable) with its expert priors, both read from
``bench/workloads.py``; 2,000 rows of seed 1 are observed in one batch and
refined once with the default search.  The children created, the sets
stored at the end and the true arcs recovered (posterior above 1/2) go to
stdout, the seconds the refine took to stderr.

    PYTHONPATH=src python scripts/wide_refine.py --vars 80
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import expert_priors, generated_truth, true_arcs  # noqa: E402

from bnrefine import (  # noqa: E402
    PriorConfig,
    SearchParams,
    all_arc_posteriors,
    forward_sample,
    init,
    network_stats,
    observe_batch,
    refine,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vars", type=int, default=40, help="number of variables (default 40)")
    args = parser.parse_args()
    truth = generated_truth(args.vars)
    net = init(truth.schema, expert_priors(truth), PriorConfig(alpha=1.0))
    observe_batch(net, forward_sample(truth, 2000, 1))
    start = time.perf_counter()
    report = refine(net, SearchParams())
    seconds = time.perf_counter() - start
    posteriors = all_arc_posteriors(net).entries
    arcs = true_arcs(truth)
    recovered = sum(1 for arc in arcs if posteriors[arc] > 0.5)
    print(f"variables {args.vars}")
    print(f"children created {report.nodes_created}")
    print(f"stored sets {network_stats(net).total_stored}")
    print(f"true arcs recovered {recovered} of {len(arcs)}")
    print(f"refine {seconds:.3f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
