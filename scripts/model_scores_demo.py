#!/usr/bin/env python3
"""Compare full-table, noisy-or, and logistic node scores on data generated
by a noisy-or gate.  The restricted models spend n+1 parameters where the
table spends 2^n, so they should win once the parent set grows.

    python scripts/model_scores_demo.py --n 500 --parents 3 --seed 17
"""

import argparse
import sys

import numpy as np

from bnrefine import (
    ArcPriorMatrix,
    DomainSchema,
    PriorConfig,
    SearchParams,
    VariableSpec,
    init,
    observe_batch,
    refine,
)
from bnrefine.engine import SCORING_MODELS, family_log_ml
from bnrefine.localmodels import fit_map


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--parents", type=int, default=3)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    k = args.parents
    q = np.concatenate([[0.9], rng.uniform(0.2, 0.7, k)])
    rows = rng.random((args.n, k)) < 0.5
    p_false = q[0] * np.prod(np.where(rows, q[1:], 1.0), axis=1)
    x = rng.random(args.n) >= p_false
    print(f"noisy-or ground truth q = {np.round(q, 3).tolist()}")

    names = [f"p{i}" for i in range(k)] + ["x"]
    schema = DomainSchema(tuple(VariableSpec(n, ("f", "t")) for n in names))
    net = init(schema, ArcPriorMatrix(), PriorConfig(1.0))
    observe_batch(
        net, [tuple(int(v) for v in row) + (int(xi),) for row, xi in zip(rows, x)]
    )
    # expand every parent set and kill none, so that all of them are tabulated
    refine(net, SearchParams(c_alive=1e-12, d_open=1e-300, e_dead=1e-300, dead_kappa=float("inf")))

    child, lattice = k, net.lattices[k]
    print(f"\n{'parent set':<20} {'table':>12} {'noisy-or':>12} {'logistic':>12}")
    for key in sorted(lattice.nodes):
        node = lattice.nodes[key]
        # every set has absorbed the whole log, and each model scores the
        # counts as they stand
        scores = [
            family_log_ml(kind, node.counts, lattice.alpha, schema, child, node.parents)
            for kind in SCORING_MODELS
        ]
        label = "{" + ",".join(schema.name(p) for p in node.parents) + "}"
        best = max(range(3), key=lambda i: scores[i])
        cells = [
            f"{s:12.2f}" + ("*" if i == best else " ") for i, s in enumerate(scores)
        ]
        print(f"{label:<20}" + "".join(cells))
    full = lattice.nodes[(1 << k) - 1]
    fitted = fit_map("noisy-or", full.counts).params.q
    print(f"\nfitted q at the full parent set = {np.round(fitted, 3).tolist()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
