"""Forward sampling from a concrete network.

Variables are drawn in schema order, so every parent is realized before
its children.  One uniform variate is consumed per variable per example,
row by row, from a PCG64 generator, making output reproducible across
platforms for a fixed seed.  Rows are drawn in blocks, each variable for
the whole block at once: the cumulative CPT is gathered at the rows'
parent configurations, and the value drawn is the number of cumulative
entries at or below the uniform.  Blocks bound the memory a large sample
needs beside its output.
"""

from __future__ import annotations

import numpy as np

from .domain import ConcreteNetwork, Example, config_codes

BLOCK_ROWS = 1024


def forward_sample(network: ConcreteNetwork, n: int, seed: int) -> list[Example]:
    if n < 0:
        raise ValueError(f"sample count must be nonnegative, got {n}")
    rng = np.random.default_rng(seed)
    schema = network.schema
    cumulative = [np.cumsum(t, axis=1) for t in network.tables]
    examples: list[Example] = []
    for start in range(0, n, BLOCK_ROWS):
        uniforms = rng.random((min(BLOCK_ROWS, n - start), len(schema)))
        rows = np.zeros(uniforms.shape, dtype=schema.value_dtype)
        for x, parents in enumerate(network.parents):
            drawn = cumulative[x][config_codes(rows, parents, schema)] <= uniforms[:, x, None]
            # guard against cumulative rounding just below 1.0
            rows[:, x] = np.minimum(drawn.sum(axis=1), schema.arity(x) - 1)
        # tuples straight from the columns: per-row lists would fragment the heap
        examples += zip(*rows.T.tolist()) if len(schema) else [()] * len(rows)
    return examples
