"""Greyscale DOT rendering of arc beliefs.

Arcs are drawn in shades of grey: certain arcs solid black, weak arcs
nearly white.  Two intensity mappings:

- linear: intensity equals the probability itself;
- log: intensity (log p - log p_min) / (-log p_min), clamped to [0, 1]
  with p_min = 1e-3, spreading the usable grey range over three decades.

Arcs below a display threshold in [0, 1] (default 0.01) are omitted.  Output bytes
are deterministic for identical input.
"""

from __future__ import annotations

import math

from .query import ArcPosteriorMatrix, SmoothedNetwork

LOG_P_MIN = 1e-3
DISPLAY_THRESHOLD = 0.01


def _grey_level(p: float, mapping: str) -> int:
    """DOT grey index in 0..100 (0 = black) under ``mapping``, "linear" or
    "log" (``export_dot`` checks it); full black exactly at p = 1."""
    if mapping == "linear":
        intensity = p
    elif p <= 0:
        intensity = 0.0
    else:
        intensity = (math.log(p) - math.log(LOG_P_MIN)) / (-math.log(LOG_P_MIN))
        intensity = min(max(intensity, 0.0), 1.0)
    return round(100 * (1.0 - intensity))


def _render(name: str, nodes: list[str], edges: list[tuple[str, str, float]], mapping: str,
            threshold: float) -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for node in nodes:
        lines.append(f'  "{node}";')
    for tail, head, p in edges:
        if p < threshold:
            continue
        grey = _grey_level(p, mapping)
        lines.append(
            f'  "{tail}" -> "{head}" [color="gray{grey}", label="{p:.3f}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(
    source: ArcPosteriorMatrix | SmoothedNetwork,
    mapping: str = "linear",
    threshold: float = DISPLAY_THRESHOLD,
) -> str:
    """Render an arc-posterior matrix or a smoothed network as DOT text.

    Raises ``ValueError`` for an unknown grey mapping, and for a threshold
    outside [0, 1], NaN included.
    """
    if mapping not in ("linear", "log"):
        raise ValueError(f"unknown grey mapping {mapping!r}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"display threshold {threshold} outside [0, 1]")
    if isinstance(source, ArcPosteriorMatrix):
        schema = source.schema
        edges = [
            (schema.name(y), schema.name(x), p)
            for (y, x), p in sorted(source.entries.items())
        ]
        title = "arc_posteriors"
    elif isinstance(source, SmoothedNetwork):
        schema = source.schema
        edges = []
        for x, var in enumerate(source.variables):
            for y in var.leaf:
                edges.append((schema.name(y), schema.name(x), var.arc_probs[y]))
        edges.sort()
        title = "smoothed_network"
    else:
        raise TypeError(f"cannot render {type(source).__name__} as DOT")
    nodes = [v.name for v in schema.variables]
    return _render(title, nodes, edges, mapping, threshold)
