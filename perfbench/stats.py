"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
from typing import Dict, Sequence


def percentile(values: Sequence[float], q: float) -> Dict[str, float]:
    """The ``q``-th percentile (0–100, nearest rank) with its sample count.

    ``beyond`` is how many samples lie above the reported one, so a
    reader can tell whether a tail percentile rests on enough samples
    (ten or more beyond it).
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return {"value": ordered[rank - 1], "count": len(ordered), "beyond": len(ordered) - rank}

