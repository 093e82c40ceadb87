"""Percentiles computed from raw samples, by nearest rank."""

from __future__ import annotations

import math
from typing import Sequence


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``samples``: the value at 0-based index
    ``ceil(q * n) - 1`` of the sorted samples (index 0 for ``q == 0``).

    Raises ``ValueError`` on an empty sample or ``q`` outside [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile %r outside [0, 1]" % (q,))
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
