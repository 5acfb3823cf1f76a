"""Yao's block-access estimate [Yao 1977].

``npa(t, n, m)`` estimates the number of pages touched when retrieving
``t`` records out of ``n`` records uniformly distributed over ``m`` pages:

.. math::

    npa(t, n, m) = m \\cdot \\left[ 1 - \\prod_{i=1}^{t}
        \\frac{n - n/m - i + 1}{n - i + 1} \\right]

The cost model calls this with *expected* (fractional) record counts, so
the implementation interpolates linearly between the neighbouring integer
``t`` values, and falls back to the Cardenas approximation
``m (1 - (1 - 1/m)^t)`` when the exact product would be numerically
unreasonable (very large ``t``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.errors import CostModelError

#: Below this many factors the Python loop beats the array round-trip.
#: numpy's multiply-reduce accumulates sequentially (no pairwise
#: regrouping), so the vectorized product is bit-identical to the loop
#: and the threshold is purely a speed knob.
_VECTORIZE_MIN_FACTORS = 64

#: Above this many factors the exact product is replaced by Cardenas.
_EXACT_LIMIT = 100_000


def npa(t: float, n: float, m: float) -> float:
    """Expected pages accessed fetching ``t`` of ``n`` records on ``m`` pages.

    Degenerate inputs are handled the way the formulas need them:
    ``t <= 0`` costs nothing; ``t >= n`` touches all ``m`` pages; fewer
    records than pages means every record sits alone (cost ``t``).
    """
    # NaN fails every comparison, so one range check catches NaN,
    # infinities and negatives without a generator round-trip.
    if not (0.0 <= t < math.inf and 0.0 <= n < math.inf and 0.0 <= m < math.inf):
        if t < 0 or n < 0 or m < 0:
            raise CostModelError(f"npa: negative input ({t}, {n}, {m})")
        raise CostModelError(f"npa: non-finite input ({t}, {n}, {m})")
    if t == 0 or n == 0 or m == 0:
        return 0.0
    if m >= n:
        # At most one record per page: each retrieved record is one page.
        return float(min(t, n))
    if t >= n:
        return float(m)

    lower = math.floor(t)
    upper = math.ceil(t)
    if lower == upper:
        return _npa_integer(int(t), n, m)
    fraction = t - lower
    low_value, high_value = _npa_pair(lower, n, m)
    return (1.0 - fraction) * low_value + fraction * high_value


# Every freshly priced statistics object brings its own (t, n, m) keys
# (about 500 per multi-path fleet), so the memos are capped: a process
# that prices world after world keeps the recent keys, not all of them.
@lru_cache(maxsize=1 << 12)
def _npa_integer(t: int, n: float, m: float) -> float:
    if t <= 0:
        return 0.0
    if t > _EXACT_LIMIT:
        return _cardenas(float(t), m)
    value = m * (1.0 - _untouched_fraction(t, n, m))
    return float(min(max(value, 0.0), m))


@lru_cache(maxsize=1 << 12)
def _npa_pair(lower: int, n: float, m: float) -> tuple[float, float]:
    """``(npa(lower), npa(lower + 1))`` sharing one product accumulation.

    The interpolation path of :func:`npa` needs both neighbouring integer
    values; the product at ``lower + 1`` is the product at ``lower`` times
    one more factor, so computing the pair in a single pass halves the
    dominant cost of fractional lookups.
    """
    upper = lower + 1
    if lower <= 0:
        return 0.0, _npa_integer(upper, n, m)
    if upper > _EXACT_LIMIT:
        return _npa_integer(lower, n, m), _npa_integer(upper, n, m)
    product = _untouched_fraction(lower, n, m)
    low_value = float(min(max(m * (1.0 - product), 0.0), m))
    numerator = n - n / m - upper + 1
    if product == 0.0 or numerator <= 0:
        high_value = float(m)
    else:
        product *= numerator / (n - upper + 1)
        high_value = float(min(max(m * (1.0 - product), 0.0), m))
    return low_value, high_value


def _untouched_fraction(t: int, n: float, m: float) -> float:
    """``prod_{i=1..t} (n - n/m - i + 1)/(n - i + 1)``: the probability
    that a given page holds none of the ``t`` retrieved records.

    Every factor lies in (0, 1], so the running product is monotone
    decreasing and cannot overflow; once it is below double-precision
    resolution the result is 0 to machine accuracy and the loop stops
    early. (A closed form via lgamma exists but suffers catastrophic
    cancellation for large n — four ~n·log(n) terms whose sum is ~t/m.)
    """
    available = n - n / m
    if available - t + 1 <= 0:
        # A factor of the product is non-positive: every page is touched.
        return 0.0
    if t >= _VECTORIZE_MIN_FACTORS:
        offsets = np.arange(1.0, t + 1.0)
        product = float(np.prod((available + 1.0 - offsets) / (n + 1.0 - offsets)))
        return product if product >= 1e-18 else 0.0
    product = 1.0
    for i in range(1, t + 1):
        product *= (available - i + 1) / (n - i + 1)
        if product < 1e-18:
            return 0.0
    return product


def _cardenas(t: float, m: float) -> float:
    """Cardenas' approximation, exact in the records→∞ limit."""
    value = m * (1.0 - (1.0 - 1.0 / m) ** t)
    return float(min(max(value, 0.0), m))
