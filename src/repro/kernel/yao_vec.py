"""Vectorized Yao estimates for the columnar kernel.

:func:`npa_array` evaluates Yao's ``npa(t, n, m)`` elementwise over numpy
arrays and is **bit-identical** to mapping the scalar
:func:`repro.costmodel.yao.npa` over the same elements. Identity is
achieved by construction, not by accident:

* the trivial branches (``t == 0``/``n == 0``/``m == 0``, ``m >= n``,
  ``t >= n``) assign the same closed-form values the scalar code returns;
* "hard" elements with few product factors run a vectorized replica of the
  scalar Python loop — the same multiply/divide sequence per element, the
  same ``1e-18`` early-exit, the same interpolation arithmetic for
  fractional ``t`` (:func:`repro.costmodel.yao._npa_pair`);
* hard elements with many factors — where the scalar itself switches to a
  sequential numpy product over an ``arange`` of factors — are grouped by
  ``(n, m)``; all groups climb their factor staircases together, side by
  side in cache-sized strips reduced down the step axis, each strip
  seeded with the previous one's products. Every column thus multiplies
  strictly left to right, the order of the scalar's ``multiply.reduce``,
  so every prefix product carries exactly the scalar's bits;
* the boundary and exotic cases (a staircase just under the scalar's
  vectorization threshold, Cardenas territory) are routed through the
  scalar reference one element at a time, so they cannot drift.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.costmodel.yao import _EXACT_LIMIT, _VECTORIZE_MIN_FACTORS, npa

#: Hard elements whose integer staircase needs at least this many product
#: factors fall back to the scalar reference (mirrors the scalar code's
#: own switch to its numpy product at ``_VECTORIZE_MIN_FACTORS``; below
#: it the scalar path is the plain Python loop replicated here).
_SMALL_T_MAX = 64

#: The scalar early-exit threshold of ``_untouched_fraction``.
_PRODUCT_FLOOR = 1e-18

#: Staircase factors per strip of :func:`_staircase_prefixes`: 128 KiB
#: of float64 per temporary, so a strip stays in cache.
_STRIP_FACTORS = 1 << 14


def npa_array(t, n, m) -> np.ndarray:
    """Elementwise ``npa(t, n, m)`` over broadcastable float64 arrays.

    Inputs must be finite and non-negative (the kernel only feeds
    quantities derived from validated statistics); the scalar fallback
    still raises for invalid hard elements.
    """
    t, n, m = np.broadcast_arrays(
        np.asarray(t, dtype=np.float64),
        np.asarray(n, dtype=np.float64),
        np.asarray(m, dtype=np.float64),
    )
    shape = t.shape
    t = np.ascontiguousarray(t).ravel()
    n = np.ascontiguousarray(n).ravel()
    m = np.ascontiguousarray(m).ravel()
    out = np.zeros(t.shape)

    zero = (t == 0.0) | (n == 0.0) | (m == 0.0)
    one_per_page = (m >= n) & ~zero
    if one_per_page.any():
        # At most one record per page: each retrieved record is one page.
        np.copyto(out, np.minimum(t, n), where=one_per_page)
    full = (t >= n) & ~zero & ~one_per_page
    if full.any():
        np.copyto(out, m, where=full)

    hard = ~(zero | one_per_page | full)
    if hard.any():
        index = np.nonzero(hard)[0]
        out[index] = _npa_hard(t[index], n[index], m[index])
    return out.reshape(shape)


def _npa_hard(t: np.ndarray, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The non-trivial region ``0 < t < n``, ``m < n``.

    Matrix batches repeat the same ``(t, n, m)`` triples heavily (the same
    probe chains recur in every row sharing an endpoint), so the hard
    region is deduplicated first and each distinct triple is evaluated
    once — the batched equivalent of the scalar path's ``lru_cache``.
    """
    # Group identical triples via a lexicographic sort on the native
    # float64 keys (np.unique(axis=0)'s void-dtype argsort is an order of
    # magnitude slower on batches this size).
    order = np.lexsort((m, n, t))
    ts, ns, ms = t[order], n[order], m[order]
    first = np.empty(ts.shape, dtype=bool)
    first[:1] = True
    first[1:] = (
        (ts[1:] != ts[:-1]) | (ns[1:] != ns[:-1]) | (ms[1:] != ms[:-1])
    )
    group = np.cumsum(first) - 1
    inverse = np.empty(ts.shape, dtype=np.intp)
    inverse[order] = group
    ut, un, um = ts[first], ns[first], ms[first]
    values = np.empty(ut.shape)
    lower = np.floor(ut)
    big = lower + 1.0 >= _SMALL_T_MAX
    if big.any():
        # The grouped-cumprod path covers exactly the region where the
        # scalar uses its own sequential numpy product (floor(t) at or
        # beyond its vectorization threshold, within the exact limit);
        # the boundary staircase and Cardenas territory stay scalar.
        upper = np.where(ut != lower, lower + 1.0, lower)
        grouped = big & (lower >= _VECTORIZE_MIN_FACTORS) & (upper <= _EXACT_LIMIT)
        scalar = big & ~grouped
        if scalar.any():
            index = np.nonzero(scalar)[0]
            values[index] = [
                npa(a, b, c)
                for a, b, c in zip(
                    ut[index].tolist(), un[index].tolist(), um[index].tolist()
                )
            ]
        if grouped.any():
            index = np.nonzero(grouped)[0]
            values[index] = _npa_big(ut[index], un[index], um[index])
    small = ~big
    if small.any():
        index = np.nonzero(small)[0]
        values[index] = _npa_small(ut[index], un[index], um[index])
    return values[inverse.reshape(-1)]


def _npa_big(t: np.ndarray, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Hard elements with a long staircase, all ``(n, m)`` groups at once.

    For ``floor(t) >= _VECTORIZE_MIN_FACTORS`` the scalar
    ``_untouched_fraction`` computes a full sequential numpy product over
    ``arange`` factors (no mid-loop early exit; a trailing ``1e-18``
    threshold instead). All elements sharing ``(n, m)`` draw prefixes of
    the *same* factor sequence, so each group climbs its staircase once
    and answers every element on it (:func:`_staircase_prefixes`).
    Elements past the scalar's pre-product guard never climb: a
    non-positive factor in range means every page is touched.
    """
    low_t = np.floor(t)
    frac = t - low_t
    available = n - n / m
    guarded = available - low_t + 1.0 <= 0.0
    order = np.lexsort((n, m))
    ns, ms = n[order], m[order]
    first = np.empty(t.shape, dtype=bool)
    first[:1] = True
    first[1:] = (ns[1:] != ns[:-1]) | (ms[1:] != ms[:-1])
    group = np.empty(t.shape, dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    steps = np.where(guarded, 0.0, low_t).astype(np.intp)
    heads = order[first]
    top = np.maximum.reduceat(steps[order], np.flatnonzero(first))
    product = _staircase_prefixes(
        available[heads] + 1.0, n[heads] + 1.0, top, group, steps
    )
    product = np.where(product >= _PRODUCT_FLOOR, product, 0.0)
    product[guarded] = 0.0
    low_value = _clamp(m * (1.0 - product), m)
    fractional = frac > 0.0
    if not fractional.any():
        return low_value
    # _npa_pair's one-more-factor extension to the upper neighbour, in
    # the scalar's exact operation order.
    upper = low_t + 1.0
    numerator = available - upper + 1.0
    saturated = (product == 0.0) | (numerator <= 0.0)
    extended = product * (numerator / (n - upper + 1.0))
    high_value = np.where(saturated, m, _clamp(m * (1.0 - extended), m))
    return np.where(
        fractional, (1.0 - frac) * low_value + frac * high_value, low_value
    )


def _staircase_prefixes(
    available1: np.ndarray,
    n1: np.ndarray,
    top: np.ndarray,
    group: np.ndarray,
    steps: np.ndarray,
) -> np.ndarray:
    """``prod_{i=1..steps[k]} (available1 - i) / (n1 - i)`` of group ``group[k]``.

    Every group's staircase runs down one column of a sequence of strips
    of about ``_STRIP_FACTORS`` factors; columns are ordered longest
    staircase first, so a strip holds exactly the groups still climbing.
    The strip's first row is multiplied by the previous strip's column
    products and each column is reduced down the step axis, so every
    running product extends strictly left to right — the accumulation
    order of the scalar's ``np.prod``, hence its bits. An element reads
    its column's prefix with the rows past its step masked to ``1.0``.
    A group whose staircase ends inside a strip has its offsets clamped
    to its top there, so the rows past it never divide by zero or
    overflow. Elements with ``steps == 0`` are left at ``0.0``.
    """
    rank = np.argsort(-top, kind="stable")
    column = np.empty(rank.shape, dtype=np.intp)
    column[rank] = np.arange(rank.shape[0])
    top = top[rank]
    tops = top.astype(np.float64)
    available1 = available1[rank]
    n1 = n1[rank]
    # Strip bounds (low, high, climbing columns, columns climbing past
    # the strip's last step), longest staircase first.
    descending = (-top).tolist()
    end = int(top[0]) + 1
    strips = []
    low = 1
    while low < end:
        width = bisect.bisect_right(descending, -low)
        high = min(low + max(1, _STRIP_FACTORS // width), end)
        strips.append(
            (low, high, width, bisect.bisect_right(descending, 1 - high))
        )
        low = high
    by_step = np.argsort(steps, kind="stable")
    sorted_steps = steps[by_step]
    sorted_column = column[group[by_step]]
    # Elements of strip k sit between cuts[k] and cuts[k + 1].
    cuts = np.searchsorted(
        sorted_steps, [strip[0] for strip in strips] + [end]
    ).tolist()
    out = np.zeros(steps.shape)
    seed = None
    for index, (low, high, width, full) in enumerate(strips):
        offsets = np.arange(float(low), float(high))[:, None]
        strip = np.empty((high - low, width))
        np.divide(
            available1[:full] - offsets, n1[:full] - offsets, out=strip[:, :full]
        )
        if full < width:
            clamped = np.minimum(offsets, tops[full:width])
            np.divide(
                available1[full:width] - clamped,
                n1[full:width] - clamped,
                out=strip[:, full:],
            )
        if seed is not None:
            strip[0] *= seed[:width]
        first, last = cuts[index], cuts[index + 1]
        if last > first:
            picked = strip[:, sorted_column[first:last]]
            picked[offsets > sorted_steps[first:last]] = 1.0
            out[by_step[first:last]] = np.multiply.reduce(picked, axis=0)
        seed = np.multiply.reduce(strip, axis=0)
    return out


def _untouched_fraction_vec(
    counts: np.ndarray, n: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """Vector replica of the scalar ``_untouched_fraction`` Python loop.

    ``counts`` holds integer-valued factor counts in ``[1, _SMALL_T_MAX)``.
    Per element the multiply sequence — and the early exit to an exact
    0.0 once the running product drops below ``1e-18`` — matches the
    scalar loop step for step.
    """
    available = n - n / m
    product = np.ones(counts.shape)
    # A non-positive factor anywhere in the product: every page is touched.
    product[available - counts + 1.0 <= 0.0] = 0.0
    alive = product > 0.0
    top = int(counts.max())
    for i in range(1, top + 1):
        step = alive & (counts >= i)
        if not step.any():
            break
        product[step] *= (available[step] - i + 1) / (n[step] - i + 1)
        died = step & (product < _PRODUCT_FLOOR)
        if died.any():
            product[died] = 0.0
            alive &= ~died
    return product


def _clamp(value: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``min(max(value, 0.0), m)`` — the scalar result clamp."""
    return np.minimum(np.maximum(value, 0.0), m)


def _npa_small(t: np.ndarray, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Hard elements with a short staircase: the vectorized exact path."""
    out = np.empty(t.shape)
    lower = np.floor(t)
    fraction = t - lower
    integer = fraction == 0.0

    if integer.any():
        index = np.nonzero(integer)[0]
        product = _untouched_fraction_vec(t[index], n[index], m[index])
        out[index] = _clamp(m[index] * (1.0 - product), m[index])

    fractional = ~integer
    if fractional.any():
        index = np.nonzero(fractional)[0]
        tf, nf, mf = t[index], n[index], m[index]
        lowf = lower[index]
        frac = fraction[index]
        upper = lowf + 1.0
        low_value = np.zeros(tf.shape)
        high_value = np.empty(tf.shape)
        # lower == 0: npa(0) is 0 and the upper neighbour is npa(1).
        at_zero = lowf <= 0.0
        if at_zero.any():
            zi = np.nonzero(at_zero)[0]
            product = _untouched_fraction_vec(
                np.ones(zi.shape), nf[zi], mf[zi]
            )
            high_value[zi] = _clamp(mf[zi] * (1.0 - product), mf[zi])
        positive = ~at_zero
        if positive.any():
            pi = np.nonzero(positive)[0]
            product = _untouched_fraction_vec(lowf[pi], nf[pi], mf[pi])
            low_value[pi] = _clamp(mf[pi] * (1.0 - product), mf[pi])
            # One more factor extends the product to the upper neighbour.
            numerator = nf[pi] - nf[pi] / mf[pi] - upper[pi] + 1.0
            saturated = (product == 0.0) | (numerator <= 0.0)
            high = np.empty(pi.shape)
            if saturated.any():
                high[saturated] = mf[pi][saturated]
            open_ = ~saturated
            if open_.any():
                extended = product[open_] * (
                    numerator[open_] / (nf[pi][open_] - upper[pi][open_] + 1.0)
                )
                high[open_] = _clamp(
                    mf[pi][open_] * (1.0 - extended), mf[pi][open_]
                )
            high_value[pi] = high
        out[index] = (1.0 - frac) * low_value + frac * high_value
    return out
