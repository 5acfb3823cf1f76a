"""Shared environment stamp for every ``BENCH_*.json`` artifact.

Benchmark numbers are only comparable when the environment that produced
them is known; every bench module's ``run()`` attaches
:func:`environment_metadata` under the ``environment`` key so artifacts
from different CI jobs (3.10 vs 3.12, different numpy builds) never get
compared as if they came from the same box.
"""

from __future__ import annotations

import os
import platform

import numpy


def environment_metadata() -> dict:
    """The reproducibility stamp recorded in each benchmark artifact."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": numpy.__version__,
    }
