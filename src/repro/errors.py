"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing schema problems from cost-model or optimizer problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema definition is inconsistent (unknown class, bad domain, ...)."""


class PathError(ReproError):
    """A path expression is malformed or does not fit the schema."""


class StorageError(ReproError):
    """The storage simulator was used incorrectly (bad page, bad record)."""


class IndexError_(ReproError):
    """An operational index operation failed.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class CostModelError(ReproError):
    """Cost-model inputs are invalid (negative cardinality, zero page size)."""


class WorkloadError(ReproError):
    """A workload/load-distribution is malformed for the given path."""


class OptimizerError(ReproError):
    """The configuration optimizer was given inconsistent inputs."""


class TraceError(ReproError):
    """An operation trace is malformed (bad event, unreadable JSONL, ...)."""


class ResilienceError(ReproError):
    """A resilience-layer operation (checkpoint, deadline, fault injection) failed."""


class DeadlineExceeded(ResilienceError):
    """A cooperative search gave up because its deadline expired.

    Raised from the deadline checkpoints inside the search strategies;
    callers holding a degradation ladder (``AdvisorSession.advise``,
    ``repro.resilience.degrade``) catch it and fall to the next rung.
    """


class CheckpointError(ResilienceError):
    """A checkpoint file is unreadable, torn, or inconsistent."""
