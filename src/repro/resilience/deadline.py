"""Wall-clock budgets for deadline-bounded advising.

A :class:`Deadline` is a small monotonic-clock budget handed down the
advising stack (``advise`` → search strategy → per-position relaxation).
Search strategies check it *cooperatively* — once per DP position,
branch-and-bound node, or enumerated partition — and raise
:class:`~repro.errors.DeadlineExceeded` when the budget is spent, so an
exact search never overruns its slot by more than one step's work. The degradation ladder above (``repro.resilience.degrade``)
catches the exception and answers from a cheaper rung.

The clock is injectable (``clock=time.monotonic`` by default) so the
fault-injection layer can simulate a hung search deterministically —
a fake clock that jumps forward per call expires a deadline without
any real waiting.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import DeadlineExceeded, ResilienceError


class Deadline:
    """A monotonic wall-clock budget with cooperative expiry checks."""

    __slots__ = ("budget_seconds", "_clock", "_started")

    def __init__(
        self,
        budget_seconds: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not (0.0 <= float(budget_seconds) < float("inf")):
            raise ResilienceError(
                f"deadline budget must be a finite non-negative number "
                f"of seconds, got {budget_seconds!r}"
            )
        self.budget_seconds = float(budget_seconds)
        self._clock = clock
        self._started = clock()

    @classmethod
    def after_ms(
        cls,
        budget_ms: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now."""
        return cls(budget_ms / 1000.0, clock=clock)

    def elapsed(self) -> float:
        """Seconds since the deadline was armed."""
        return self._clock() - self._started

    def remaining(self) -> float:
        """Seconds left in the budget (never negative)."""
        return max(0.0, self.budget_seconds - self.elapsed())

    @property
    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.elapsed() >= self.budget_seconds

    def check(self, label: str = "search") -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` once expired.

        ``label`` names the checkpoint that noticed the expiry; it is
        carried in the exception message so degradation events can say
        *where* the budget ran out, not just that it did.
        """
        if self.expired:
            raise DeadlineExceeded(
                f"{label}: deadline of {self.budget_seconds * 1000.0:.1f} ms "
                f"expired after {self.elapsed() * 1000.0:.1f} ms"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(budget_seconds={self.budget_seconds!r}, "
            f"remaining={self.remaining():.4f})"
        )
