"""Cooperative cancellation and progress observation for one execution.

The staged pipeline (:mod:`repro.engine.pipeline`) is a synchronous
operator chain; what makes :meth:`PreparedSearch.submit` observable and
cancellable is the :class:`ExecutionControl` threaded through it.  The
Score stage registers the shard count with :meth:`begin`, reports every
completed shard through :meth:`shard_completed` (feeding the user's
progress callback), and checks :attr:`cancelled` before dispatching each
remaining shard — a cancel drops the un-dispatched shards, and the
MergeTopK rendezvous raises :class:`~repro.errors.SearchCancelled`
instead of merging a partial top-k.

Cancellation is *cooperative*: shards already running on the pool finish
normally (so the pool stays reusable and deterministic), only their
results are discarded.  The same hook points are the seam a future
streaming-append execute path can feed incremental merges from.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Tuple

#: Well-known cancellation reason codes.  ``CANCEL_USER`` is the default
#: (an explicit ``future.cancel()``); ``CANCEL_SHED`` marks a load-shed
#: by the serving layer's admission controller (the client sees an
#: ``overloaded`` frame, not a generic cancel); ``CANCEL_SHUTDOWN``
#: marks a teardown sweep (engine/server close).  The reason is carried
#: on the control, not the exception type, so every path that already
#: handles :class:`~repro.errors.SearchCancelled` keeps working.
CANCEL_USER = "user"
CANCEL_SHED = "shed"
CANCEL_SHUTDOWN = "shutdown"


class ExecutionControl:
    """Shared state between one in-flight execution and its observers.

    ``progress`` is an optional ``callable(completed, total)`` invoked
    from the execution's driver thread — once when the Score stage
    establishes its shard count (``completed == 0``), once per shard
    completed thereafter, and once when a cancel drops the remaining
    shards (so observers always see a terminal state; see :meth:`drop`
    for the ``completed + dropped == total`` contract).  Keep callbacks
    cheap; they run on the critical
    path of the search that reports through them.  A raising callback is
    swallowed (the search must not fail because its observer did).
    """

    __slots__ = (
        "_cancelled", "_lock", "_progress", "_cancel_reason",
        "total", "completed", "dropped",
    )

    def __init__(
        self, progress: Optional[Callable[[int, Optional[int]], None]] = None
    ) -> None:
        self._cancelled = threading.Event()
        self._lock = threading.Lock()
        self._progress = progress
        self._cancel_reason: Optional[str] = None
        #: Shards the Score stage planned (None until it begins).
        self.total: Optional[int] = None
        #: Shards whose results are in.
        self.completed = 0
        #: Shards dropped by a cooperative cancel (never dispatched, or
        #: cancelled on the pool before starting).
        self.dropped = 0

    # -- cancellation ------------------------------------------------------
    def cancel(self, reason: str = CANCEL_USER) -> None:
        """Request cooperative cancellation (idempotent, thread-safe).

        ``reason`` is a short code recorded on first cancel (later calls
        never overwrite it): :data:`CANCEL_USER` for explicit cancels,
        :data:`CANCEL_SHED` when an admission controller load-sheds the
        execution, :data:`CANCEL_SHUTDOWN` for teardown sweeps.  Read it
        back via :attr:`cancel_reason` — the serving layer maps ``shed``
        to an ``overloaded`` response instead of a generic cancel.
        """
        with self._lock:
            if self._cancel_reason is None:
                self._cancel_reason = str(reason)
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled.is_set()

    @property
    def cancel_reason(self) -> Optional[str]:
        """The first :meth:`cancel` call's reason code (None before)."""
        with self._lock:
            return self._cancel_reason

    # -- progress (driven by the Score stage) ------------------------------
    def begin(self, total: int) -> None:
        """Plan ``total`` more shards and emit the progress.

        An indexed Score stage dispatches round after round, each adding
        its shards to the plan, so ``completed + dropped == total`` holds
        at every round's end.
        """
        with self._lock:
            self.total = (self.total or 0) + total
        self._notify()

    def shard_completed(self) -> None:
        """Count one finished shard and notify the progress callback."""
        with self._lock:
            self.completed += 1
        self._notify()

    def drop(self, count: int) -> None:
        """Record ``count`` shards skipped by a cooperative cancel.

        Notifies the progress callback, so an observer of a cancelled
        (or tail-superseded) search always sees a terminal state.  The
        terminal contract is ``completed + dropped == total``: after the
        last notification, every shard is accounted for either as
        completed or as dropped.  The callback signature stays
        ``(completed, total)`` for compatibility; read
        :attr:`dropped` (or :meth:`snapshot`) off the control to close
        the gap between the two.
        """
        if count:
            with self._lock:
                self.dropped += count
            self._notify()

    def snapshot(self) -> Tuple[int, Optional[int], int]:
        """``(completed, total, dropped)`` in one consistent read."""
        with self._lock:
            return self.completed, self.total, self.dropped

    @property
    def progress(self) -> Tuple[int, Optional[int]]:
        """``(completed shards, total shards or None)`` right now."""
        with self._lock:
            return self.completed, self.total

    def _notify(self) -> None:
        if self._progress is None:
            return
        try:
            self._progress(self.completed, self.total)
        except Exception:
            # Observer errors must not poison the search they watch —
            # the same policy as SearchFuture's done-callbacks.
            pass
