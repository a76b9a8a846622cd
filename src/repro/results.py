"""Result objects of the session API: :class:`ResultSet` and :class:`SearchFuture`.

Every execution path returns a :class:`ResultSet` where it used to
return a bare ``List[Match]``.  A ResultSet *is* a sequence of matches —
indexing, slicing, iteration, ``len`` and equality against plain lists
all behave exactly like the old list — but it additionally carries the
call's private :class:`~repro.engine.executor.ExecutionStats`, the
physical plan the planner chose (rendered lazily), and convenience
accessors (:meth:`ResultSet.top`, :meth:`ResultSet.to_records`,
:meth:`ResultSet.render`).

:class:`SearchFuture` is the handle returned by the non-blocking submit
paths (:meth:`repro.api.PreparedSearch.submit`,
:meth:`repro.api.ShapeSearch.submit_many`): a small promise resolved by
the engine's dispatcher thread, with cooperative cancellation routed
through the execution's :class:`~repro.engine.control.ExecutionControl`.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    cast,
    overload,
)

from repro.errors import SearchCancelled

if TYPE_CHECKING:  # import only for annotations: results must stay leaf-light
    from repro.engine.control import ExecutionControl


class ResultSet(Sequence):
    """Ranked matches plus everything the engine knows about the call.

    Sequence-compatible with the historical ``List[Match]`` return type:
    ``rs[0]``, ``rs[:3]`` (another ResultSet), ``len(rs)``, iteration,
    ``in`` and ``rs == [match, ...]`` all work, so existing code keeps
    working unchanged.  On top of that:

    * ``rs.stats`` — the per-call :class:`ExecutionStats` (never shared
      between calls);
    * ``rs.plan`` — the rendered physical operator chain this call
      actually ran (the same text :meth:`PreparedSearch.explain_plan`
      shows before running);
    * ``rs.top(n)`` — the first ``n`` matches as a ResultSet;
    * ``rs.to_records()`` — plain-dict rows for DataFrame/JSON handoff;
    * ``rs.render()`` — the terminal results panel, rendered lazily
      (nothing is formatted until asked).
    """

    __slots__ = ("_matches", "stats", "_plan", "revision")

    def __init__(
        self,
        matches: Iterable[Any],
        stats: Optional[Any] = None,
        plan: Optional[Any] = None,
        revision: Optional[int] = None,
    ) -> None:
        self._matches: List[Any] = list(matches)
        #: This call's private ExecutionStats (None for synthesized sets).
        self.stats = stats
        # The rendered plan text (or an object with .explain(); rendered
        # and cached on first access — never hold a live operator chain
        # here, it would pin the table/candidates it references).
        self._plan = plan
        #: Streaming refresh counter: set by :class:`repro.api.TailSearch`
        #: (0 for the initial pass, +1 per applied append), None for
        #: one-shot executions.  Lets observers of a live tail tell
        #: *which* table state a ResultSet reflects.
        self.revision = revision

    # -- sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._matches)

    @overload
    def __getitem__(self, index: int) -> Any: ...

    @overload
    def __getitem__(self, index: slice) -> "ResultSet": ...

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return ResultSet(
                self._matches[index],
                stats=self.stats,
                plan=self._plan,
                revision=self.revision,
            )
        return self._matches[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._matches)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResultSet):
            return self._matches == other._matches
        if isinstance(other, (list, tuple)):
            return self._matches == list(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    # mutable-sequence semantics, like the list it replaces
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        preview = ", ".join(repr(match) for match in self._matches[:3])
        if len(self._matches) > 3:
            preview += ", ..."
        return "ResultSet([{}], n={})".format(preview, len(self._matches))

    # -- accessors ---------------------------------------------------------
    @property
    def plan(self) -> Optional[str]:
        """The rendered physical plan this call ran."""
        if self._plan is not None and not isinstance(self._plan, str):
            self._plan = self._plan.explain()
        return self._plan

    @property
    def matches(self) -> List[Any]:
        """The underlying match list (a copy-free view; do not mutate)."""
        return self._matches

    @property
    def candidates_pruned(self) -> int:
        """Candidates this call discarded without a full DP solve.

        Sums the engine's two exact pruning channels: the shape index's
        IndexPrune stage and push-down (b)'s eager discards.  0 for
        synthesized sets (no stats) and for runs where every candidate
        was scored.
        """
        if self.stats is None:
            return 0
        return getattr(self.stats, "index_pruned", 0) + getattr(
            self.stats, "eager_discarded", 0
        )

    @property
    def index_source(self) -> Optional[str]:
        """Where this call's shape index came from, if IndexPrune bounded.

        ``"memory"`` (table-attached or cache hit), ``"disk"`` (loaded
        from the memory-mapped artifact store), ``"built"`` (fresh build
        or append-lineage extension), or None when the stage did not
        bound anything — index disabled, query unboundable, collection
        no larger than the first round, or a synthesized set without stats.
        """
        if self.stats is None:
            return None
        return getattr(self.stats, "index_source", None)

    def top(self, n: int) -> "ResultSet":
        """The best ``n`` matches, stats and plan carried along."""
        return self[:n]

    def to_records(self) -> List[dict]:
        """Plain-dict rows: ``{"key", "score", "placements"}`` per match.

        ``placements`` holds ``(seg_index, start, end, score, slope)``
        tuples — everything a DataFrame or JSON serializer needs without
        touching engine internals.
        """
        return [
            {
                "key": match.key,
                "score": match.score,
                "placements": [
                    (p.seg_index, p.start, p.end, p.score, p.slope)
                    for p in match.placements
                ],
            }
            for match in self._matches
        ]

    def render(self, width: int = 60) -> str:
        """The terminal results panel (see :mod:`repro.render`)."""
        from repro.render import render_matches

        return render_matches(self._matches, width)


class SearchFuture:
    """Handle on a search dispatched without blocking the caller.

    Returned by :meth:`PreparedSearch.submit` and
    :meth:`ShapeSearch.submit_many`; resolved by the engine's dispatcher
    thread.  The interface follows :class:`concurrent.futures.Future`
    where it can:

    * :meth:`result` blocks (optionally up to ``timeout`` seconds) and
      returns the :class:`ResultSet`, re-raising whatever the execution
      raised — :class:`~repro.errors.SearchCancelled` after a cancel;
    * :meth:`done` / :meth:`running` / :meth:`cancelled` observe state
      without blocking;
    * :meth:`cancel` requests *cooperative* cancellation: shards already
      running on the pool finish (the pool stays reusable), un-dispatched
      shards are dropped, and the pipeline's MergeTopK rendezvous raises
      instead of merging a partial top-k.  Unlike stdlib futures, cancel
      works mid-run, not only before the task starts;
    * :attr:`progress` is ``(completed shards, total shards or None)``.
    """

    __slots__ = (
        "_control", "_done", "_lock", "_result", "_exception",
        "_cancel_requested", "_started", "_callbacks",
    )

    def __init__(self, control: "ExecutionControl") -> None:
        self._control = control
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._result: Optional[ResultSet] = None
        self._exception: Optional[BaseException] = None
        self._cancel_requested = False
        self._started = False
        self._callbacks: List[Callable[["SearchFuture"], None]] = []

    # -- driver protocol (engine dispatcher only) --------------------------
    def _start(self) -> bool:
        """Mark the execution running; False when already cancelled."""
        with self._lock:
            if self._cancel_requested:
                return False
            self._started = True
            return True

    def _finish(
        self,
        result: Optional[ResultSet] = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        """Resolve the future exactly once (later calls are ignored).

        ``cancel() == True`` guarantees a cancelled resolution even when
        the request lands after the pipeline's last cancellation check:
        a successful result is discarded, and a concurrent execution
        error is wrapped (chained as ``__cause__`` so it stays
        inspectable via ``future.exception()``).
        """
        with self._lock:
            if self._done.is_set():
                return
            if self._cancel_requested and not isinstance(exception, SearchCancelled):
                if exception is None:
                    exception = SearchCancelled(
                        "search cancelled at completion; result discarded"
                    )
                else:
                    wrapped = SearchCancelled(
                        "search cancelled; execution failed concurrently: "
                        "{!r}".format(exception)
                    )
                    wrapped.__cause__ = exception
                    exception = wrapped
                result = None
            self._result = result
            self._exception = exception
            callbacks, self._callbacks = self._callbacks, []
            self._done.set()
        for callback in callbacks:
            try:
                callback(self)
            except Exception:
                pass  # observer errors must not poison the resolution path

    # -- observation -------------------------------------------------------
    def done(self) -> bool:
        """True once resolved (with a result, an error, or a cancel)."""
        return self._done.is_set()

    def running(self) -> bool:
        """True while the dispatcher is executing this search."""
        with self._lock:
            return self._started and not self._done.is_set()

    def cancelled(self) -> bool:
        """True when the future resolved as cancelled."""
        return self._done.is_set() and isinstance(self._exception, SearchCancelled)

    @property
    def progress(self) -> Tuple[int, Optional[int]]:
        """``(completed shards, total shards or None)`` right now."""
        return self._control.progress

    def add_done_callback(self, callback: Callable[["SearchFuture"], None]) -> None:
        """Run ``callback(self)`` on resolution (immediately if done)."""
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    # -- resolution --------------------------------------------------------
    def cancel(self, reason: str = "user") -> bool:
        """Request cooperative cancellation.

        Returns True when the request was registered before the search
        resolved (the future will resolve as cancelled), False when the
        result already landed (it stands).  A future whose driver has
        not started yet resolves as cancelled immediately — it is not
        waiting on any in-flight work.

        ``reason`` is the cancellation reason code recorded on the
        execution's control (see
        :data:`repro.engine.control.CANCEL_USER` /
        :data:`~repro.engine.control.CANCEL_SHED` /
        :data:`~repro.engine.control.CANCEL_SHUTDOWN`); read it back via
        :attr:`cancel_reason` to distinguish a user cancel from a
        load-shed or a shutdown sweep.
        """
        with self._lock:
            if self._done.is_set():
                return False
            self._cancel_requested = True
            started = self._started
        self._control.cancel(reason=reason)
        if not started:
            self._finish(
                exception=SearchCancelled(
                    "search cancelled before dispatch (reason={})".format(
                        self._control.cancel_reason or reason
                    )
                )
            )
        return True

    @property
    def cancel_reason(self) -> Optional[str]:
        """Reason code of the first cancel request (None when never cancelled)."""
        return self._control.cancel_reason

    def result(self, timeout: Optional[float] = None) -> ResultSet:
        """Block for the ResultSet; raise what the execution raised.

        Raises :class:`TimeoutError` if ``timeout`` seconds elapse first
        (the search keeps running; call again to keep waiting).
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                "search did not complete within {!r}s".format(timeout)
            )
        if self._exception is not None:
            raise self._exception
        # _finish only resolves without an exception when a ResultSet
        # landed, so the None in the Optional is unreachable here.
        return cast(ResultSet, self._result)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """Block like :meth:`result` but return the exception, if any."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                "search did not complete within {!r}s".format(timeout)
            )
        return self._exception

    def __repr__(self) -> str:
        if not self._done.is_set():
            state = "running" if self.running() else "pending"
        elif self.cancelled():
            state = "cancelled"
        elif self._exception is not None:
            state = "error={!r}".format(self._exception)
        else:
            state = "done n={}".format(len(cast(ResultSet, self._result)))
        completed, total = self.progress
        return "SearchFuture({}, progress={}/{})".format(state, completed, total)
