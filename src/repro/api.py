"""The ShapeSearch session: the front-end/back-end seam of Figure 3.

:class:`ShapeSearch` is what a user of this library holds: load a
dataset, point at the z/x/y attributes, and search with any of the three
specification mechanisms — natural language, the regex dialect, or a
sketch — exactly the interchangeable-input design of §2.  The serving
API is built around three objects::

    from repro import ShapeSearch

    session = ShapeSearch.from_csv("genes.csv")
    prepared = session.prepare(                 # parse + compile once
        "rising, then going down, and then rising again",
        z="gene", x="time", y="expression",
    )
    results = prepared.run(k=5)                 # blocking -> ResultSet
    print(results.stats.scored, results.plan)

    future = prepared.submit(k=5)               # non-blocking
    results = future.result(timeout=30)         # -> the same ResultSet

:class:`PreparedSearch` binds a parsed+compiled query to the session's
visual context, so repeated interactive calls skip parse and compile by
construction; :class:`~repro.results.SearchFuture` is the cancellable
handle of the submit paths; :class:`~repro.results.ResultSet` replaces
the bare ``List[Match]`` everywhere (it still *is* a sequence of
matches, so seed-era code keeps working).

Strings are parsed as regex first and fall back to natural language, so
``session.prepare("[p=up][p=down]", ...)`` and
``session.prepare("up then down", ...)`` both work.  The historical
one-shot ``search``/``search_many`` entry points remain as deprecated
shims over the prepared path.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algebra.nodes import Node
from repro.data.table import Table, canonical_group_key
from repro.data.visual_params import VisualParams
from repro.engine.chains import CompiledQuery
from repro.engine.executor import Match, ShapeSearchEngine  # noqa: F401  (Match re-exported)
from repro.errors import (
    DataError,
    ExecutionError,
    SearchCancelled,
    ShapeQuerySyntaxError,
    warn_deprecated,
)
from repro.nlp.tagger import EntityTagger
from repro.nlp.translator import translate
from repro.parser import parse as parse_regex
from repro.results import ResultSet, SearchFuture
from repro.sketch.canvas import Canvas
from repro.sketch.parser import parse_sketch

QueryLike = Union[str, Node, CompiledQuery]

#: Keyword names :meth:`ShapeSearch.from_arrays` routes to the session
#: (everything else is a column array).  Mirrors ``ShapeSearch.__init__``.
_SESSION_OPTIONS = (
    "engine", "tagger", "workers", "cache", "backend",
    "quantifier_threshold", "kernel", "index", "precision", "store",
)


def parse_query(query: QueryLike, tagger: Optional[EntityTagger] = None) -> Node:
    """Parse any supported query form into a ShapeQuery AST.

    Strings are tried as the regex dialect first; on a syntax error the
    natural-language pipeline takes over (the paper's interchangeable
    front-ends).
    """
    if isinstance(query, Node):
        return query
    if isinstance(query, CompiledQuery):
        return query.node
    if not isinstance(query, str):
        raise ShapeQuerySyntaxError("unsupported query type {!r}".format(type(query)))
    stripped = query.strip()
    if stripped.startswith(("[", "(", "!")):
        return parse_regex(stripped)
    try:
        return parse_regex(stripped)
    except ShapeQuerySyntaxError:
        return translate(stripped, tagger=tagger).query


class PreparedSearch:
    """A query parsed, compiled and bound to visual context — once.

    Created by :meth:`ShapeSearch.prepare`.  Parsing (NL/regex/sketch →
    AST) and compilation (normalize → validate → flatten, through the
    session's plan cache) happen at prepare time; every subsequent
    :meth:`run`/:meth:`submit` reuses the bound
    :class:`~repro.engine.chains.CompiledQuery` and
    :class:`~repro.data.visual_params.VisualParams`, sharing the
    session's trendline/plan caches by construction.  This is the
    serving-tier shape: prepare per query template, run per request.

    Prepared searches are immutable descriptions — cheap to hold, safe
    to run concurrently, and reusable across any number of calls.
    """

    __slots__ = ("table", "engine", "node", "compiled", "params")

    def __init__(self, table: Table, engine: ShapeSearchEngine, node: Node,
                 compiled: CompiledQuery, params: VisualParams):
        self.table = table
        self.engine = engine
        #: The parsed ShapeQuery AST (the correction-panel view's source).
        self.node = node
        #: The compiled plan every run reuses.
        self.compiled = compiled
        #: The bound visual context (z/x/y, filters, aggregate, bin width).
        self.params = params

    def run(self, k: int = 10, workers: Optional[int] = None) -> ResultSet:
        """Execute, blocking: the top-``k`` matches as a :class:`ResultSet`.

        ``workers`` overrides the engine's worker count for this call
        (results are identical for any worker count).
        """
        return self.engine.run(
            self.table, self.params, self.compiled, k=k, workers=workers
        )

    def submit(self, k: int = 10, workers: Optional[int] = None,
               progress=None) -> SearchFuture:
        """Execute without blocking: a cancellable :class:`SearchFuture`.

        Returns as soon as the execution is handed to the engine's
        dispatcher — before scoring starts, for any worker count.  ``progress``
        is called as ``progress(completed_shards, total_shards)`` as the
        Score stage advances; ``future.cancel()`` drops un-dispatched
        shards cooperatively and ``future.result()`` then raises
        :class:`~repro.errors.SearchCancelled`.
        """
        return self.engine.submit(
            self.table, self.params, self.compiled, k=k, workers=workers,
            progress=progress,
        )

    def explain(self) -> str:
        """The canonical regex form of the query — the correction panel."""
        from repro.algebra.printer import to_regex

        return to_regex(self.node)

    def explain_plan(self, k: int = 10, workers: Optional[int] = None) -> str:
        """The physical operator chain :meth:`run` would execute.

        Planning only — nothing is generated or scored — and the text is
        exactly what the resulting :attr:`ResultSet.plan` will carry
        after an actual run with the same arguments.
        """
        return self.engine.explain_plan(
            self.table, self.params, self.compiled, k=k, workers=workers
        )

    def __repr__(self) -> str:
        return "PreparedSearch({!r}, z={!r}, x={!r}, y={!r})".format(
            self.explain(), self.params.z, self.params.x, self.params.y
        )


def _same_key(a, b) -> bool:
    """Group-key equality across process boundaries (NaN-aware)."""
    if a is b:
        return True
    try:
        if a == b:
            return True
    except Exception:
        return False
    return (
        isinstance(a, float) and isinstance(b, float) and a != a and b != b
    )


class TailSearch(PreparedSearch):
    """A long-lived prepared search whose results follow the table's tail.

    Created by :meth:`ShapeSearch.tail`.  Where :class:`PreparedSearch`
    executes against a table snapshot, a TailSearch *stays subscribed*:
    :meth:`append_rows` appends to the bound table and refreshes the
    ranked results by re-scoring **only the groups the appended rows
    touched** — unaffected groups keep their cached
    :class:`~repro.engine.dynamic.QueryResult` from earlier refreshes.
    The refreshed :class:`~repro.results.ResultSet` is byte-identical
    (scores, placements, tie-breaks) to a cold ``prepared.run()`` over
    the final table, because affected groups are rebuilt by exactly the
    cold code path on exactly the same bytes and the incremental merge
    re-ranks under the cold plan's total order.

    With ``workers > 1``, each refresh publishes only the appended row
    range as a delta segment chained onto the
    previous publication (:meth:`repro.engine.shm.ShmSession.acquire_append`),
    so the per-refresh transport cost is proportional to the delta, not
    the table.  Workers extend resident state — the attached table, its
    z encoding, and (for ``algorithm="dp"``) the retained DP tables
    that make the suffix re-solve a work-skip.

    A refresh is atomic with respect to failure: a cancelled or failed
    refresh leaves every cached result, the revision counter, and the
    scored-row watermark untouched, so the next :meth:`refresh` simply
    re-consumes the same delta.
    """

    __slots__ = (
        "k", "_workers", "_progress", "_normalize_y", "_plan",
        "_use_pruning", "_merge", "_scored_rows", "_base_table", "_order",
        "_key_index", "_entries", "_trendlines", "_revision", "_results",
        "_lock",
    )

    def __init__(self, table: Table, engine: ShapeSearchEngine, node: Node,
                 compiled: CompiledQuery, params: VisualParams, k: int = 10,
                 workers: Optional[int] = None, progress=None):
        from repro.engine.collection import require_columns
        from repro.engine.pipeline import IncrementalMerge, query_constrains_y
        from repro.engine.pruning import is_prunable
        from repro.engine.pushdown import plan_pushdown

        super().__init__(table, engine, node, compiled, params)
        require_columns(table, params)
        self.k = k
        self._workers = workers
        self._progress = progress
        self._normalize_y = not query_constrains_y(compiled)
        self._plan = plan_pushdown(compiled) if engine.enable_pushdown else None
        # Mirror plan_pipeline's pruning predicate: the cold plan's
        # *selection* tie-break is (score, str(key)) under the pruning
        # driver and (score, position) everywhere else, and the
        # incremental merge must re-rank under the same total order.
        self._use_pruning = (
            engine.enable_pruning
            and engine.algorithm == "segment-tree"
            and is_prunable(compiled)
        )
        self._merge = IncrementalMerge(
            k, tie="key" if self._use_pruning else "position"
        )
        #: Rows already reflected in the cached per-group results.
        self._scored_rows = 0
        #: The table of the last *successful* refresh — the delta base
        #: the next shm publication chains onto.
        self._base_table: Optional[Table] = None
        #: Group key per group index, in the grouping's first-seen order
        #: (appends never reorder existing keys; new keys append).
        self._order: list = []
        self._key_index: dict = {}
        #: Canonical key -> latest QueryResult (None: degenerate group).
        self._entries: dict = {}
        #: Canonical key -> latest Trendline (for presenting matches).
        self._trendlines: dict = {}
        self._revision = -1
        self._results: Optional[ResultSet] = None
        self._lock = threading.RLock()
        self.refresh()

    # -- observation ---------------------------------------------------------
    @property
    def results(self) -> ResultSet:
        """The ResultSet of the last successful refresh."""
        with self._lock:
            return self._results

    @property
    def revision(self) -> int:
        """Applied-refresh counter (0 after construction)."""
        with self._lock:
            return self._revision

    @staticmethod
    def state_stats() -> dict:
        """Occupancy of the process-wide retained-DP-state cache.

        Returns ``{"entries", "bytes", "budget", "evictions"}`` for the
        tail-state cache shared by every TailSearch in this process; see
        :func:`repro.engine.pipeline.set_tail_state_budget` to bound it.
        """
        from repro.engine.pipeline import tail_state_stats

        return tail_state_stats()

    # -- the streaming surface -----------------------------------------------
    def append_rows(self, records: Sequence[dict]) -> ResultSet:
        """Append ``records`` to the bound table and refresh the results.

        The table append is incremental (digest extension, no rehash of
        resident columns) and the refresh re-scores only the groups whose
        filtered z values occur in the appended rows.  Returns the
        refreshed ResultSet; :attr:`ResultSet.revision` identifies which
        table state it reflects.
        """
        with self._lock:
            self.table = self.table.append_rows(records)
            return self._refresh_locked(None)

    def refresh(self, control=None) -> ResultSet:
        """Bring the results up to date with the bound table.

        No-op (returns the cached ResultSet) when no rows were appended
        since the last successful refresh.  ``control`` is an optional
        :class:`~repro.engine.control.ExecutionControl`: a cooperative
        cancel drops un-dispatched re-score shards and the refresh
        raises :class:`~repro.errors.SearchCancelled` *without touching
        any cached state* — retrying re-consumes the same delta.
        """
        with self._lock:
            return self._refresh_locked(control)

    # -- internals -----------------------------------------------------------
    def _refresh_locked(self, control) -> ResultSet:
        from repro.engine.control import ExecutionControl

        table = self.table
        start = self._scored_rows
        if self._results is not None and len(table) == start:
            return self._results
        appended = len(table) - start if self._results is not None else 0
        indices = self._affected_indices(table, start)
        if control is None:
            control = ExecutionControl(progress=self._progress)
        scored = self._dispatch(table, indices, control)
        if control.cancelled:
            completed, total, dropped = control.snapshot()
            raise SearchCancelled(
                "tail refresh cancelled: {} of {} shard(s) completed, "
                "{} dropped".format(completed, total, dropped)
            )
        # Dispatch succeeded in full: apply the re-scored groups, then
        # advance the watermark.  (Nothing above mutates cached state.)
        for index, key, result, trendline in scored:
            expected = self._order[index] if index < len(self._order) else None
            if not _same_key(expected, key):
                raise ExecutionError(
                    "tail grouping drift: group #{} is {!r} in the session "
                    "but {!r} in the worker grouping".format(
                        index, expected, key
                    )
                )
            ckey = canonical_group_key(expected)
            self._entries[ckey] = result
            if trendline is None:
                self._trendlines.pop(ckey, None)
            else:
                self._trendlines[ckey] = trendline
        self._scored_rows = len(table)
        self._base_table = table
        self._revision += 1
        self._results = self._merge_results(control, appended, len(indices))
        return self._results

    def _affected_indices(self, table: Table, start: int) -> list:
        """Group indices whose rows the slice ``[start:]`` touched.

        New z values are registered in the session's group order as a
        side effect — first-seen over the *filtered* delta, which is
        exactly where they land in a cold grouping of the full table
        (their first surviving row is in the delta).  Registration is
        idempotent, so a failed refresh retried over the same delta
        resolves to the same indices.
        """
        from repro.engine.collection import grouping

        delta = Table.from_shared(
            {name: table.column(name)[start:] for name in table.column_names}
        )
        indices = []
        for key in grouping(delta, self.params)[2]:
            index = self._key_index.get(key)
            if index is None:
                index = len(self._order)
                self._order.append(key)
                self._key_index[key] = index
            indices.append(index)
        indices.sort()
        return indices

    def _dispatch(self, table: Table, indices: list, control) -> list:
        """Re-score ``indices`` and return (index, key, result, trendline)."""
        from repro.engine.parallel import dispatch_tail_scores
        from repro.engine.pipeline import (
            _required_columns,
            score_tail_groups,
            scoring_workers,
        )

        engine = self.engine
        if not indices:
            control.begin(0)
            return []
        workers, _reason = scoring_workers(engine, self.compiled, self._workers)
        if workers <= 1:
            control.begin(1)
            if control.cancelled:
                control.drop(1)
                return []
            scored = score_tail_groups(
                table, self.params, self._normalize_y, self._plan,
                self.compiled, indices, algorithm=engine.algorithm,
                kernel=engine.kernel,
            )
            control.shard_completed()
            return scored
        session = engine._shm_session()
        table_ref, query_ref, pinned = session.acquire_append(
            table, self._base_table, self.compiled,
            columns=_required_columns(table, self.params),
        )
        try:
            return dispatch_tail_scores(
                table_ref, self.params, self._normalize_y, self._plan,
                query_ref, indices, engine._resolve_pool(workers),
                algorithm=engine.algorithm, kernel=engine.kernel, control=control,
            )
        finally:
            session.unpin(*pinned)

    def _merge_results(self, control, appended: int, rescored: int) -> ResultSet:
        from repro.engine.executor import ExecutionStats, _to_matches

        entries = []
        for key in self._order:
            result = self._entries.get(canonical_group_key(key))
            if result is None:
                continue
            # Compacted position = this group's rank among surviving
            # trendlines in group order — the cold enumeration order the
            # (score, position) selection tie-break is defined over.
            entries.append((result.score, len(entries), key, result))
        top = self._merge.merge(entries, control)
        items = []
        for score, position, key, result in top:
            trendline = self._trendlines.get(canonical_group_key(key))
            if trendline is not None:
                items.append((score, position, trendline, result))
        stats = ExecutionStats(
            candidates=len(entries),
            extracted=len(entries),
            scored=rescored,
            shards=control.total or 0,
            generation="tail",
            appended_rows=appended,
        )
        plan_text = (
            "ScanDelta(rows={}, groups={})\n"
            "  -> RescoreAffected(algorithm={}, workers={})\n"
            "  -> IncrementalMerge(k={}, tie={})".format(
                appended, rescored, self.engine.algorithm,
                self.engine.workers if self._workers is None else self._workers,
                self.k, self._merge.tie,
            )
        )
        return ResultSet(
            _to_matches(items), stats=stats, plan=plan_text,
            revision=self._revision,
        )

    def __repr__(self) -> str:
        return "TailSearch({!r}, z={!r}, rows={}, revision={})".format(
            self.explain(), self.params.z, len(self.table), self._revision
        )


class ShapeSearch:
    """An interactive exploration session over one table.

    ``workers``/``cache`` configure the default engine: ``workers`` > 1
    shards candidate scoring across a process pool (see
    :mod:`repro.engine.parallel`) — the session publishes its candidate
    collections into shared memory once (:mod:`repro.engine.shm`) and
    workers keep them resident, so shards travel as index ranges — and
    ``cache=True`` keeps generated trendlines and compiled plans across
    searches so repeated interactive queries skip EXTRACT/GROUP entirely.
    ``quantifier_threshold`` overrides the occurrence floor of §5.2's
    quantifier scoring (default 0.3) and ``kernel`` picks the DP
    transition kernel (``"matrix"`` default, ``"loop"`` the
    byte-identical reference).  ``index=True`` turns on the persistent
    shape index — an IndexPrune stage discards candidate trendlines
    whose pyramid upper bound cannot reach the top-k floor before the DP
    ever runs them; results stay byte-identical to an unindexed search.
    ``backend`` is deprecated and ignored: ``workers`` alone picks the
    plan.  ``precision="float32"`` opts into
    approximate single-precision scoring (explicitly outside the
    byte-identity contract).  ``store=`` names an artifact-store
    directory (default: the ``REPRO_ARTIFACT_DIR`` environment
    variable): shape indexes persist there in a memory-mapped on-disk
    format, so a fresh process serves ``index=True`` queries without
    rebuilding — see the README's "Artifact store" section.  All are
    ignored when an explicit ``engine`` is passed.

    Sessions own OS resources once a parallel search ran (worker
    processes, dispatcher threads, shared-memory segments): call
    :meth:`close` or use the session as a context manager.  A forgotten
    session is still cleaned up at garbage collection / interpreter
    exit, but deterministic release beats relying on the safety net.
    """

    def __init__(self, table: Table, engine: Optional[ShapeSearchEngine] = None,
                 tagger: Optional[EntityTagger] = None,
                 workers: Optional[int] = 1, cache=None,
                 backend: Optional[str] = None,
                 quantifier_threshold: Optional[float] = None,
                 kernel: str = "matrix", index: bool = False,
                 precision: str = "float64", store: Optional[str] = None):
        # Deprecated and ignored: workers= alone picks the plan.  Kept only
        # because bench/workloads.py (scale_scan) and bench/layers.py
        # (parallel_metrics) pass backend="process"; it goes once they
        # stop.
        if backend is not None:
            if backend not in ("thread", "process"):
                raise ExecutionError(
                    "unknown backend {!r}; choose from ('thread', 'process')"
                    .format(backend)
                )
            warn_deprecated("ShapeSearch(backend=...)", "workers= alone")
        self.table = table
        self.engine = engine if engine is not None else ShapeSearchEngine(
            workers=workers, cache=cache,
            quantifier_threshold=quantifier_threshold, kernel=kernel,
            index=index, precision=precision, store=store,
        )
        self.tagger = tagger

    def close(self) -> None:
        """Release worker pools and shared-memory segments (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "ShapeSearch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- loading ------------------------------------------------------------
    @classmethod
    def from_csv(cls, path: str, **kwargs) -> "ShapeSearch":
        """Open a session over a CSV file."""
        return cls(Table.from_csv(path), **kwargs)

    @classmethod
    def from_json(cls, path: str, **kwargs) -> "ShapeSearch":
        """Open a session over a JSON file (list of records)."""
        return cls(Table.from_json(path), **kwargs)

    @classmethod
    def from_records(cls, records, lenient: bool = False, **kwargs) -> "ShapeSearch":
        """Open a session over in-memory records.

        Records whose keys do not match the schema of the first record
        raise :class:`~repro.errors.DataError`; pass ``lenient=True`` to
        restore the historical pad-with-None/NaN behavior.
        """
        return cls(Table.from_records(records, lenient=lenient), **kwargs)

    @classmethod
    def from_arrays(cls, columns=None, **kwargs) -> "ShapeSearch":
        """Open a session over keyword column arrays.

        Session/engine options (``engine``, ``tagger``, ``workers``,
        ``cache``, ``backend``, ``quantifier_threshold``, ``kernel``,
        ``index``, ``precision``, ``store``) are routed to the session;
        every *other* keyword is a column array — so
        ``ShapeSearch.from_arrays(z=..., x=..., y=..., workers=4,
        cache=True)`` builds a four-worker session, instead of
        swallowing the options as columns.  A column whose name collides
        with an option (a column literally called ``"workers"``) must be
        passed through the ``columns`` mapping, which is merged with the
        keyword arrays and always wins the column interpretation — an
        array-valued keyword that matches an option name is rejected
        loudly rather than silently misconfiguring the engine.
        """
        options = {}
        for name in _SESSION_OPTIONS:
            if name in kwargs:
                value = kwargs.pop(name)
                if isinstance(value, (np.ndarray, list, tuple)):
                    raise DataError(
                        "from_arrays keyword {!r} names a session option but "
                        "holds an array; pass column arrays that collide with "
                        "option names via the columns= mapping".format(name)
                    )
                options[name] = value
        arrays = dict(kwargs)
        if columns:
            arrays.update(columns)
        return cls(Table.from_arrays(**arrays), **options)

    # -- the prepared/submit API --------------------------------------------
    def prepare(
        self,
        query: QueryLike,
        z: str,
        x: str,
        y: str,
        filters: Sequence = (),
        aggregate: str = "mean",
        bin_width: Optional[float] = None,
    ) -> PreparedSearch:
        """Parse + compile ``query`` once and bind the visual context.

        The entry point of the serving API: the returned
        :class:`PreparedSearch` runs (or submits) any number of times
        without re-parsing or re-compiling, and shares this session's
        caches by construction.  Accepts every query form
        :func:`parse_query` does — NL, the regex dialect, a ShapeQuery
        AST, or an already compiled query.
        """
        node = parse_query(query, tagger=self.tagger)
        compiled = self.engine.compile(node)
        params = VisualParams(
            z=z, x=x, y=y, filters=tuple(filters), aggregate=aggregate,
            bin_width=bin_width,
        )
        return PreparedSearch(self.table, self.engine, node, compiled, params)

    def tail(
        self,
        query: QueryLike,
        z: str,
        x: str,
        y: str,
        k: int = 10,
        filters: Sequence = (),
        aggregate: str = "mean",
        bin_width: Optional[float] = None,
        workers: Optional[int] = None,
        progress=None,
    ) -> TailSearch:
        """Subscribe a query to the table's tail: a live top-k.

        Parses + compiles once (like :meth:`prepare`) and runs an
        initial full pass; thereafter ``tail.append_rows(records)``
        appends to the bound table and refreshes the ranked results by
        re-scoring only the groups the new rows touched — with results
        byte-identical to a cold run over the full table at every
        revision.  ``progress`` observes each refresh's re-score shards
        as ``progress(completed, total)``.
        """
        node = parse_query(query, tagger=self.tagger)
        compiled = self.engine.compile(node)
        params = VisualParams(
            z=z, x=x, y=y, filters=tuple(filters), aggregate=aggregate,
            bin_width=bin_width,
        )
        return TailSearch(
            self.table, self.engine, node, compiled, params, k=k,
            workers=workers, progress=progress,
        )

    def submit_many(
        self,
        queries: Sequence[QueryLike],
        z: str,
        x: str,
        y: str,
        k: int = 10,
        filters: Sequence = (),
        aggregate: str = "mean",
        bin_width: Optional[float] = None,
        workers: Optional[int] = None,
        progress=None,
    ) -> List[SearchFuture]:
        """Dispatch a batch without blocking: one future per query.

        The whole batch is parsed + compiled up front, then driven by a
        single dispatcher so generation work is amortized exactly as in
        the blocking batch path; futures resolve in submission order,
        and cancelling one affects only that query.  ``progress`` is
        called as ``progress(query_index, completed, total)``.
        """
        nodes = [parse_query(query, tagger=self.tagger) for query in queries]
        params = VisualParams(
            z=z, x=x, y=y, filters=tuple(filters), aggregate=aggregate,
            bin_width=bin_width,
        )
        compiled = [self.engine.compile(node) for node in nodes]
        return self.engine.submit_many(
            self.table, params, compiled, k=k, workers=workers, progress=progress
        )

    # -- front-ends ----------------------------------------------------------
    def search_sketch(
        self,
        pixels: Sequence[Tuple[float, float]],
        z: str,
        x: str,
        y: str,
        canvas: Optional[Canvas] = None,
        mode: str = "precise",
        k: int = 10,
        filters: Sequence = (),
        aggregate: str = "mean",
        bin_width: Optional[float] = None,
        workers: Optional[int] = None,
    ) -> ResultSet:
        """Search with a drawn polyline (precise or blurry interpretation).

        Routed through :meth:`prepare` like the other front-ends, so the
        sketch path has full parity with text queries: duplicate-x
        ``aggregate``, binning by ``bin_width`` and per-call ``workers``
        all apply.  Use :meth:`prepare` directly (with
        :func:`repro.sketch.parser.parse_sketch`) to reuse a sketch
        across calls or submit it asynchronously.
        """
        node = parse_sketch(pixels, canvas=canvas, mode=mode)
        prepared = self.prepare(
            node, z=z, x=x, y=y, filters=filters, aggregate=aggregate,
            bin_width=bin_width,
        )
        result = prepared.run(k=k, workers=workers)
        # Not deprecated, but the seed-era call updated last_stats;
        # keep that visible side effect for code that inspected it.
        self.engine.last_stats = result.stats
        return result

    # -- deprecated one-shot shims -------------------------------------------
    def search(
        self,
        query: QueryLike,
        z: str,
        x: str,
        y: str,
        k: int = 10,
        filters: Sequence = (),
        aggregate: str = "mean",
        bin_width: Optional[float] = None,
        workers: Optional[int] = None,
    ) -> ResultSet:
        """Deprecated: use ``prepare(...).run(...)``.

        One-shot top-k search, kept as a thin shim over the prepared
        path: identical matches in identical order, now as a
        list-compatible :class:`ResultSet`.
        """
        warn_deprecated(
            "ShapeSearch.search()", "ShapeSearch.prepare(...).run(...)"
        )
        prepared = self.prepare(
            query, z=z, x=x, y=y, filters=filters, aggregate=aggregate,
            bin_width=bin_width,
        )
        result = prepared.run(k=k, workers=workers)
        self.engine.last_stats = result.stats
        return result

    def search_many(
        self,
        queries: Sequence[QueryLike],
        z: str,
        x: str,
        y: str,
        k: int = 10,
        filters: Sequence = (),
        aggregate: str = "mean",
        bin_width: Optional[float] = None,
        workers: Optional[int] = None,
    ) -> List[ResultSet]:
        """Deprecated: use :meth:`submit_many` (or prepared runs).

        Batch search, kept as a blocking shim: one ResultSet per query,
        in order, with compilation and EXTRACT/GROUP amortized across
        the batch exactly as before.
        """
        warn_deprecated(
            "ShapeSearch.search_many()",
            "ShapeSearch.submit_many(...) (gather with future.result())",
        )
        nodes = [parse_query(query, tagger=self.tagger) for query in queries]
        params = VisualParams(
            z=z, x=x, y=y, filters=tuple(filters), aggregate=aggregate,
            bin_width=bin_width,
        )
        results = self.engine.run_many(
            self.table, params, nodes, k=k, workers=workers
        )
        if results:
            self.engine.last_stats = results[-1].stats
        return results

    # -- identity -------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The bound table's content fingerprint (the registry address)."""
        from repro.engine.cache import table_fingerprint

        return table_fingerprint(self.table)

    # -- inspection -----------------------------------------------------------
    def explain(self, query: QueryLike) -> str:
        """The canonical regex form of a query — the correction panel view."""
        from repro.algebra.printer import to_regex

        return to_regex(parse_query(query, tagger=self.tagger))

    def explain_plan(
        self,
        query: QueryLike,
        z: str,
        x: str,
        y: str,
        k: int = 10,
        filters: Sequence = (),
        aggregate: str = "mean",
        bin_width: Optional[float] = None,
        workers: Optional[int] = None,
    ) -> str:
        """The physical operator chain a :meth:`PreparedSearch.run` would run.

        Renders the staged pipeline (``ScanTable → Extract/Group → Score
        → MergeTopK``) with the implementation the planner picked per
        stage — IndexPrune, in-caller vs shared-memory scoring.
        Planning only: nothing is generated or scored.
        """
        prepared = self.prepare(
            query, z=z, x=x, y=y, filters=filters, aggregate=aggregate,
            bin_width=bin_width,
        )
        return prepared.explain_plan(k=k, workers=workers)


class SessionRegistry:
    """A bounded, fingerprint-addressed pool of open sessions.

    The serving layer's table tier: clients ``POST /v1/tables`` a table
    *once*, the registry opens a :class:`ShapeSearch` session over it,
    and every later request addresses the session by the table's content
    fingerprint — requests never re-ship data the server already holds.
    Publishing the same content twice (any client, any process restart
    of the *client*) resolves to the same fingerprint and reuses the
    resident session, caches and all.

    The pool is LRU-bounded at ``capacity`` sessions because each one
    may own real OS resources (worker processes, shared-memory segments,
    mapped artifacts).  An evicted session is :meth:`ShapeSearch.close`\\ d
    and each registered eviction hook is called as ``hook(fingerprint,
    session)`` *after* the close — the serving layer hooks artifact-store
    GC (:func:`repro.engine.artifacts.prune`) here, so disk follows the
    same budget discipline as memory.  Hook errors are swallowed:
    eviction is a background concern and must not fail the publish that
    triggered it.

    Requests that *use* a session hold a lease: :meth:`checkout`
    increments the session's refcount (and promotes it), :meth:`release`
    decrements it.  Evicting a leased session — a concurrent
    :meth:`publish` pushing it out, or :meth:`close` — defers the
    :meth:`ShapeSearch.close` until the last lease is released, so an
    in-flight search never has its worker pools or shared-memory
    segments torn down underneath it.  :meth:`get` is the lease-free
    lookup for direct library use where the caller owns the lifecycle.

    ``session_options`` are the keyword arguments every opened session
    is constructed with (``workers=``, ``cache=``, ``index=``,
    ``store=`` ...), fixed at registry construction so all tenants get
    the same engine configuration.
    """

    def __init__(self, capacity: int = 8, **session_options) -> None:
        if capacity < 1:
            raise ValueError(
                "registry capacity must be >= 1, got {}".format(capacity)
            )
        self.capacity = capacity
        self.session_options = dict(session_options)
        from collections import OrderedDict

        self._sessions: "OrderedDict[str, ShapeSearch]" = OrderedDict()
        self._lock = threading.Lock()
        self._evict_hooks: list = []
        self._closed = False
        #: Live leases per session (id(session) -> count); a session is
        #: only closed when its count is zero.
        self._refs: Dict[int, int] = {}
        #: Sessions evicted while leased, awaiting their last release.
        self._draining: List[Tuple[str, ShapeSearch]] = []

    # -- eviction -------------------------------------------------------------
    def add_evict_hook(self, hook) -> None:
        """Call ``hook(fingerprint, session)`` after each eviction/close."""
        if hook not in self._evict_hooks:
            self._evict_hooks.append(hook)

    def _run_evictions(self, evicted) -> None:
        for fingerprint, session in evicted:
            try:
                session.close()
            except Exception:
                pass
            for hook in self._evict_hooks:
                try:
                    hook(fingerprint, session)
                except Exception:
                    pass

    def _evict_or_drain(self, fingerprint: str, session: ShapeSearch, evicted) -> None:
        """Route one evicted session: close now, or park until released.

        Caller holds ``self._lock``.  A leased session moves to the
        drain list (closed by the final :meth:`release`); an idle one is
        appended to ``evicted`` for the caller to close outside the
        lock.
        """
        if self._refs.get(id(session), 0) > 0:
            self._draining.append((fingerprint, session))
        else:
            evicted.append((fingerprint, session))

    # -- the registry surface -------------------------------------------------
    def publish(self, table: Table) -> str:
        """Register ``table`` (idempotent); returns its fingerprint address.

        Re-publishing resident content is a cheap promote-to-front; new
        content opens a session with the registry's ``session_options``
        and may evict the least-recently-used session to stay within
        ``capacity``.
        """
        from repro.engine.cache import table_fingerprint

        fingerprint = table_fingerprint(table)
        evicted = []
        with self._lock:
            if self._closed:
                raise ExecutionError("session registry is closed")
            if fingerprint in self._sessions:
                self._sessions.move_to_end(fingerprint)
                return fingerprint
            self._sessions[fingerprint] = ShapeSearch(
                table, **self.session_options
            )
            while len(self._sessions) > self.capacity:
                self._evict_or_drain(*self._sessions.popitem(last=False), evicted)
        self._run_evictions(evicted)
        return fingerprint

    def get(self, fingerprint: str) -> ShapeSearch:
        """The session holding ``fingerprint``; :class:`DataError` if absent.

        A lookup promotes the session (it is in use), mirroring
        :class:`~repro.engine.cache.LRUCache` recency semantics.
        """
        with self._lock:
            session = self._sessions.get(fingerprint)
            if session is not None:
                self._sessions.move_to_end(fingerprint)
        if session is None:
            raise DataError(
                "unknown table fingerprint {!r}: publish the table first "
                "(POST /v1/tables)".format(fingerprint)
            )
        return session

    # -- leases ---------------------------------------------------------------
    def checkout(self, fingerprint: str) -> ShapeSearch:
        """Like :meth:`get`, but the session is leased until :meth:`release`.

        While at least one lease is live, a concurrent eviction (LRU
        pressure from :meth:`publish`, or :meth:`close`) defers the
        session close instead of tearing down worker pools and shared
        memory under an in-flight search.  Every successful checkout
        must be paired with exactly one :meth:`release`.
        """
        with self._lock:
            session = self._sessions.get(fingerprint)
            if session is not None:
                self._sessions.move_to_end(fingerprint)
                key = id(session)
                self._refs[key] = self._refs.get(key, 0) + 1
        if session is None:
            raise DataError(
                "unknown table fingerprint {!r}: publish the table first "
                "(POST /v1/tables)".format(fingerprint)
            )
        return session

    def release(self, session: Optional[ShapeSearch]) -> None:
        """Drop one lease; closes the session if it was evicted meanwhile.

        ``None`` is accepted (and ignored) so callers can release
        unconditionally in a ``finally``.
        """
        if session is None:
            return
        to_close: List[Tuple[str, ShapeSearch]] = []
        with self._lock:
            key = id(session)
            remaining = self._refs.get(key, 0) - 1
            if remaining > 0:
                self._refs[key] = remaining
            else:
                self._refs.pop(key, None)
                to_close = [
                    entry for entry in self._draining if entry[1] is session
                ]
                if to_close:
                    self._draining = [
                        entry for entry in self._draining if entry[1] is not session
                    ]
        self._run_evictions(to_close)

    def fingerprints(self) -> List[str]:
        """Resident fingerprints, least- to most-recently used."""
        with self._lock:
            return list(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._sessions

    def close(self) -> None:
        """Evict (and close) every session; further publishes raise.

        Leased sessions drain first: their close runs when the last
        :meth:`release` lands, not while a search may still be using
        them.
        """
        evicted: List[Tuple[str, ShapeSearch]] = []
        with self._lock:
            self._closed = True
            for fingerprint, session in list(self._sessions.items()):
                self._evict_or_drain(fingerprint, session, evicted)
            self._sessions.clear()
        self._run_evictions(evicted)

    def __enter__(self) -> "SessionRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
