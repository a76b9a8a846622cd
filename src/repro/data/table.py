"""A small in-memory columnar table (the paper's OLAP substrate, §5.1).

ShapeSearch's execution engine "considers a traditional OLAP data
exploration setting with dataset D, stored in either a database, or as a
raw file in CSV or JSON".  This module is that substrate: a columnar
table with CSV/JSON loading (type-inferred), filtering, group-by and
sorting — everything EXTRACT needs, with numpy arrays underneath.
"""

from __future__ import annotations

import csv
import hashlib
import json
from array import array
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import DataError

#: The canonical NaN group key: every NaN encountered by
#: :meth:`Table.group_by` under the ``"coalesce"`` policy maps to this
#: one float object.  Dict and set lookups short-circuit on identity
#: before trying ``==``, so a single shared NaN object buckets correctly
#: even though ``NaN != NaN`` (and even on Python >= 3.10, where
#: ``hash(nan)`` is id-based and two NaN objects land in different
#: buckets).
_NAN_KEY = float("nan")

#: Supported NaN-key policies for :meth:`Table.group_by`.
NAN_POLICIES = ("coalesce", "drop")


def attached_state(obj: Any, name: str, factory: Callable[[], Any]) -> Any:
    """Lazily attach per-instance engine state to a (immutable) carrier.

    Tables are immutable, which makes them the natural home for caches
    derived purely from their content — the generation memo, the shape
    index — without any external registry to invalidate.  Returns the
    existing attachment or installs ``factory()``; carriers that reject
    new attributes (``__slots__``-style) just get a fresh, uncached
    value.  Attachments never pickle (``Table.__getstate__`` whitelists)
    and a concurrent double-create is benign: one value wins, the other
    was only ever a cache.
    """
    state = getattr(obj, name, None)
    if state is None:
        state = factory()
        try:
            setattr(obj, name, state)
        except AttributeError:
            pass
    return state


def canonical_group_key(value: Any) -> Any:
    """Map a raw column value to the key :meth:`Table.group_by` buckets by.

    Exists so every consumer that reasons about group identity — the
    group-count planner pass, the streaming tail's affected-key scan —
    applies the exact same NaN canonicalization as ``group_by`` itself
    and cannot drift from it.
    """
    if isinstance(value, float) and value != value:
        return _NAN_KEY
    return value


def _encode_values(values: np.ndarray, slots: Dict[Hashable, int]) -> np.ndarray:
    """The one per-row walk of a grouped column: values -> ``intp`` codes.

    ``slots`` maps each distinct key to its code and is extended in
    place, so its insertion order *is* the first-seen key order.  Keys
    meet under dict equality (``1``, ``1.0`` and ``True`` are one key,
    the first seen) and every NaN coalesces into :data:`_NAN_KEY` —
    exactly what the per-row ``group_by`` loop this replaces did.  The
    funnel runs once per table and once per appended delta, never per
    query.
    """
    codes = []
    for value in values.tolist():
        if isinstance(value, float) and value != value:
            value = _NAN_KEY
        codes.append(slots.setdefault(value, len(slots)))
    return np.array(codes, dtype=np.intp)


class ColumnEncoding:
    """Dictionary encoding of one column: first-seen ``keys`` + ``codes``.

    ``codes[row]`` indexes ``keys``; ``slots`` is the key -> code map an
    append extends.  Instances are immutable once built (``codes`` is
    read-only and :meth:`extended` grows a copy of ``slots``), so a
    table and every table appended from it each hold their own encoding
    without seeing the other's keys.
    """

    __slots__ = ("keys", "codes", "slots")

    def __init__(self, slots: Dict[Hashable, int], codes: np.ndarray) -> None:
        codes.setflags(write=False)
        self.slots = slots
        self.keys: List[Hashable] = list(slots)
        self.codes = codes

    @classmethod
    def of(cls, values: np.ndarray) -> "ColumnEncoding":
        slots: Dict[Hashable, int] = {}
        return cls(slots, _encode_values(values, slots))

    def extended(self, tail: np.ndarray) -> "ColumnEncoding":
        """The encoding of this column plus ``tail``, visiting only ``tail``."""
        slots = dict(self.slots)
        codes = np.concatenate([self.codes, _encode_values(tail, slots)])
        return ColumnEncoding(slots, codes)


class Table:
    """Immutable columnar table: column name -> numpy array.

    Columns are exposed as read-only views, so the immutability is
    enforced, not just promised — the result cache fingerprints a table
    once and relies on its contents never changing in place.
    """

    #: Lazily memoized content caches: set by :func:`column_digests` /
    #: :func:`content_fingerprint` (or pre-seeded by ``from_shared`` and
    #: ``append_rows``), absent until then — always read via ``getattr``.
    _column_digests: Dict[str, "hashlib._Hash"]
    _fingerprint: str
    #: Shape-index lineage: ``append_rows`` points the appended table at
    #: the base table's index attachment so extension reuses it — absent
    #: on tables that were never appended from.
    _shape_index_base: Dict[Any, Any]
    #: Per-column dictionary encodings (:meth:`encoding`), built lazily
    #: for the columns a query groups by and extended by ``append_rows``.
    _encodings: Dict[str, ColumnEncoding]

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        if not columns:
            raise DataError("a table needs at least one column")
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) != 1:
            raise DataError("column lengths differ: {}".format(lengths))
        self._columns: Dict[str, np.ndarray] = {}
        for name, values in columns.items():
            # Private read-only storage: any input whose buffer a caller
            # could still write through — a writable ndarray, a view, or
            # an array wrapping an external buffer (memoryview, __array__
            # providers) — is copied, so mutating the source can never
            # reach the table and cached fingerprints can never go
            # stale.  Fresh allocations (asarray of a plain sequence)
            # and already-immutable arrays (columns of another Table)
            # are shared without copying.
            arr = values if isinstance(values, np.ndarray) else np.asarray(values)
            if (
                arr.base is not None
                or not arr.flags.owndata
                or (isinstance(values, np.ndarray) and arr.flags.writeable)
            ):
                arr = arr.copy()
            arr.setflags(write=False)
            self._columns[name] = arr
        self._length = next(iter(lengths.values()))

    # -- construction -----------------------------------------------------
    @classmethod
    def from_arrays(cls, **columns: Any) -> "Table":
        """Build from keyword columns of equal length."""
        return cls({name: np.asarray(values) for name, values in columns.items()})

    @classmethod
    def from_records(cls, records: Sequence[dict], lenient: bool = False) -> "Table":
        """Build from a list of homogeneous dicts.

        Every record must carry exactly the first record's keys: a
        missing key would silently become None/NaN in the built column
        and an extra key would be silently dropped — the same schema
        drift :meth:`append_rows` rejects, now rejected on first build
        too, with a :class:`DataError` naming the offending record.
        Pass ``lenient=True`` to restore the historical leniency
        (missing keys are filled with None/NaN, unknown keys ignored).
        """
        if not records:
            raise DataError("no records given")
        names = list(records[0].keys())
        if not lenient:
            schema = set(names)
            for index, record in enumerate(records):
                if set(record) != schema:
                    missing = sorted(schema - set(record))
                    unknown = sorted(set(record) - schema)
                    raise DataError(
                        "record {} does not match the first record's columns {}: "
                        "missing {}, unknown {} (pass lenient=True to fill missing "
                        "keys with None/NaN and drop unknown ones)".format(
                            index, sorted(schema), missing, unknown
                        )
                    )
        columns = {
            name: _infer_array([record.get(name) for record in records]) for name in names
        }
        return cls(columns)

    @classmethod
    def from_csv(cls, path: str, delimiter: str = ",") -> "Table":
        """Load a CSV file with a header row, building typed columns as it reads.

        A column is float64 iff every value passes ``float()``; otherwise
        it is an object column of the raw strings, holding one shared
        ``str`` per distinct value.  Rows are converted in chunks of
        :data:`CSV_CHUNK_ROWS`, so a load peaks near twice the finished
        columns instead of holding every row as strings first.  A column
        whose first non-float value comes after rows were converted is
        re-read from the file on its own.

        Blank lines are skipped.  Raises :class:`DataError` when the file
        is empty or has no data rows, when the header names a column
        twice (after ``strip()``), and when a row's field count differs
        from the header's (rows are numbered from the header, row 1).
        """
        builders: Dict[str, _CsvColumn] = {}
        with open(path, newline="") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError("CSV file {!r} is empty".format(path)) from None
            for name in header:
                name = name.strip()
                if name in builders:
                    raise DataError(
                        "CSV file {!r} names column {!r} twice".format(path, name)
                    )
                builders[name] = _CsvColumn()
            shared: Dict[str, str] = {}
            rows = 0
            for chunk in _csv_chunks(path, reader, len(header)):
                for builder, values in zip(builders.values(), zip(*chunk)):
                    builder.add(values, shared)
                rows += len(chunk)
        if not rows:
            raise DataError("CSV file {!r} has no data rows".format(path))
        pending = [
            (index, builder)
            for index, builder in enumerate(builders.values())
            if builder.strings is None and builder.floats is None
        ]
        if pending:
            for _, builder in pending:
                builder.strings = []
            with open(path, newline="") as handle:
                reader = csv.reader(handle, delimiter=delimiter)
                next(reader)
                for chunk in _csv_chunks(path, reader, len(header)):
                    columns = list(zip(*chunk))
                    for index, builder in pending:
                        builder.add(columns[index], shared)
        del shared  # freed before finish() copies the object columns out
        # The buffers are private to this load: adopt them without a copy.
        return cls.from_shared(
            {name: builder.finish() for name, builder in builders.items()}
        )

    @classmethod
    def from_shared(
        cls, columns: Dict[str, np.ndarray], fingerprint: Optional[str] = None
    ) -> "Table":
        """Adopt already-immutable arrays without copying.

        This is the shared-memory reattachment path
        (:mod:`repro.engine.shm`) and the end of :meth:`from_csv`, whose
        column buffers nothing else references: the caller guarantees the
        arrays are read-only views over a buffer nobody mutates, so the
        constructor's defensive copy is skipped and the columns stay
        zero-copy.
        ``fingerprint`` pre-seeds the content digest the result cache keys
        on, so a reattached table hits the same cache entries as the
        publisher's original without rehashing (or re-encoding object
        columns, whose dtype the shared export may have narrowed).
        """
        if not columns:
            raise DataError("a table needs at least one column")
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) != 1:
            raise DataError("column lengths differ: {}".format(lengths))
        self = cls.__new__(cls)
        self._columns = {}  # type: Dict[str, np.ndarray]
        for name, values in columns.items():
            values = np.asarray(values)
            if values.flags.writeable:
                values = values.view()
                values.setflags(write=False)
            self._columns[name] = values
        self._length = next(iter(lengths.values()))
        if fingerprint is not None:
            self._fingerprint = fingerprint
        return self

    @classmethod
    def from_json(cls, path: str) -> "Table":
        """Load a JSON file holding a list of records."""
        with open(path) as handle:
            records = json.load(handle)
        if not isinstance(records, list):
            raise DataError("JSON file {!r} must hold a list of records".format(path))
        return cls.from_records(records)

    # -- access -------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    @property
    def column_names(self) -> List[str]:
        return list(self._columns.keys())

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise DataError(
                "unknown column {!r}; available: {}".format(name, self.column_names)
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    # -- pickling ---------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Drop unpicklable caches (hashlib digests, generation locks).

        Only the columns and the memoized fingerprint travel: the
        per-column digest state and any engine-side generation memo
        attached to this instance hold hashlib objects and thread locks,
        neither of which pickles.  They are both pure caches — the
        receiver recomputes lazily on first use.
        """
        state: Dict[str, Any] = {
            "columns": self._columns,
            "length": self._length,
        }
        fingerprint = getattr(self, "_fingerprint", None)
        if fingerprint is not None:
            state["fingerprint"] = fingerprint
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._columns = {}
        for name, values in state["columns"].items():
            # Unpickled arrays come back writable; re-lock them so the
            # immutability contract (and fingerprint validity) holds.
            values.setflags(write=False)
            self._columns[name] = values
        self._length = state["length"]
        if "fingerprint" in state:
            self._fingerprint = state["fingerprint"]

    # -- relational operations ------------------------------------------------
    def take(self, indices: np.ndarray) -> "Table":
        """Row subset (by integer indices or boolean mask)."""
        columns: Dict[str, np.ndarray] = {}
        for name, values in self._columns.items():
            selected = values[indices]
            if selected.base is None:
                # Advanced indexing made a fresh private copy; lock it
                # here so the constructor shares instead of re-copying.
                selected.setflags(write=False)
            columns[name] = selected
        return Table(columns)

    def where(self, mask: np.ndarray) -> "Table":
        """Row subset by boolean mask."""
        if len(mask) != self._length:
            raise DataError("mask length {} != table length {}".format(len(mask), self._length))
        return self.take(np.asarray(mask, dtype=bool))

    def sort_by(self, *names: str) -> "Table":
        """Stable multi-key sort (last key least significant, numpy lexsort order)."""
        keys = [self.column(name) for name in reversed(names)]
        order = np.lexsort([_sortable(key) for key in keys])
        return self.take(order)

    # -- growth ----------------------------------------------------------------
    def append_rows(self, records: Sequence[dict]) -> "Table":
        """A new table with ``records`` appended (this table is unchanged).

        The streaming/append entry point: the returned table's content
        fingerprint is *extended* from this table's per-column digest
        state plus the new rows — O(new rows), not O(table) — so append
        workloads pay incremental hashing instead of a full rehash per
        batch.  The extended digest is identical to what a from-scratch
        fingerprint of the concatenated data would produce, so caches
        keyed on fingerprints behave exactly as if the table had been
        rebuilt.  When an appended value cannot be represented in the
        column's existing dtype (e.g. a float appended to an integer
        column widens it), the new table simply falls back to the lazy
        full rehash on first fingerprint use.
        """
        if not records:
            return self
        for record in records:
            unknown = set(record) - set(self._columns)
            if unknown:
                raise DataError(
                    "appended record has unknown columns {}; table has {}".format(
                        sorted(unknown), self.column_names
                    )
                )
            missing = set(self._columns) - set(record)
            if missing:
                # Unlike from_records' first-build leniency, an append
                # knows the schema: a missing key would silently inject
                # None/NaN into an existing numeric series.
                raise DataError(
                    "appended record is missing columns {}; table has {}".format(
                        sorted(missing), self.column_names
                    )
                )
        columns: Dict[str, np.ndarray] = {}
        tails: Dict[str, np.ndarray] = {}
        incremental = True
        for name, values in self._columns.items():
            raw = [record.get(name) for record in records]
            if values.dtype == object:
                # Element-wise fill: np.array would split sequence-valued
                # cells (tuple/list group keys) into a 2-D array and make
                # the concatenate below fail.
                tail = np.fromiter(raw, dtype=object, count=len(raw))
            else:
                try:
                    inferred = np.asarray(raw)
                    if inferred.ndim != 1:
                        # Equal-length tuple keys read as rows of a 2-D
                        # array: they are values, and box the column.
                        raise ValueError("sequence-valued cells")
                    if inferred.dtype == values.dtype:
                        tail = inferred
                    else:
                        # Keep the column dtype only when the cast is
                        # value-preserving (ints into a float column);
                        # otherwise let concatenate widen and fall back
                        # to the lazy full rehash.
                        cast = inferred.astype(values.dtype)
                        if inferred.dtype != object and np.array_equal(cast, inferred):
                            tail = cast
                        else:
                            tail = inferred
                            incremental = False
                except (TypeError, ValueError, OverflowError):
                    # OverflowError: an int too large for the column's
                    # integer dtype must widen, not crash the append.
                    tail = _infer_array(raw)
                    incremental = False
            combined = np.concatenate([values, tail])
            if combined.dtype != values.dtype:
                incremental = False
                if combined.dtype == object:
                    # Concatenation boxed the numeric head as numpy
                    # scalars; a from-scratch build of the same data
                    # would hold plain Python values.  Rebuild
                    # element-wise so content (and therefore the content
                    # fingerprint) is identical either way.
                    combined = _infer_array(values.tolist() + list(raw))
            combined.setflags(write=False)
            columns[name] = combined
            tails[name] = tail
        appended = Table(columns)
        # Share (not copy) this table's shape-index attachment dict with
        # the appended table: an index built on either side of the append
        # becomes the extension base for the other, so streaming tails
        # keep their index across append_rows without retaining the whole
        # base table.  One level deep by construction — the dict holds
        # indexes, not further base links.  An engine with an artifact
        # store (``store=``) persists the delta-extended index under the
        # appended table's fingerprint, so the lineage survives process
        # restarts too (repro.engine.artifacts keeps entry witnesses on
        # disk for exactly this reuse).
        appended._shape_index_base = attached_state(self, "_shape_index_state", dict)
        appended.extend_encodings(self)
        if incremental:
            base = column_digests(self)
            digests: Dict[str, "hashlib._Hash"] = {}
            for name in self.column_names:
                digest = base[name].copy()
                _update_column_digest(digest, tails[name])
                digests[name] = digest
            appended._column_digests = digests
            appended._fingerprint = _combined_fingerprint(appended, digests)
        return appended

    def encoding(self, name: str) -> ColumnEncoding:
        """The column's dictionary encoding, built on first use and kept.

        Tables are immutable, so the encoding never goes stale;
        :meth:`append_rows` (and the worker-side delta attach) hand the
        appended table an encoding *extended* by the new rows only.
        """
        encodings: Dict[str, ColumnEncoding] = attached_state(self, "_encodings", dict)
        encoding = encodings.get(name)
        if encoding is None:
            encoding = encodings[name] = ColumnEncoding.of(self.column(name))
        return encoding

    def extend_encodings(self, base: "Table") -> None:
        """Adopt ``base``'s encodings, extended by this table's extra rows.

        The caller guarantees this table's first ``len(base)`` rows *are*
        ``base``'s.  A column whose dtype the append changed is skipped:
        its key objects may differ (``1`` widened to ``1.0``), so it is
        re-encoded lazily like any fresh column.  (A string column that
        only grew wider still holds the same ``str`` keys and extends.)
        """
        for name, encoding in getattr(base, "_encodings", {}).items():
            values = self._columns.get(name)
            if values is None:
                continue
            was = base.column(name).dtype
            if values.dtype == was or values.dtype.kind == was.kind == "U":
                attached_state(self, "_encodings", dict)[name] = encoding.extended(
                    values[len(base):]
                )

    def group_by(
        self, name: str, nan_policy: str = "coalesce"
    ) -> Iterator[Tuple[Hashable, np.ndarray]]:
        """Yield ``(key, row indices)`` per distinct value, in first-seen order.

        NaN values need an explicit policy because ``NaN != NaN``: used
        raw as dict keys, every NaN row would become its own singleton
        group.  ``nan_policy="coalesce"`` (the default) buckets all NaN
        keys into one group keyed by a single canonical NaN float;
        ``nan_policy="drop"`` skips NaN-keyed rows entirely.
        """
        if nan_policy not in NAN_POLICIES:
            raise DataError(
                "unknown nan_policy {!r}; expected one of {}".format(nan_policy, NAN_POLICIES)
            )
        encoding = self.encoding(name)
        # A stable sort on the codes lists each key's rows in row order.
        order = np.argsort(encoding.codes, kind="stable")
        counts = np.bincount(encoding.codes, minlength=len(encoding.keys))
        buckets = np.split(order, np.cumsum(counts)[:-1])
        dropped = encoding.slots.get(_NAN_KEY) if nan_policy == "drop" else None
        for code, (key, rows) in enumerate(zip(encoding.keys, buckets)):
            if code != dropped:
                yield key, rows


def _update_column_digest(digest: "hashlib._Hash", values: np.ndarray) -> None:
    """Feed one column's content into a running digest.

    Numeric columns hash their raw bytes; object columns hash per-value
    ``repr``.  Appending rows extends the same byte stream, which is what
    makes the incremental fingerprint of :meth:`Table.append_rows` equal
    to a from-scratch rehash of the concatenated column.
    """
    if values.dtype == object:
        for value in values.tolist():
            digest.update(repr(value).encode("utf-8"))
    else:
        digest.update(np.ascontiguousarray(values).tobytes())


def column_digests(table: Table) -> Dict[str, "hashlib._Hash"]:
    """Per-column running SHA-1 digests, memoized on the instance.

    The returned digest objects are the table's live state: callers that
    extend them (``append_rows``) must ``copy()`` first.  Tables expose
    read-only columns, so the memo cannot go stale.
    """
    cached = getattr(table, "_column_digests", None)
    if cached is not None:
        return cached
    digests: Dict[str, "hashlib._Hash"] = {}
    for name in table.column_names:
        digest = hashlib.sha1()
        _update_column_digest(digest, table.column(name))
        digests[name] = digest
    try:
        table._column_digests = digests
    except AttributeError:  # __slots__-style tables: just recompute
        pass
    return digests


def _combined_fingerprint(table: Table, digests: Dict[str, "hashlib._Hash"]) -> str:
    """Fold per-column digests into one table fingerprint.

    Column names, dtypes and content all contribute, in column order, so
    a renamed column, a changed value or reordered columns all miss the
    cache — the same sensitivity the monolithic digest had.
    """
    combined = hashlib.sha1()
    for name in table.column_names:
        combined.update(name.encode("utf-8"))
        combined.update(str(table.column(name).dtype).encode("utf-8"))
        combined.update(digests[name].digest())
    return combined.hexdigest()


def content_fingerprint(table: Table) -> str:
    """A content digest of a table, stable across processes.

    Computed once and memoized on the instance (columns are read-only,
    so in-place mutation raises rather than staleing the memo); built
    from the per-column digest state so :meth:`Table.append_rows` can
    extend it with only the new rows' bytes.
    :func:`repro.engine.cache.table_fingerprint` is the engine-facing
    alias.
    """
    cached = getattr(table, "_fingerprint", None)
    if cached is not None:
        return cached
    fingerprint = _combined_fingerprint(table, column_digests(table))
    try:
        table._fingerprint = fingerprint
    except AttributeError:  # __slots__-style tables: just recompute
        pass
    return fingerprint


#: Rows :meth:`Table.from_csv` converts per step: its working set is one
#: chunk of row lists, never the whole file.
CSV_CHUNK_ROWS = 512


class _CsvColumn:
    """One column of a CSV load: float64 until a value fails ``float()``.

    ``floats`` collects the numeric values and ``strings`` the raw ones
    of an object column, one shared instance per distinct value.  Both
    are ``None`` while a column whose first non-float value came after
    converted rows waits for its re-read.
    """

    __slots__ = ("floats", "strings")

    def __init__(self) -> None:
        self.floats: Optional[array[float]] = array("d")
        self.strings: Optional[List[str]] = None

    def add(self, values: Sequence[str], shared: Dict[str, str]) -> None:
        """Append one chunk of raw values (a pending column ignores it)."""
        if self.floats is not None:
            converted = len(self.floats)
            try:
                self.floats.extend(map(float, values))
                return
            except ValueError:
                self.floats = None
                if converted:
                    return  # those rows' strings are gone: wait for the re-read
                self.strings = []
        if self.strings is not None:
            self.strings.extend(map(shared.setdefault, values, values))

    def finish(self) -> np.ndarray:
        if self.floats is not None:
            column = np.frombuffer(self.floats, dtype=np.float64)
        else:
            strings, self.strings = self.strings or [], None  # one copy at a time
            column = np.fromiter(strings, dtype=object, count=len(strings))
        column.setflags(write=False)
        return column


def _csv_chunks(
    path: str, reader: Iterator[List[str]], width: int
) -> Iterator[List[List[str]]]:
    """``reader``'s data rows in lists of up to :data:`CSV_CHUNK_ROWS`.

    Rows of zero fields (blank lines) are dropped; any other row whose
    field count differs from the header's ``width`` raises
    :class:`DataError` naming its row number (the header is row 1).
    """
    row = 1
    while True:
        records = list(islice(reader, CSV_CHUNK_ROWS))
        if not records:
            return
        chunk = records
        if set(map(len, records)) != {width}:
            for number, record in enumerate(records, row + 1):
                if record and len(record) != width:
                    raise DataError(
                        "CSV file {!r} row {} has {} fields; the header has {}".format(
                            path, number, len(record), width
                        )
                    )
            chunk = [record for record in records if record]
        row += len(records)
        if chunk:
            yield chunk


def _infer_array(values: Iterable) -> np.ndarray:
    """Numeric array when every value parses as float, else object array."""
    items = list(values)
    try:
        result = np.array([float(value) for value in items], dtype=float)
    except (TypeError, ValueError):
        # Element by element: np.array() would read equal-length tuples
        # as rows of a 2-D array instead of as values.
        result = np.fromiter(items, dtype=object, count=len(items))
    # Freshly built and never exposed: lock it so Table shares it as-is.
    result.setflags(write=False)
    return result


def _sortable(values: np.ndarray) -> np.ndarray:
    """Lexsort-compatible key: object columns sort by string form."""
    if values.dtype == object:
        return np.array([str(value) for value in values])
    return values
