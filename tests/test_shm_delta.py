"""Tests for delta-segment publishing (TableDeltaHandle, acquire_append).

The streaming transport: ``append_rows`` ships only the new row range as
a chained segment; workers reconstruct the extended table by
concatenating the delta onto their resident base.  Every fallback path
(widened dtype, evicted base, deep chain) must produce a plain full
export and never a wrong table.
"""

import numpy as np
import pytest

from repro.algebra import builder as q
from repro.data.table import Table
from repro.engine import shm
from repro.engine.cache import table_fingerprint
from repro.engine.chains import compile_query

QUERY = compile_query(q.concat(q.up(), q.down()))


def _table(rows=6, with_object=True):
    columns = {
        "z": np.array(["a", "b"] * (rows // 2), dtype=object),
        "x": np.arange(float(rows)),
        "n": np.arange(rows),
    }
    if not with_object:
        columns.pop("z")
    return Table.from_arrays(**columns)


def _simulate_worker(handle):
    """Resolve like a pool worker: bypass the publisher's object registry.

    Returns an *owning copy* of the resolved table: the worker-store
    entry (whose attachment keeps the shared mapping alive) is dropped
    on the way out so tests stay isolated, which would otherwise leave
    the zero-copy views dangling.
    """
    removed = {}
    for token in shm.delta_chain_tokens(handle):
        if token in shm._LOCAL:
            removed[token] = shm._LOCAL.pop(token)
    try:
        resolved = shm.resolve_table(handle)
        return Table.from_arrays(**{
            name: np.array(resolved.column(name), copy=True)
            for name in resolved.column_names
        })
    finally:
        shm._LOCAL.update(removed)
        for token in shm.delta_chain_tokens(handle):
            shm._WORKER_STORE.pop(token, None)


class TestDeltaChain:
    def test_acquire_append_publishes_delta(self):
        session = shm.ShmSession()
        try:
            base = _table(6)
            grown = base.append_rows(
                [{"z": "c", "x": 6.0, "n": 6}, {"z": "a", "x": 7.0, "n": 7}]
            )
            session.table_handle(base)
            handle, query_ref, tokens = session.acquire_append(grown, base, QUERY)
            try:
                assert isinstance(handle, shm.TableDeltaHandle)
                assert handle.base_rows == 6
                # base + delta + query all pinned
                assert len(tokens) == 3
                resolved = _simulate_worker(handle)
                assert len(resolved) == 8
                assert resolved.column("z").tolist() == [
                    "a", "b", "a", "b", "a", "b", "c", "a"
                ]
                assert resolved.column("x").tolist() == grown.column("x").tolist()
                assert table_fingerprint(resolved) == table_fingerprint(grown)
            finally:
                session.unpin(*tokens)
        finally:
            session.close()

    def test_chained_deltas_resolve(self):
        session = shm.ShmSession()
        try:
            table = _table(4)
            session.table_handle(table)
            handles = []
            for step in range(3):
                base = table
                table = table.append_rows(
                    [{"z": "s{}".format(step), "x": 10.0 + step, "n": 10 + step}]
                )
                handle, _, tokens = session.acquire_append(table, base, QUERY)
                handles.append((handle, tokens))
            final_handle = handles[-1][0]
            assert shm._delta_depth(final_handle) == 3
            resolved = _simulate_worker(final_handle)
            assert len(resolved) == 7
            assert resolved.column("z").tolist()[-3:] == ["s0", "s1", "s2"]
            for _, tokens in handles:
                session.unpin(*tokens)
        finally:
            session.close()

    def test_worker_attach_extends_the_resident_encoding(self, request):
        """Attaching a delta encodes its rows only, equal to a fresh walk."""
        from repro.data.table import ColumnEncoding

        session = shm.ShmSession()
        try:
            table = _table(6)
            root = session.table_handle(table)
            steps = []
            for rows in (
                [{"z": "c", "x": 6.0, "n": 6}, {"z": "a", "x": 7.0, "n": 7}],
                [{"z": ("t", 1), "x": 8.0, "n": 8}],
                [
                    {"z": float("nan"), "x": 9.0, "n": 9},
                    {"z": float("nan"), "x": 10.0, "n": 10},
                    {"z": "b", "x": 11.0, "n": 11},
                ],
            ):
                base, table = table, table.append_rows(rows)
                handle, _, tokens = session.acquire_append(table, base, QUERY)
                steps.append((handle, tokens, table))
            chain = shm.delta_chain_tokens(steps[-1][0])
            hidden = {token: shm._LOCAL.pop(token) for token in chain if token in shm._LOCAL}
            try:
                resident = shm.resolve_table(root)
                assert resident.encoding("z").keys == ["a", "b"]
                visited = request.getfixturevalue("encoded_rows")  # from here on
                for handle, _tokens, grown in steps:
                    assert isinstance(handle, shm.TableDeltaHandle)
                    attached = shm.resolve_table(handle).encoding("z")
                    fresh = ColumnEncoding.of(grown.column("z"))
                    assert attached.codes.tolist() == fresh.codes.tolist()
                    assert [repr(key) for key in attached.keys] == [
                        repr(key) for key in fresh.keys
                    ]
                # One walk per attach, over its delta rows only (the three
                # fresh walks above are the comparison's own).
                assert visited == [2, 8, 1, 9, 3, 12]
            finally:
                shm._LOCAL.update(hidden)
                for token in chain:
                    shm._WORKER_STORE.pop(token, None)
            for _handle, tokens, _grown in steps:
                session.unpin(*tokens)
        finally:
            session.close()

    def test_depth_cap_forces_full_publish(self):
        session = shm.ShmSession()
        try:
            table = _table(4)
            session.table_handle(table)
            handle = None
            for step in range(shm.ShmSession.MAX_DELTA_CHAIN + 2):
                base = table
                table = table.append_rows([{"z": "x", "x": 50.0 + step, "n": step}])
                handle, _, tokens = session.acquire_append(table, base, QUERY)
                session.unpin(*tokens)
            assert shm._delta_depth(handle) <= shm.ShmSession.MAX_DELTA_CHAIN
        finally:
            session.close()


class TestDeltaFallbacks:
    def test_dtype_widening_falls_back_to_full_export(self):
        session = shm.ShmSession()
        try:
            base = _table(6)
            session.table_handle(base)
            widened = base.append_rows([{"z": "w", "x": 6.0, "n": 6.5}])
            assert widened.column("n").dtype != base.column("n").dtype
            handle, _, tokens = session.acquire_append(widened, base, QUERY)
            try:
                assert not isinstance(handle, shm.TableDeltaHandle)
                resolved = _simulate_worker(handle)
                assert resolved.column("n").tolist() == widened.column("n").tolist()
            finally:
                session.unpin(*tokens)
        finally:
            session.close()

    def test_no_published_base_falls_back(self):
        session = shm.ShmSession()
        try:
            base = _table(6)  # never published
            grown = base.append_rows([{"z": "c", "x": 6.0, "n": 6}])
            handle, _, tokens = session.acquire_append(grown, base, QUERY)
            try:
                assert not isinstance(handle, shm.TableDeltaHandle)
            finally:
                session.unpin(*tokens)
        finally:
            session.close()

    def test_none_base_falls_back(self):
        session = shm.ShmSession()
        try:
            grown = _table(6)
            handle, _, tokens = session.acquire_append(grown, None, QUERY)
            try:
                assert not isinstance(handle, shm.TableDeltaHandle)
            finally:
                session.unpin(*tokens)
        finally:
            session.close()

    def test_evicted_base_falls_back(self):
        session = shm.ShmSession()
        try:
            base = _table(6)
            session.table_handle(base)
            # Churn the LRU until the base's segment is evicted.
            for index in range(shm.ShmSession.MAX_TABLES + 2):
                session.table_handle(
                    Table.from_arrays(x=np.arange(3.0) + 100 * index)
                )
            grown = base.append_rows([{"z": "c", "x": 6.0, "n": 6}])
            handle, _, tokens = session.acquire_append(grown, base, QUERY)
            try:
                assert not isinstance(handle, shm.TableDeltaHandle)
                assert len(_simulate_worker(handle)) == 7
            finally:
                session.unpin(*tokens)
        finally:
            session.close()

    def test_repeat_acquire_reuses_published_delta(self):
        session = shm.ShmSession()
        try:
            base = _table(6)
            session.table_handle(base)
            grown = base.append_rows([{"z": "c", "x": 6.0, "n": 6}])
            first, _, tokens_a = session.acquire_append(grown, base, QUERY)
            second, _, tokens_b = session.acquire_append(grown, base, QUERY)
            assert second is first  # memoized by token, chain intact
            session.unpin(*tokens_a)
            session.unpin(*tokens_b)
        finally:
            session.close()


class TestDeltaPins:
    def test_chain_tokens_newest_first(self):
        session = shm.ShmSession()
        try:
            base = _table(4)
            root = session.table_handle(base)
            grown = base.append_rows([{"z": "c", "x": 4.0, "n": 4}])
            handle, _, tokens = session.acquire_append(grown, base, QUERY)
            try:
                chain = shm.delta_chain_tokens(handle)
                assert chain[0] == handle.token
                assert chain[-1] == root.token
                assert shm.delta_chain_tokens(root) == [root.token]
            finally:
                session.unpin(*tokens)
        finally:
            session.close()

    def test_pinned_chain_survives_lru_churn(self):
        session = shm.ShmSession()
        try:
            base = _table(4)
            session.table_handle(base)
            grown = base.append_rows([{"z": "c", "x": 4.0, "n": 4}])
            handle, _, tokens = session.acquire_append(grown, base, QUERY)
            try:
                for index in range(shm.ShmSession.MAX_TABLES + 2):
                    session.table_handle(
                        Table.from_arrays(x=np.arange(3.0) + 1000 * index)
                    )
                # Pinned segments may leave the LRU but must stay
                # attachable until unpinned.
                resolved = _simulate_worker(handle)
                assert len(resolved) == 5
            finally:
                session.unpin(*tokens)
        finally:
            session.close()
