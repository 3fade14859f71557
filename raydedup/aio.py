"""Asyncio facade over the sharded online LSH session.

The reference ships ``datasketch.aio.AsyncMinHashLSH`` (aio/lsh.py:20-355)
— the same index semantics as ``MinHashLSH`` behind ``async`` methods and
async context managers, so an event-loop application (a crawler, an API
server) can interleave inserts/queries with its own I/O. In this engine
concurrency already lives server-side (sharded actors, batched async
RPCs — ``raydedup/session.py``), so the aio surface is a thin client
adapter: every method dispatches the corresponding
:class:`~raydedup.session.MinHashLshSession` call through
``asyncio.to_thread``. ``ray.get`` releases the GIL while it waits on
shard RPCs, so concurrent tasks genuinely overlap — ``asyncio.gather``
over N inserts pipelines N independent shard round-trips exactly like
the reference's aio storage buffers do, without duplicating any of the
packed-RPC logic.

API parity (reference aio/lsh.py): ``async with`` lifecycle, ``insert``,
``query``, ``has_key``, ``remove``, ``is_empty``, ``get_counts``,
``insertion_session`` / ``delete_session`` (async buffered contexts that
flush in batches), plus batch variants the sync session exposes.
"""

from __future__ import annotations

import asyncio

import numpy as np


class AsyncMinHashLshSession:
    """``async``/``await`` view of a :class:`MinHashLshSession`.

    Construct from an existing session (or kwargs forwarded to one) and
    use as an async context manager::

        async with AsyncMinHashLshSession(threshold=0.8, num_perm=128) as lsh:
            await asyncio.gather(*(lsh.insert(k, s) for k, s in items))
            hits = await lsh.query(sig)

    ``__aexit__`` leaves the underlying actors running (like the
    reference, whose ``__aexit__`` only closes storage connections);
    call :meth:`shutdown` to kill the shards.
    """

    def __init__(self, session=None, **session_kwargs):
        if session is None:
            from raydedup.session import MinHashLshSession

            session = MinHashLshSession(**session_kwargs)
        self._s = session

    # ------------------------------------------------------- lifecycle
    async def __aenter__(self) -> "AsyncMinHashLshSession":
        return self

    async def __aexit__(self, exc_type, exc_val, exc_tb) -> None:
        await self.close()

    async def close(self) -> None:
        """Parity with reference ``close`` (flush + release client
        state). All our writes are synchronous at the RPC layer, so
        there is nothing buffered client-side to flush."""
        return None

    async def shutdown(self) -> None:
        await asyncio.to_thread(self._s.shutdown)

    # ---------------------------------------------------------- writes
    async def insert(self, key, sig, check_duplication: bool = True) -> None:
        await asyncio.to_thread(self._s.insert, key, sig, check_duplication)

    async def insert_batch(self, keys, sigs, check_duplication: bool = True) -> None:
        await asyncio.to_thread(self._s.insert_batch, keys, sigs, check_duplication)

    async def remove(self, key) -> None:
        await asyncio.to_thread(self._s.remove, key)

    async def remove_batch(self, keys) -> None:
        await asyncio.to_thread(self._s.remove_batch, keys)

    # ---------------------------------------------------------- queries
    async def query(self, sig) -> list:
        return await asyncio.to_thread(self._s.query, sig)

    async def query_batch(self, sigs) -> list[list]:
        return await asyncio.to_thread(self._s.query_batch, sigs)

    async def has_key(self, key) -> bool:
        return await asyncio.to_thread(self._s.__contains__, key)

    async def is_empty(self) -> bool:
        return await asyncio.to_thread(self._s.is_empty)

    async def count_keys(self) -> int:
        return await asyncio.to_thread(self._s.count_keys)

    async def get_counts(self) -> list[dict]:
        return await asyncio.to_thread(self._s.get_counts)

    # --------------------------------------------------------- sessions
    def insertion_session(self, batch_size: int = 10000) -> "AsyncLshInsertionSession":
        return AsyncLshInsertionSession(self, batch_size)

    def delete_session(self, batch_size: int = 10000) -> "AsyncLshDeleteSession":
        return AsyncLshDeleteSession(self, batch_size)


class AsyncLshInsertionSession:
    """Async buffered-insert context (reference
    ``AsyncMinHashLSHInsertionSession``, aio/lsh.py:357-376): inserts
    accumulate client-side and flush as one packed ``insert_batch`` RPC
    fan-out per ``batch_size`` keys, and on ``__aexit__``. Each flush
    uses the ``check_duplication`` flag of the latest ``insert``. As in
    the sync sessions, ``__aexit__`` on an exception drops the buffer
    unflushed."""

    def __init__(self, lsh: AsyncMinHashLshSession, batch_size: int):
        self.lsh = lsh
        self.batch_size = batch_size
        self._keys: list = []
        self._sigs: list[np.ndarray] = []
        self._check = True

    async def __aenter__(self) -> "AsyncLshInsertionSession":
        return self

    async def __aexit__(self, exc_type, exc_val, exc_tb) -> None:
        if exc_type is None:
            await self.close()

    async def insert(self, key, sig, check_duplication: bool = True) -> None:
        self._keys.append(key)
        self._sigs.append(np.asarray(sig))
        self._check = check_duplication
        if len(self._keys) >= self.batch_size:
            await self.close()

    async def close(self) -> None:
        if not self._keys:
            return
        keys, sigs = self._keys, np.stack(self._sigs)
        self._keys, self._sigs = [], []
        await self.lsh.insert_batch(keys, sigs, self._check)


class AsyncLshDeleteSession:
    """Async buffered-remove context (reference
    ``AsyncMinHashLSHDeleteSession``, aio/lsh.py:379-400)."""

    def __init__(self, lsh: AsyncMinHashLshSession, batch_size: int):
        self.lsh = lsh
        self.batch_size = batch_size
        self._keys: list = []

    async def __aenter__(self) -> "AsyncLshDeleteSession":
        return self

    async def __aexit__(self, exc_type, exc_val, exc_tb) -> None:
        if exc_type is None:
            await self.close()

    async def remove(self, key) -> None:
        self._keys.append(key)
        if len(self._keys) >= self.batch_size:
            await self._flush()

    async def close(self) -> None:
        await self._flush()

    async def _flush(self) -> None:
        if not self._keys:
            return
        keys, self._keys = self._keys, []
        await self.lsh.remove_batch(keys)
