"""The ``served_dashboard`` server process: ``python -m bench.serve``.

A :class:`ShapeServingApp` with the indexed, cached session options and
otherwise default quota and result cache, on an ephemeral port.  Prints
``PORT <n>`` once it accepts connections and serves until its stdin
closes — so it stops with the pass child that started it, including
when that child is killed.
"""

from __future__ import annotations

import asyncio
import sys
import threading

from repro.serving import ShapeSearchServer, ShapeServingApp

SESSION_OPTIONS = {"index": True, "cache": True}


async def serve() -> None:
    server = ShapeSearchServer(app=ShapeServingApp(session_options=SESSION_OPTIONS))
    try:
        _host, port = await server.start()
        print("PORT {}".format(port), flush=True)
        loop = asyncio.get_running_loop()
        stdin_closed = asyncio.Event()

        def watch_stdin() -> None:
            sys.stdin.read()
            loop.call_soon_threadsafe(stdin_closed.set)

        # A thread of its own: the app's default executor stays whole.
        threading.Thread(target=watch_stdin, daemon=True).start()
        await stdin_closed.wait()
    finally:
        await server.stop()


if __name__ == "__main__":
    asyncio.run(serve())
