"""One worker thread beside the calling thread: the package's one thread protocol."""

from __future__ import annotations

import os
import queue
import threading
from collections.abc import Callable

__all__ = ["Worker"]


def _cpus() -> int:
    """The CPUs this process may run on: its affinity, where the platform reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Worker:
    """One thread of its own, or none, that :meth:`split` hands calls to.

    The thread is started only when ``threaded`` and the process may run on
    a second CPU: on one CPU it could only trade the GIL with the caller.

    As a context manager, the thread starts on entry and has ended when the
    ``with`` block does, however it ends. Without a thread, a split makes the
    same calls in the caller, and any thread may split through the worker.
    """

    def __init__(self, threaded: bool = True) -> None:
        threaded = threaded and _cpus() > 1
        self._thread = threading.Thread(target=self._serve, daemon=True) if threaded else None
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        self._results: queue.SimpleQueue = queue.SimpleQueue()

    def __enter__(self) -> Worker:
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread is not None:
            self._calls.put(None)
            self._thread.join()

    def _serve(self) -> None:
        while (call := self._calls.get()) is not None:
            try:
                self._results.put((call(), None))
            except BaseException as exc:  # raised again in the calling thread
                self._results.put((None, exc))

    def split(self, here: Callable[[], object], there: Callable[[], object] | None = None):
        """``(here(), there())``, ``there`` run on the thread (or after ``here``) while ``here`` runs.

        A ``there`` of ``None`` gives ``None``. Both have ended before this
        returns or raises, and ``here``'s exception is raised over ``there``'s.
        """
        if there is None or self._thread is None:
            return here(), None if there is None else there()
        self._calls.put(there)
        try:
            mine = here()
        finally:
            theirs, exc = self._results.get()
        if exc is not None:
            raise exc
        return mine, theirs
