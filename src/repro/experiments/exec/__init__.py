"""Advisory locks for run directories.

:mod:`~repro.experiments.exec.locks` holds the lockfile behind
:meth:`~repro.experiments.store.ResultStore.writer_lock`: the scheduler
that holds a run directory's ``store.lock`` is its only writer.
"""

from repro.experiments.exec.locks import FileLock, LockError, LockHeldError

__all__ = ["FileLock", "LockError", "LockHeldError"]
