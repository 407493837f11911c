"""Advisory file locks for run directories.

A lock is a plain lockfile created with ``O_EXCL`` (atomic on POSIX
local filesystems): existence means held.  The holder may
:meth:`FileLock.refresh` the file's mtime as a heartbeat; acquirers
treat a lockfile whose mtime is older than ``stale_after_s`` as
abandoned by a crashed holder and take it over.  This is *advisory*
coordination between cooperating ``repro`` processes — it keeps two
sweeps from interleaving a run directory, but it is not a hard
mutual-exclusion primitive against arbitrary writers.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional, Union


class LockError(RuntimeError):
    """Base class for advisory-lock failures."""


class LockHeldError(LockError):
    """The lock is held by a live (non-stale) owner."""


class FileLock:
    """One advisory lockfile with stale-takeover semantics."""

    def __init__(
        self,
        path: Union[str, Path],
        owner: Optional[str] = None,
        stale_after_s: float = 60.0,
    ):
        self.path = Path(path)
        self.owner = owner or f"pid-{os.getpid()}"
        self.stale_after_s = stale_after_s
        self._held = False

    @property
    def held(self) -> bool:
        return self._held

    def holder(self) -> Optional[str]:
        """Owner string recorded in the lockfile, or None when free."""
        try:
            return json.loads(self.path.read_text()).get("owner")
        except (OSError, json.JSONDecodeError, AttributeError):
            return None

    def _is_stale(self) -> bool:
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:  # lockfile vanished: not held, not stale
            return False
        return age > self.stale_after_s

    def acquire(self) -> "FileLock":
        """Take the lock, or raise :class:`LockHeldError` if a live
        holder has it.

        A stale lockfile (no heartbeat for ``stale_after_s``) is removed
        and taken over immediately.
        """
        payload = json.dumps(
            {"owner": self.owner, "pid": os.getpid(), "acquired": time.time()}
        )
        while True:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                if not self._is_stale():
                    raise LockHeldError(
                        f"lock {self.path} held by "
                        f"{self.holder() or 'unknown owner'}"
                    ) from None
                # Crashed holder: remove and retry.  Two takeovers can
                # race here; O_EXCL picks exactly one winner.
                try:
                    self.path.unlink()
                except OSError:
                    pass
                continue
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            self._held = True
            return self

    def refresh(self) -> None:
        """Heartbeat: bump the lockfile mtime so the lock stays live."""
        if self._held:
            try:
                os.utime(self.path)
            except OSError:
                pass

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "FileLock":
        if not self._held:
            self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()
