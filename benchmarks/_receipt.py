"""Shared, crash-safe writer for the ``BENCH_sweep.json`` receipt.

Every benchmark module appends its measurements to one JSON receipt so
CI can upload a single perf-trajectory artifact.  Before this module
each bench file carried its own read-modify-write copy, which had two
failure modes:

* a crash (or ``kill -9``) between ``open(..., "w")`` truncating the
  file and ``json.dump`` finishing left a torn, unparseable receipt;
* two bench processes sharing one receipt path could interleave their
  read-modify-write cycles and silently drop each other's sections.

:func:`update_receipt` fixes both: the merged document is written to a
sibling tempfile and atomically renamed over the target with
:func:`os.replace` (readers always see a complete JSON document), and
an ``fcntl`` advisory lock around the read-merge-replace cycle
serialises concurrent writers.  Unknown keys already present in the
receipt are preserved -- the merge only touches ``generated`` and the
section being reported.

Each section carries its own ``_meta`` stamp (measurement time, the
machine's ``cpu_count``, the git revision at measurement time, and
whether tracked files differed from that revision): the receipt
accumulates sections across separate CI jobs and machines, so a single
top-level stamp silently misattributed every earlier section's
provenance to whichever bench ran last.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import tempfile
from datetime import datetime, timezone

try:  # pragma: no cover - always present on the POSIX CI runners
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback: best effort
    fcntl = None


def receipt_path() -> str:
    """The receipt location (``BENCH_SWEEP_OUT`` overrides the default)."""
    return os.environ.get("BENCH_SWEEP_OUT", "BENCH_sweep.json")


@functools.lru_cache(maxsize=1)
def _git_revision() -> str | None:
    """The repository HEAD at measurement time (``None`` outside git).

    Memoized: every section a bench process reports shares one
    ``git rev-parse`` call, and the revision cannot change mid-process.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = proc.stdout.strip()
    return revision if proc.returncode == 0 and revision else None


def _git_dirty(receipt: str) -> bool | None:
    """Whether tracked files differ from ``HEAD`` (``None`` outside git).

    ``git_revision`` names ``HEAD``, so a section measured before its
    change is committed names the parent commit; this flag says so.
    The receipt itself is left out, because every section written to
    it makes it differ from ``HEAD``.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    # Porcelain paths are relative to the checkout root, which holds
    # this file's ``benchmarks/`` directory; a rename reads "old -> new".
    top = os.path.dirname(here)
    receipt = os.path.abspath(receipt)
    changed = [
        line[3:].split(" -> ")[-1]
        for line in proc.stdout.splitlines()
        if line.strip()
    ]
    return any(os.path.join(top, name) != receipt for name in changed)


def _load(path: str) -> dict:
    """Current receipt contents, or ``{}`` when absent or torn."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def update_receipt(section: str, payload: dict, path: str | None = None) -> None:
    """Atomically merge one benchmark's measurements into the receipt.

    Reads the existing document (tolerating a missing or torn file),
    replaces only ``data[section]`` plus the top-level ``generated``
    stamp, and publishes the merge with a tempfile + :func:`os.replace`
    so a reader never observes a partial write.  Keys written by other
    bench modules -- including ones this code has never heard of --
    survive the merge untouched.

    The reported section gains a ``_meta`` sub-dict recording *its own*
    measurement time, ``cpu_count``, git revision and ``git_dirty``
    flag (see :func:`_git_dirty`); earlier
    sections' ``_meta`` stamps are untouched, so a receipt merged
    across CI jobs attributes every number to the machine and revision
    that actually produced it.  The legacy top-level ``cpu_count``
    stamp (which could only describe the last writer) is dropped.
    """
    path = receipt_path() if path is None else path
    directory = os.path.dirname(os.path.abspath(path))
    lock_path = path + ".lock"
    lock = open(lock_path, "a+", encoding="utf-8")
    try:
        if fcntl is not None:
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
        data = _load(path)
        data.pop("cpu_count", None)
        data["generated"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
        data[section] = dict(payload)
        data[section]["_meta"] = {
            "measured": data["generated"],
            "cpu_count": os.cpu_count(),
            "git_revision": _git_revision(),
            "git_dirty": _git_dirty(path),
        }
        fd, temp_path = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=2, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
    finally:
        lock.close()
