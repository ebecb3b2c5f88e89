"""Crash-consistent write-ahead repair journal.

``repro.journal`` makes a running repair resumable: the repair plan and,
per finished stripe, where its rebuilt chunks were written are appended to
segment files, so a repair killed at any instant resumes after its last
finished stripe instead of restarting. It is a progress log, not a second
copy of the data — only a volatile store's rebuilt payloads travel in it.

Layers:

* :mod:`repro.journal.wal` — framed, CRC32C-checked, append-only segment
  files with torn-tail tolerance;
* :mod:`repro.journal.journal` — the typed record schema
  (``begin`` / ``stripe_done`` / ``phase`` / ``resume`` / ``complete``;
  ``phase`` and v1's ``round_commit`` are written or tolerated, never
  replayed) and the :class:`RepairState` replayer.
"""

from repro.journal.journal import RepairJournal, RepairState, StripeDone
from repro.journal.wal import WALReader, WALRecord, WALWriter

__all__ = [
    "RepairJournal",
    "RepairState",
    "StripeDone",
    "WALReader",
    "WALRecord",
    "WALWriter",
]
