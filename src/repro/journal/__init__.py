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
  (``begin`` / ``stripe_done`` / ``resume`` / ``complete``; v1's
  ``round_commit`` is written but never replayed, and any other record type
  an older journal holds is skipped) and the
  :class:`~repro.journal.journal.RepairState` replayer.
"""
