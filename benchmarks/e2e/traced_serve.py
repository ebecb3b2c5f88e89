"""``hdpsr serve`` with span recorders around each layer's public functions.

Usage: ``python traced_serve.py SPANS.json serve <serve args...>``

Wraps the functions listed in :data:`HOOKS` — each patched *where it is
looked up* (``repro.hdss.store.crc32c`` is its own name, bound by a
``from`` import) — then calls the unmodified ``repro.cli.main`` and, when
it returns, writes every span to ``SPANS.json``. Nothing inside ``src/``
changes; spans are recorded from the benchmark's side of each boundary.

A span is ``[id, parent, name, start, end, cpu, bytes]``: ``start``/``end``
on ``time.monotonic()`` (the harness's clock too), ``cpu`` the thread's own
CPU seconds inside the call (``None`` for coroutines, whose thread runs
other tasks meanwhile), ``parent`` the span that was open in the calling
context (contextvars follow ``asyncio.to_thread``). :func:`summarize`
turns a dump into per-layer calls, bytes, busy and self time.

A hook whose target no longer exists is skipped and listed under
``missing`` in the dump, so a refactor breaks one layer's numbers, not
the benchmark.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_spans: List[tuple] = []
_ids = itertools.count(1)
_open: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=0)


def _size(obj) -> int:
    nbytes = getattr(obj, "nbytes", None)
    return int(nbytes) if nbytes is not None else len(obj)


def _arg(index: int) -> Callable:
    return lambda args, result: _size(args[index])


def _result(args, result) -> int:
    return _size(result) if result is not None else 0  # None: the call raised


def _batch(args, result) -> int:
    return len(args[1])  # put_many(self, items): chunks in the batch


#: (module, attribute path, span name, bytes-of-work function or None).
HOOKS = [
    # utils.checksum — patched under each importer's own name.
    ("repro.hdss.store", "crc32c", "checksum", _arg(0)),
    ("repro.journal.wal", "crc32c", "checksum", _arg(0)),
    # gf — the fused multiply-add kernel behind decode and encode.
    ("repro.ec.partial", "gf_mul_add_scalar", "gf", _arg(2)),
    ("repro.ec.encoder", "gf_mul_add_scalar", "gf", _arg(2)),
    # ec
    ("repro.ec.partial", "PartialDecoder.feed", "ec.decode", None),
    ("repro.ec.partial", "PartialDecoder.results", "ec.decode", None),
    ("repro.ec.encoder", "RSCode.encode", "ec.encode", None),
    # hdss.store — the file store itself, beneath the sharding delegate.
    ("repro.hdss.store", "FileChunkStore.get", "store.get", _result),
    ("repro.hdss.store", "FileChunkStore.put", "store.put", _arg(3)),
    ("repro.hdss.store", "FileChunkStore.verify_chunk", "store.verify", None),
    # service.sharding — one span per batch the shard writer hands down;
    # its "bytes" are the chunks in the batch.
    ("repro.hdss.store", "FileChunkStore.put_many", "writer.put_many", _batch),
    # journal
    ("repro.journal.journal", "RepairJournal.begin", "journal", None),
    ("repro.journal.journal", "RepairJournal.round_commit", "journal", None),
    ("repro.journal.journal", "RepairJournal.stripe_done", "journal", None),
    ("repro.journal.journal", "RepairJournal.complete", "journal", None),
    # device
    ("os", "fsync", "device.fsync", None),
    # service.protocol — looked up through the module at every call.
    ("repro.service.protocol", "encode_message", "protocol", None),
    ("repro.service.protocol", "decode_message", "protocol", None),
    ("repro.service.protocol", "pack_bytes", "protocol", _arg(0)),
    # service.netserver
    ("repro.service.netserver", "ServiceDaemon._dispatch", "netserver.dispatch", None),
    # core — the scheme `serve` runs by default.
    ("repro.core", "ActivePreliminaryRepair.build_plan", "core.plan", None),
    # service.service — the post-repair certification scrub.
    ("repro.hdss.server", "HighDensityStorageServer.scrub", "service.certify", None),
]


def _record(name: str, fn: Callable, nbytes: Optional[Callable]) -> Callable:
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            sid, parent = next(_ids), _open.get()
            token = _open.set(sid)
            start = time.monotonic()
            try:
                return await fn(*args, **kwargs)
            finally:
                _open.reset(token)
                _spans.append((sid, parent, name, start, time.monotonic(), None, 0))

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid, parent = next(_ids), _open.get()
        token = _open.set(sid)
        result = None
        start, cpu = time.monotonic(), time.thread_time()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            used, end = time.thread_time() - cpu, time.monotonic()
            _open.reset(token)
            work = nbytes(args, result) if nbytes else 0
            _spans.append((sid, parent, name, start, end, used, work))

    return traced


def install() -> List[str]:
    """Patch every hook; returns the ones whose target is gone."""
    missing = []
    for module_name, path, name, nbytes in HOOKS:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            # getattr resolves inherited methods (put_many lives on the
            # base class); the wrapper is set on the named class only.
            setattr(owner, attr, _record(name, getattr(owner, attr), nbytes))
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{path}")
    return missing


def summarize(
    spans: Iterable[list], windows: Iterable[Tuple[float, float]]
) -> Dict[str, Dict[str, float]]:
    """Per span name, over spans that began inside one of ``windows``:
    ``calls``, ``bytes``, ``busy_s`` (wall seconds inside the span,
    children included) and ``self_s`` (the thread's CPU seconds inside the
    span minus those of its child spans — additive across threads, and
    deaf to time spent waiting for the interpreter lock)."""
    windows = list(windows)
    spans = [s for s in spans if any(a <= s[3] <= b for a, b in windows)]
    child_cpu: Dict[int, float] = {}
    for sid, parent, _name, _s, _e, cpu, _b in spans:
        if cpu is not None and parent:
            child_cpu[parent] = child_cpu.get(parent, 0.0) + cpu
    out: Dict[str, Dict[str, float]] = {}
    for sid, _parent, name, s, e, cpu, nbytes in spans:
        row = out.setdefault(
            name, {"calls": 0, "bytes": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["bytes"] += nbytes
        row["busy_s"] += e - s
        if cpu is not None:
            row["self_s"] += max(0.0, cpu - child_cpu.get(sid, 0.0))
    return out


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, serve_args = argv[0], argv[1:]
    missing = install()
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_args)
    finally:
        tmp = out + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"pid": os.getpid(), "missing": missing, "spans": _spans}, fh)
        os.replace(tmp, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
