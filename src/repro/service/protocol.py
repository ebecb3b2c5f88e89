"""Wire protocol between ``hdpsr serve`` and ``hdpsr client``.

Control messages are JSON lines: one request or response per line, UTF-8
JSON, newline-terminated. Every request carries an ``op``; every response
carries ``ok`` (and ``error`` when ``ok`` is false). Blank lines between
frames are skipped. Keeping control messages JSON keeps them greppable and
curl-able.

**Chunk bodies (v6).** A successful ``read`` or ``read_object`` reply is
one JSON header line carrying ``"nbytes": N``, followed by exactly N raw
payload bytes — no base64, and no JSON scan of the body on either side.
:func:`frame_reply` is the one place a reply becomes wire bytes (the
header, then the body when the reply has one) and :func:`read_reply` the
one place a client reads one back: it checks ``nbytes`` (a negative,
non-integer or over-:data:`MAX_MESSAGE_BYTES` count is a *fatal*
:class:`ProtocolError`), reads the body, and hands it back as
``reply["data"]``. A body cut short by a dying peer reads as EOF, like a
torn header. Requests and every other reply stay plain JSON lines.

Requests may carry a ``trace`` object (``{"trace_id", "span_id"}``, see
:class:`~repro.obs.tracer.SpanContext`): the daemon re-installs it so the
spans of everything the request touches — admission gate waits, survivor
reads, decodes, piggybacks — export as one connected tree, and echoes
``trace_id`` in the response for correlation.

Operations (client -> server):

``ping``
    Liveness + topology: stripe count, ``n``/``k``, disk counts.
``stats``
    Live telemetry snapshot: per-job repair progress with ETAs, per-disk
    gate depths, writer backlog, event-loop health, foreground latency
    percentiles (see :mod:`repro.service.telemetry`).
``metrics``
    The metrics registry rendered as Prometheus text exposition
    (the TCP twin of the HTTP ``/metrics`` listener).
``fail_disk``
    Fail one disk (fault-injection front door for smoke tests).
``repair``
    Submit a background repair of one disk; returns a ``job_id``.
``wait``
    Block until a submitted repair finishes; returns its summary.
``read``
    Front-door read of one chunk (degrades transparently when lost).
``read_object``
    Front-door read of one whole object (k chunks, joined).
``shutdown``
    Drain and stop the daemon.

**Robustness.** Malformed input never kills a connection task silently:
non-JSON lines and non-object payloads raise a recoverable
:class:`ProtocolError` the daemon answers with a structured error
response, and a blank line is skipped, not read as end of stream;
frames longer than the reader's cap (requests are bounded by
:data:`MAX_REQUEST_BYTES` server-side) raise a *fatal* one — the daemon
answers, then closes, because a byte stream that overran its framing
cannot be resynchronized.

**Error taxonomy (v4).** Every error response carries a ``code`` from
:data:`ERROR_CODES` and a ``retryable`` boolean, so clients stop guessing
from message text. ``crash`` (daemon died mid-request) and ``overload``
(admission cap hit *or* brownout shedding) are retryable — elsewhere or
later; ``overload`` responses may carry a ``retry_after_ms`` hint that
well-behaved clients honor as a backoff floor. ``not_owner`` is
retryable *after redirect* and carries ``owner``/``endpoint``/``epoch``/
``shard`` so the client can go straight to the owning daemon; ``fenced``,
``bad_request``, ``protocol``, ``not_found`` and ``internal`` are fatal
for that request. Cluster deployments add a ``cluster`` op returning the
node's lease/ownership snapshot.

**Deadlines (v4).** ``read``/``read_object`` requests may carry
``deadline_ms`` — a per-request latency budget in milliseconds, measured
from daemon admission. The daemon stamps an absolute expiry on arrival
and re-checks it at every queue hop (admission, gate wait, piggyback
wait); once expired, the request is answered with the non-retryable
``deadline_exceeded`` code instead of consuming a disk slot — the client
has already given up, so doing the work would be pure queue pollution.

**Silent corruption (v5).** A chunk whose bytes disagree with their
digest — or one the scrub plane has already quarantined — is
answered with the ``corrupt_chunk`` code carrying ``disk``/``stripe``/
``shard``. The code is *retryable*: quarantine immediately triggers a
read-repair of the chunk's stripe, so a retry lands after
the verified replacement (or degrades through decode meanwhile). The
daemon never serves bytes that failed a verify. Scrub deployments add a
``scrub`` op returning the scrubber's live cursor/progress snapshot.
"""

from __future__ import annotations

import asyncio
import base64
import json
from typing import List, Optional

from repro.errors import ReproError

PROTOCOL_VERSION = 6

#: Upper bound on one encoded message (guards the line reader) and on
#: one reply body.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Upper bound on one *request* frame: requests are tiny control messages,
#: so the daemon caps them far below the response bound.
MAX_REQUEST_BYTES = 1 * 1024 * 1024

# ---------------------------------------------------------------- error codes
#: The daemon crashed (or the connection died) serving the request. The
#: request may retry on a peer — repairs are journaled and chunk writes
#: idempotent, so a duplicate attempt cannot double-apply.
ERR_CRASH = "crash"
#: Admission control rejected the request (too many in flight). Back off
#: and retry the same daemon.
ERR_OVERLOAD = "overload"
#: The addressed daemon does not own the target shard; the response
#: carries ``owner``/``endpoint``/``epoch``/``shard`` to redirect to.
ERR_NOT_OWNER = "not_owner"
#: The daemon lost its lease mid-operation (epoch fencing). Not retryable
#: *here*; the new owner has or will finish the work.
ERR_FENCED = "fenced"
#: The request itself is malformed (unknown op, bad types).
ERR_BAD_REQUEST = "bad_request"
#: Wire-level framing violation (see :class:`ProtocolError`).
ERR_PROTOCOL = "protocol"
#: The named entity (job, disk, chunk) does not exist.
ERR_NOT_FOUND = "not_found"
#: Anything else — a server-side bug surfaced as a structured error.
ERR_INTERNAL = "internal"
#: The request's ``deadline_ms`` budget expired before the daemon could
#: serve it. Not retryable: the caller has already given up on this
#: attempt, and blind retries of expired work are how brownouts become
#: outages. Responses carry ``hop`` (where it expired) and
#: ``overshoot_ms``.
ERR_DEADLINE = "deadline_exceeded"
#: The addressed chunk failed its digest verify (or is quarantined while
#: its read-repair is in flight). Retryable: detection quarantines the
#: chunk and synthesizes a single-chunk repair, so a later attempt reads
#: the verified replacement. Responses carry ``disk``/``stripe``/``shard``.
ERR_CORRUPT = "corrupt_chunk"

#: All error codes a daemon may emit.
ERROR_CODES = (
    ERR_CRASH, ERR_OVERLOAD, ERR_NOT_OWNER, ERR_FENCED,
    ERR_BAD_REQUEST, ERR_PROTOCOL, ERR_NOT_FOUND, ERR_INTERNAL,
    ERR_DEADLINE, ERR_CORRUPT,
)

#: Codes a client may transparently retry (``not_owner`` retries *at the
#: redirect target*, not the daemon that answered; ``corrupt_chunk``
#: retries after the quarantine-triggered read-repair replaces the bytes).
RETRYABLE_CODES = frozenset({ERR_CRASH, ERR_OVERLOAD, ERR_NOT_OWNER, ERR_CORRUPT})


def is_retryable(code: str) -> bool:
    """Whether a client may retry a request that failed with ``code``."""
    return code in RETRYABLE_CODES


class ProtocolError(ReproError):
    """Malformed or over-long wire message.

    ``fatal`` marks errors after which the byte stream cannot be trusted
    (an unterminated over-long frame): respond once, then hang up.
    """

    def __init__(self, message: str, fatal: bool = False) -> None:
        super().__init__(message)
        self.fatal = fatal


def encode_message(msg: dict) -> bytes:
    """One JSON-lines frame for ``msg``."""
    return (json.dumps(msg, separators=(",", ":"), sort_keys=True) + "\n").encode()


def decode_message(line: bytes) -> dict:
    try:
        msg = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad wire message: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError(f"wire message must be an object, got {type(msg).__name__}")
    return msg


async def read_message(
    reader, max_bytes: int = MAX_MESSAGE_BYTES
) -> Optional[dict]:
    """Read one JSON frame from an ``asyncio.StreamReader``; None on EOF.

    Blank lines are skipped. Raises :class:`ProtocolError` for malformed
    frames; the error is ``fatal`` when the stream overran its limit
    without a newline (the reader can no longer find a frame boundary) or
    a complete frame exceeded ``max_bytes``.
    """
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            raise ProtocolError(
                f"frame overran the stream limit ({exc.consumed} bytes buffered "
                "with no newline)", fatal=True,
            ) from None
        except EOFError:
            return None
        if len(line) > max_bytes:
            raise ProtocolError(
                f"message of {len(line)} bytes exceeds the {max_bytes}-byte cap",
                fatal=True,
            )
        if line.strip():
            return decode_message(line)


def frame_reply(reply: dict) -> List["bytes | memoryview"]:
    """The wire frame of one reply: ``[header]``, or ``[header, body]``
    when the reply carries a chunk body under ``data`` (any buffer)."""
    if "data" not in reply:
        return [encode_message(reply)]
    body = memoryview(reply["data"])
    header = {key: value for key, value in reply.items() if key != "data"}
    header["nbytes"] = body.nbytes
    return [encode_message(header), body]


async def read_reply(reader) -> Optional[dict]:
    """Read one reply written by :func:`frame_reply`; None on EOF.

    A header naming ``nbytes`` is followed by that many raw bytes, which
    come back as ``reply["data"]``. A body cut short reads as EOF; a bad
    ``nbytes`` is a fatal :class:`ProtocolError` (the stream cannot be
    resynchronized past a body of unknown length).
    """
    reply = await read_message(reader)
    if reply is None or "nbytes" not in reply:
        return reply
    nbytes = reply.pop("nbytes")
    if type(nbytes) is not int or not 0 <= nbytes <= MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"bad body length nbytes={nbytes!r} (want an integer in "
            f"[0, {MAX_MESSAGE_BYTES}])", fatal=True,
        )
    try:
        reply["data"] = await reader.readexactly(nbytes)
    except asyncio.IncompleteReadError:
        return None
    return reply


def reply_body(reply: dict) -> bytes:
    """The chunk body of a ``read``/``read_object`` reply.

    Raises :class:`ProtocolError` when the reply names no body — what a
    daemon older than v6 answers.
    """
    try:
        return reply["data"]
    except KeyError:
        raise ProtocolError(
            f"reply carries no body (no nbytes header): the daemon does not "
            f"speak protocol v{PROTOCOL_VERSION} (fields: {sorted(reply)})"
        ) from None


def ok(**fields) -> dict:
    out = {"ok": True}
    out.update(fields)
    return out


def error(message: str, code: str = ERR_INTERNAL, **fields) -> dict:
    """A structured error response.

    ``code`` defaults to :data:`ERR_INTERNAL`; ``retryable`` is derived
    from the code unless explicitly overridden.
    """
    out = {
        "ok": False,
        "error": str(message),
        "code": code,
        "retryable": fields.pop("retryable", is_retryable(code)),
    }
    out.update(fields)
    return out


# Only the e2e benchmark's layer table calls these two; no reply carries base64.
def pack_bytes(data: bytes) -> str:
    return base64.b64encode(bytes(data)).decode("ascii")


def unpack_bytes(encoded: str) -> bytes:
    try:
        return base64.b64decode(encoded.encode("ascii"), validate=True)
    except Exception as exc:
        raise ProtocolError(f"bad base64 payload: {exc}") from None
