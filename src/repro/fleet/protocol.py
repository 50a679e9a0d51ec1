"""The fleet's wire protocol: length-prefixed pickle frames over a socket.

One frame is a pickled ``(kind, req_id, payload)`` tuple preceded by a
4-byte big-endian length.  The framing is deliberately minimal -- both
endpoints are the same trusted codebase forked from one parent process, so
pickle's "only between cooperating processes" caveat is satisfied by
construction and the protocol needs no negotiation, versioning, or schema.

Frame kinds:

========== ======== =========================================================
kind       sender   payload
========== ======== =========================================================
``ready``   worker  ``{"worker_id", "pid", "models"}`` -- warm-start done
``fatal``   worker  error string -- warm-start failed, the worker is exiting
``est``     router  ``(task, query, deadline_token)``; ``task`` is ``count``
                    or ``ndv``; ``deadline_token`` is the string ``"cfg"``
                    (use the worker's configured deadline -- an ``_UNSET``
                    sentinel cannot cross a pickle boundary), a float
                    (milliseconds) or ``None`` (no deadline)
``res``     worker  ``(value, source, latency_s)``
``err``     worker  error string -- the request raised
``ping``    router  ``None``
``pong``    worker  ``None``
``metrics`` router  ``None``
``metrics_res`` w.  :meth:`MetricsRegistry.state` snapshot
``shutdown`` router worker-side drain budget (seconds or ``None``)
``bye``     worker  ``None`` -- drain finished, the worker is exiting
========== ======== =========================================================

Requests are multiplexed by ``req_id``; replies may arrive out of order
(the worker handles estimates on a thread pool while answering pings
inline), so both sides key their pending state by id.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

from repro.errors import ConnectionClosed, FleetError

__all__ = ["FrameConnection", "MAX_FRAME_BYTES", "DEADLINE_FROM_CONFIG"]

_HEADER = struct.Struct(">I")

#: hard bound on one frame; anything bigger indicates a protocol bug (a
#: desynced stream reading garbage as a length), not a legitimate payload
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: the wire stand-in for "use the worker's configured deadline"
DEADLINE_FROM_CONFIG = "cfg"


class FrameConnection:
    """One framed, thread-safe, bidirectional connection over a socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def send(self, kind: str, req_id: int, payload: object) -> None:
        blob = pickle.dumps(
            (kind, req_id, payload), protocol=pickle.HIGHEST_PROTOCOL
        )
        if len(blob) > MAX_FRAME_BYTES:
            raise FleetError(
                f"frame of {len(blob)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte bound"
            )
        frame = _HEADER.pack(len(blob)) + blob
        with self._send_lock:
            if self._closed:
                raise ConnectionClosed("connection already closed locally")
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                raise ConnectionClosed(str(exc)) from exc

    def recv(self) -> tuple[str, int, object]:
        with self._recv_lock:
            header = self._recv_exact(_HEADER.size)
            (length,) = _HEADER.unpack(header)
            if length > MAX_FRAME_BYTES:
                raise FleetError(
                    f"peer announced a {length}-byte frame (stream desync?)"
                )
            blob = self._recv_exact(length)
        kind, req_id, payload = pickle.loads(blob)
        return kind, req_id, payload

    def _recv_exact(self, nbytes: int) -> bytes:
        chunks: list[bytes] = []
        while nbytes:
            try:
                chunk = self._sock.recv(min(nbytes, 1 << 20))
            except OSError as exc:
                raise ConnectionClosed(str(exc)) from exc
            if not chunk:
                raise ConnectionClosed("peer closed the connection")
            chunks.append(chunk)
            nbytes -= len(chunk)
        return b"".join(chunks)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
