"""Minimal HTTP/1.1 over asyncio streams — the service's only wire layer.

Hand-rolled on purpose: the front door must not pull a web framework into
a numerics package, and the subset the API needs is small and fixed —
request line + headers + ``Content-Length`` bodies in; fixed-length JSON
or chunked NDJSON responses out.  Every response closes the connection
(``Connection: close``), trading keep-alive reuse for a parser with no
pipelining states; clients issue one request per connection.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.experiments.results import canonical_json

#: Request bodies above this size are rejected with 413 — an experiment
#: spec is a few KB; anything megabytes-sized is not a spec.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Specs that expand to more cells than this are refused with 413 and
#: never queued.  A spec well under :data:`MAX_BODY_BYTES` can still ask
#: for hundreds of thousands of cells; the largest grids the project runs
#: (its tests, CI, examples and benchmarks) have about a hundred.
MAX_SPEC_CELLS = 10_000

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """A malformed request; carries the HTTP status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """The body parsed as JSON (400 on syntax errors or empty body)."""
        if not self.body:
            raise ProtocolError(400, "request body must be a JSON document")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(400, f"request body is not valid JSON: {exc}")


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client connected and went away
        raise ProtocolError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise ProtocolError(413, "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    path = unquote(split.path)
    query = dict(parse_qsl(split.query))

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise ProtocolError(400, f"malformed Content-Length {length_text!r}")
        if length < 0:
            raise ProtocolError(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "request body shorter than Content-Length")
    elif headers.get("transfer-encoding"):
        # Nothing the API accepts needs a chunked *request*; refusing is
        # simpler and safer than a second body-framing implementation.
        raise ProtocolError(400, "chunked request bodies are not supported")

    return Request(method=method, path=path, query=query, headers=headers, body=body)


def render(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    extra_headers: Iterable[Tuple[str, str]] = (),
) -> bytes:
    """A complete fixed-length response, ready to write."""
    reason = _REASONS.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}"]
    head.append(f"Content-Type: {content_type}")
    head.append(f"Content-Length: {len(body)}")
    for name, value in extra_headers:
        head.append(f"{name}: {value}")
    head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def json_body(payload: object) -> bytes:
    """Canonical JSON bytes for a response body (:func:`canonical_json`,
    newline-terminated)."""
    return (canonical_json(payload) + "\n").encode("utf-8")


def error_response(
    status: int, message: str, *, extra_headers: Iterable[Tuple[str, str]] = ()
) -> bytes:
    return render(
        status, json_body({"error": message}), extra_headers=extra_headers
    )


class ChunkedWriter:
    """A chunked-transfer response: start once, write chunks, end once.

    The streaming endpoint's NDJSON lines ride this — each line is one
    chunk, flushed immediately, so clients see cell results the moment
    they land rather than when the job finishes.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._started = False

    async def start(
        self, status: int = 200, *, content_type: str = "application/x-ndjson"
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1"))
        await self._writer.drain()
        self._started = True

    async def write(self, data: bytes) -> None:
        if not data:
            return
        self._writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await self._writer.drain()

    async def end(self) -> None:
        if self._started:
            self._writer.write(b"0\r\n\r\n")
            await self._writer.drain()
