"""HTTP(S) transport for the remote sampler, on the standard library alone.

A ``ChatConnection`` holds one kept-alive connection to a chat endpoint for
a whole run, reused by every request and retry. Its proxy comes from the
environment (``http_proxy``, ``https_proxy``, ``no_proxy``), resolved once
when the connection is first opened: an ``http`` endpoint sends the
absolute-form target to the proxy, an ``https`` endpoint tunnels through it
with CONNECT. TLS verifies the server against the system's trust store
(``ssl.create_default_context``, which honours ``SSL_CERT_FILE`` and
``SSL_CERT_DIR``).

``http.client`` only opens the connection: the proxy, the tunnel and TLS
stay its own. Each request is then written as one buffer, and its response
is read from one buffered reader that lives as long as the socket, framed
as RFC 9112 section 6 says: 1xx responses are skipped, 204 and 304 carry no
body, a chunked body wins over ``Content-Length``, and with neither the
body runs to the close of the connection. Failures raise ``http.client``'s
own exception types, and lines and headers are bounded as it bounds them.
"""

from __future__ import annotations

import base64
import http.client
import ssl
import urllib.parse
import urllib.request

TIMEOUT_S = 120
# what a request can fail with below the level of an HTTP status
ERRORS = (OSError, http.client.HTTPException)
# how a reused connection fails before any status line arrives when the
# server closed it while it sat idle
DROPPED = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)
# http.client's bounds on one line and on the header fields of one response
MAX_LINE = 65536
MAX_HEADERS = 100
# what may not appear in a header name or value: it would end the field early
_UNSAFE = frozenset("\r\n\0")


def _connection(scheme: str, host: str, port: int) -> http.client.HTTPConnection:
    """An unopened connection to (host, port); TLS for ``https``, verified
    against the system's trust store."""
    if scheme == "https":
        return http.client.HTTPSConnection(
            host, port, timeout=TIMEOUT_S, context=ssl.create_default_context()
        )
    return http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)


def _field(name: str, value: str) -> bytes:
    """One header line; ValueError if the name or value holds CR, LF or NUL."""
    if _UNSAFE.intersection(name) or _UNSAFE.intersection(value):
        raise ValueError(f"header {name!r} holds CR, LF or NUL")
    return f"{name}: {value}\r\n".encode("latin-1")


def _line(reader, what: str) -> bytes:
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _read_headers(reader) -> dict[str, str]:
    """The header fields up to the blank line, names in lower case; a name
    seen again keeps its first value, and a folded line joins the field
    before it."""
    headers: dict[str, str] = {}
    name = None
    count = 0
    while True:
        line = _line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            return headers
        count += 1
        if count > MAX_HEADERS:
            raise http.client.HTTPException(f"got more than {MAX_HEADERS} headers")
        text = line.decode("latin-1")
        if text[0] in " \t":
            if name is not None:
                headers[name] = f"{headers[name]} {text.strip()}"
            continue
        key, sep, value = text.partition(":")
        if not sep:
            continue  # not a field; http.client passes over it too
        name = key.strip().lower()
        if name in headers:
            name = None  # a fold after a repeated field belongs to no kept value
            continue
        headers[name] = value.strip()


def _read_chunked(reader) -> bytes:
    parts = []
    while True:
        line = _line(reader, "chunk size")
        size = line.split(b";", 1)[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise http.client.IncompleteRead(b"".join(parts))
        size = int(size, 16)
        if size == 0:
            break
        data = reader.read(size)
        parts.append(data)
        if len(data) < size:
            raise http.client.IncompleteRead(b"".join(parts), size - len(data))
        if _line(reader, "chunk end") not in (b"\r\n", b"\n"):
            raise http.client.IncompleteRead(b"".join(parts))
    while _line(reader, "trailer line") not in (b"\r\n", b"\n", b""):
        pass
    return b"".join(parts)


class ChatConnection:
    """One kept-alive connection to ``endpoint``, an http(s) URL; nothing is
    resolved or opened before the first ``post``."""

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        self._http: http.client.HTTPConnection | None = None
        self._head = b""  # the request line and the fields every request sends
        self._reader = None  # the open socket's buffered reader

    def _open(self):
        url = urllib.parse.urlsplit(self.endpoint)
        netloc = url.netloc.rpartition("@")[2]
        path = url.path or "/"
        # always an explicit port: given none, http.client takes the last
        # group of an IPv6 host such as ::1 for one
        port = url.port or (443 if url.scheme == "https" else 80)
        target = urllib.parse.urlunsplit(("", "", path, url.query, ""))
        auth = {}
        proxy = urllib.request.getproxies().get(url.scheme)
        if not proxy or urllib.request.proxy_bypass(netloc):
            connection = _connection(url.scheme, url.hostname, port)
        else:
            via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if via.username is not None:
                user = urllib.parse.unquote(via.username)
                password = urllib.parse.unquote(via.password or "")
                token = base64.b64encode(f"{user}:{password}".encode()).decode()
                auth["Proxy-Authorization"] = f"Basic {token}"
            connection = _connection(url.scheme, via.hostname, via.port or 80)
            if url.scheme == "https":
                connection.set_tunnel(url.hostname, port, headers=auth)
                auth = {}
            else:
                target = urllib.parse.urlunsplit(("http", netloc, path, url.query, ""))
        if any(c <= " " or c == "\x7f" for c in target):
            raise http.client.InvalidURL(f"URL can't contain control characters: {target!r}")
        host = netloc if netloc.isascii() else netloc.encode("idna").decode("ascii")
        self._head = b"".join(
            [
                f"POST {target} HTTP/1.1\r\n".encode("ascii"),
                _field("Host", host),
                b"Accept-Encoding: identity\r\n",
                *(_field(name, value) for name, value in auth.items()),
            ]
        )
        self._http = connection

    def post(self, body: bytes, headers: dict) -> tuple[int, dict[str, str], bytes]:
        """Send one POST and read its whole response: (status, header fields
        with lower-case names, body).

        A header name or value holding CR, LF or NUL raises ValueError before
        anything is sent. If the connection had served a request and the
        server dropped it while idle, the request goes once more, at once,
        on a fresh connection. Any other error in ``ERRORS`` closes the
        connection and propagates."""
        if self._http is None:
            self._open()
        request = b"".join(
            [
                self._head,
                b"Content-Length: %d\r\n" % len(body),
                *(_field(name, value) for name, value in headers.items()),
                b"\r\n",
                body,
            ]
        )
        reused = self._reader is not None
        try:
            try:
                return self._exchange(request)
            except DROPPED:
                if not reused:
                    raise
                self.close()
                return self._exchange(request)
        except ERRORS:
            self.close()
            raise

    def _exchange(self, request: bytes) -> tuple[int, dict[str, str], bytes]:
        if self._reader is None:
            self._http.connect()
            self._reader = self._http.sock.makefile("rb")
        self._http.sock.sendall(request)
        reader = self._reader
        while True:
            line = _line(reader, "status line")
            if not line:
                raise http.client.RemoteDisconnected(
                    "Remote end closed connection without response"
                )
            version, _, rest = line.partition(b" ")
            status = rest[:3]
            if not (
                version.startswith(b"HTTP/1.")
                and status.isdigit()
                and rest[3:4] in (b"", b" ", b"\r", b"\n")
            ):
                raise http.client.BadStatusLine(line.decode("latin-1"))
            status = int(status)
            headers = _read_headers(reader)
            if status >= 200:
                break
        options = {o.strip() for o in headers.get("connection", "").lower().split(",")}
        close = "close" in options or (
            version == b"HTTP/1.0" and "keep-alive" not in options
        )
        coding = headers.get("transfer-encoding", "").lower()
        length = headers.get("content-length")
        if status in (204, 304):
            reply = b""
        elif coding.rpartition(",")[2].strip() == "chunked":
            reply = _read_chunked(reader)
        elif coding or length is None:
            reply = reader.read()
            close = True
        else:
            if not length.isdecimal():
                raise http.client.HTTPException(f"invalid Content-Length {length!r}")
            reply = reader.read(int(length))
            if len(reply) < int(length):
                raise http.client.IncompleteRead(reply, int(length) - len(reply))
        if close:
            self.close()
        return status, headers, reply

    def close(self):
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._http is not None:
            self._http.close()

    # a sampler dropped without close() still frees its socket, quietly
    __del__ = close
