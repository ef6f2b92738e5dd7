"""HTTP(S) transport for the remote sampler, on the standard library alone.

A ``ChatConnection`` holds one kept-alive connection to a chat endpoint for
a whole run, reused by every request and retry. Its proxy comes from the
environment (``http_proxy``, ``https_proxy``, ``no_proxy``), resolved once
when the connection is first opened: an ``http`` endpoint sends the
absolute-form target to the proxy, an ``https`` endpoint tunnels through it
with CONNECT. TLS verifies the server against the system's trust store
(``ssl.create_default_context``, which honours ``SSL_CERT_FILE`` and
``SSL_CERT_DIR``).
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


def _connection(scheme: str, host: str, port: int) -> http.client.HTTPConnection:
    """An unopened connection to (host, port); TLS for ``https``, verified
    against the system's trust store."""
    if scheme == "https":
        return http.client.HTTPSConnection(
            host, port, timeout=TIMEOUT_S, context=ssl.create_default_context()
        )
    return http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)


class ChatConnection:
    """One kept-alive connection to ``endpoint``, an http(s) URL; nothing is
    resolved or opened before the first ``post``."""

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        self._http: http.client.HTTPConnection | None = None
        self._target = ""
        self._headers: dict[str, str] = {}

    def _open(self):
        url = urllib.parse.urlsplit(self.endpoint)
        netloc = url.netloc.rpartition("@")[2]
        path = url.path or "/"
        # always an explicit port: given none, http.client takes the last
        # group of an IPv6 host such as ::1 for one
        port = url.port or (443 if url.scheme == "https" else 80)
        self._target = urllib.parse.urlunsplit(("", "", path, url.query, ""))
        proxy = urllib.request.getproxies().get(url.scheme)
        if not proxy or urllib.request.proxy_bypass(netloc):
            self._http = _connection(url.scheme, url.hostname, port)
            return
        via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        auth = {}
        if via.username is not None:
            user = urllib.parse.unquote(via.username)
            password = urllib.parse.unquote(via.password or "")
            token = base64.b64encode(f"{user}:{password}".encode()).decode()
            auth["Proxy-Authorization"] = f"Basic {token}"
        self._http = _connection(url.scheme, via.hostname, via.port or 80)
        if url.scheme == "https":
            self._http.set_tunnel(url.hostname, port, headers=auth)
        else:
            self._target = urllib.parse.urlunsplit(("http", netloc, path, url.query, ""))
            self._headers = auth

    def post(
        self, body: bytes, headers: dict
    ) -> tuple[int, http.client.HTTPMessage, bytes]:
        """Send one POST and read its whole response: (status, headers, body).

        If the connection had served a request and the server dropped it
        while idle, the request goes once more, at once, on a fresh
        connection. Any other error in ``ERRORS`` closes the connection and
        propagates."""
        if self._http is None:
            self._open()
        headers = {**self._headers, **headers}
        reused = self._http.sock is not None
        try:
            try:
                response = self._exchange(body, headers)
            except DROPPED:
                if not reused:
                    raise
                self._http.close()
                response = self._exchange(body, headers)
            return response.status, response.headers, response.read()
        except ERRORS:
            self._http.close()
            raise

    def _exchange(self, body: bytes, headers: dict) -> http.client.HTTPResponse:
        self._http.request("POST", self._target, body, headers)
        return self._http.getresponse()

    def close(self):
        if self._http is not None:
            self._http.close()

    # a sampler dropped without close() still frees its socket, quietly
    __del__ = close
