"""Scripted chat-completions stub for exercising the remote sampler."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubChatServer:
    """Serves a fixed script of responses, one per request, over HTTP/1.1
    with keep-alive.

    Script items are either ("content", text) for a 200 completion or
    ("status", code) for a bare error response. Requests beyond the script
    repeat the last item. All request payloads are recorded, with the
    client's (host, port), so tests can count connections.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _reply(self, code, body, content_type):
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                outer.requests.append(
                    {"path": self.path, "body": body,
                     "auth": self.headers.get("Authorization"),
                     "client": self.client_address}
                )
                index = min(len(outer.requests) - 1, len(outer.script) - 1)
                kind, value = outer.script[index]
                if kind == "status":
                    self._reply(value, b"scripted error", "text/plain")
                    return
                payload = {
                    "choices": [{"message": {"content": value}}],
                    "usage": {"total_tokens": 7},
                }
                self._reply(200, json.dumps(payload).encode(), "application/json")

            def log_message(self, *args):
                pass

        # a thread per connection: a kept-alive connection does not hold up
        # the next client or shutdown
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    @property
    def url(self):
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
