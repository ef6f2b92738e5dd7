"""Local chat-completions stub for the ``remote`` workload.

Run as ``python3 stub.py PORT_FILE TOKEN``. It listens on 127.0.0.1 only,
writes its port to PORT_FILE, and speaks HTTP/1.1 with keep-alive, as real
chat endpoints do. Chat requests are answered from a script set through
``POST /control/script`` (items ``["ok", text]`` or ``["status", code]``),
served in order and cycled. ``GET /control/stats`` returns the counters:
chat requests, connections that carried a chat request, the stub's own
handling time per request, and the gap from each 200 response to the next
request. ``POST /control/shutdown`` stops the server.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Stub:
    def __init__(self, token: str):
        self.token = token
        self.lock = threading.Lock()
        self.set_script([])

    def set_script(self, items):
        self.script = [tuple(item) for item in items]
        self.position = 0
        self.requests = 0
        self.connections = 0
        self.handle_ns: list[int] = []
        self.gaps_ns: list[int] = []
        self.last_ok_sent: int | None = None

    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "connections": self.connections,
            "handle_ns": self.handle_ns,
            "gaps_ns": self.gaps_ns,
        }


def make_handler(stub: Stub):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # One buffered write per response, sent at once, as servers do.
        wbufsize = -1
        disable_nagle_algorithm = True
        counted = False

        def _reply(self, code: int, body: bytes, content_type="application/json"):
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()

        def _body(self) -> bytes:
            return self.rfile.read(int(self.headers.get("Content-Length", 0)))

        def do_GET(self):
            if self.path == "/control/stats":
                with stub.lock:
                    body = json.dumps(stub.stats()).encode()
                self._reply(200, body)
            else:
                self._reply(404, b"{}")

        def do_POST(self):
            if self.path == "/control/script":
                items = json.loads(self._body())["items"]
                with stub.lock:
                    stub.set_script(items)
                self._reply(200, b"{}")
            elif self.path == "/control/shutdown":
                self._reply(200, b"{}")
                threading.Thread(target=self.server.shutdown).start()
            else:
                self._chat()

        def _chat(self):
            self._body()
            received = time.perf_counter_ns()
            if self.headers.get("Authorization") != f"Bearer {stub.token}":
                self._reply(401, b'{"error": "bad token"}')
                return
            with stub.lock:
                if stub.last_ok_sent is not None:
                    stub.gaps_ns.append(received - stub.last_ok_sent)
                stub.last_ok_sent = None
                stub.requests += 1
                if not self.counted:
                    self.counted = True
                    stub.connections += 1
                kind, value = stub.script[stub.position % len(stub.script)]
                stub.position += 1
            if kind == "status":
                self._reply(value, b"scripted overload", "text/plain")
            else:
                payload = {
                    "choices": [{"message": {"role": "assistant", "content": value}}],
                    "usage": {"total_tokens": len(value.split())},
                }
                self._reply(200, json.dumps(payload).encode())
            sent = time.perf_counter_ns()
            with stub.lock:
                stub.handle_ns.append(sent - received)
                if kind == "ok":
                    stub.last_ok_sent = sent

        def log_message(self, *args):
            pass

    return Handler


def main(port_file: str, token: str) -> int:
    stub = Stub(token)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(stub))
    server.daemon_threads = True
    tmp = port_file + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(str(server.server_address[1]))
    os.replace(tmp, port_file)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
