#!/usr/bin/env python3
"""Loopback scorer server for the remote-sentence workload.

Speaks the wire protocol of README.md (POST /v1/score) with a bigram
model fitted once on the given corpus and never refreshed, computed by
``perfbench.bigram``, not by varr. Connections stay open (HTTP/1.1
keep-alive), responses go out in one write with Nagle's algorithm off,
and nothing is logged per request. Each scoring request holds a fixed
service time that stands in for model compute.

GET /stats returns the counters: scoring requests, connections that sent
one, the most requests in flight at once, and busy seconds (parse to
response written, service time included).

    python perfbench/server.py --corpus corpus.jsonl

prints "port <n>" on its first line of output and serves 127.0.0.1 on
that port until SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bigram import BigramModel, record_stream, record_vocabulary  # noqa: E402

ALPHA = 1.0
SERVICE_S = 0.001  # fixed time each scoring request holds, in place of model compute


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.busy_s = 0.0

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "max_in_flight": self.max_in_flight,
                "busy_s": self.busy_s,
            }


def make_handler(model: BigramModel, stats: Stats, service_s: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.counted = False

        def _reply(self, status: int, body: bytes) -> None:
            reason = self.responses.get(status, ("",))[0]
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)

        def do_GET(self):
            if self.path != "/stats":
                self._reply(404, b"{}")
                return
            self._reply(200, json.dumps(stats.snapshot()).encode("utf-8"))

        def do_POST(self):
            start = time.perf_counter()
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path != "/v1/score":
                self._reply(404, b"{}")
                return
            with stats.lock:
                stats.requests += 1
                if not self.counted:
                    stats.connections += 1
                    self.counted = True
                stats.in_flight += 1
                stats.max_in_flight = max(stats.max_in_flight, stats.in_flight)
            try:
                status, body = self._score(raw)
                time.sleep(service_s)
                self._reply(status, body)
            finally:
                with stats.lock:
                    stats.in_flight -= 1
                    stats.busy_s += time.perf_counter() - start

        def _score(self, raw: bytes) -> tuple[int, bytes]:
            try:
                body = json.loads(raw)
                context = body["prompt"].split()
                values = model.token_logprobs(context[-1], body["completion"].split())
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                return 400, json.dumps({"error": str(exc)}).encode("utf-8")
            payload = {"token_logprobs": values, "total_logprob": sum(values)}
            return 200, json.dumps(payload).encode("utf-8")

        def log_message(self, fmt, *args):
            pass

    return Handler


def load_model(corpus_path: str) -> BigramModel:
    """Fit on question + rationale units + answer of every corpus line."""
    records = []
    for line in Path(corpus_path).read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        units = obj["rationale"]
        if isinstance(units, str):
            units = [units]
        records.append({**obj, "units": units})
    model = BigramModel(record_vocabulary(records), ALPHA)
    model.fit(record_stream(r["question"], r["units"], r["answer"]) for r in records)
    return model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--corpus", required=True)
    args = parser.parse_args()

    model = load_model(args.corpus)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(model, Stats(), SERVICE_S))
    server.daemon_threads = True
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
