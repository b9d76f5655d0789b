"""Scriptable in-process HTTP server speaking the scorer wire protocol.

POST /v1/score with {"model", "prompt", "completion"} returns
{"token_logprobs": [...], "total_logprob": ...} computed by the optional
``score(prompt, completion)`` callable (status 400 where it returns
None), or else as a fixed -0.5 per whitespace token of the completion,
unless a scripted behavior (status sequence, malformed payload, a
``fail_prompt(prompt)`` predicate that holds) says otherwise. Requests
are recorded for assertions, with their headers and the client address
of the connection they came on. Connections stay open (HTTP/1.1
keep-alive) and every response carries a Content-Length, unless
``close_after_reply`` is set: then the server closes each connection
after one response without saying so, as a server that drops idle
keep-alive connections does. With ``certfile`` (a PEM file holding the
certificate and its key) the server speaks HTTPS.

Run as a module, it serves a corpus-fitted bigram model, so the remote
backend can be exercised end to end without an inference service:

    PYTHONPATH=src python -m tests.mockserver \
        --corpus tests/data/fixture_corpus.jsonl --port 8900 &
    VARR_SCORER_URL=http://127.0.0.1:8900 varr score \
        --scorer remote --question "what is job a1" --answer "ans1 done"

Completions or prompts with symbols outside the fitted vocabulary get
status 400.
"""

from __future__ import annotations

import argparse
import json
import socket
import ssl
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from varr.corpus import load_corpus
from varr.errors import ScorerError
from varr.scorer import PromptAssembly, TabularModel, TabularScorer, fit_tabular_scorer


def model_score(model: TabularModel) -> Callable[[str, str], list[float] | None]:
    """score(prompt, completion) of a tabular model; None outside its vocabulary."""
    scorer = TabularScorer(model)

    def score(prompt: str, completion: str) -> list[float] | None:
        try:
            result = scorer.score_answer(PromptAssembly(prompt, ()), completion)
        except ScorerError:
            return None
        return list(result.per_token)
    return score


def corpus_score(path, smoothing_alpha: float = 1.0):
    """model_score of the tabular model fitted on the corpus at path."""
    return model_score(fit_tabular_scorer(load_corpus(path), smoothing_alpha).model)


class MockScorerServer:
    """Context manager around a ThreadingHTTPServer on an OS-picked port."""

    def __init__(
        self,
        status_script: list[int] | None = None,
        malformed: bool = False,
        score: Callable[[str, str], list[float]] | None = None,
        fail_prompt: Callable[[str], bool] | None = None,
        fail_status: int = 400,
        close_after_reply: bool = False,
        certfile: str | None = None,
        port: int = 0,
    ):
        # status_script: HTTP statuses for successive requests; after the
        # script is exhausted, requests succeed with 200.
        # fail_prompt: every request whose prompt it holds for gets
        # fail_status, so which request fails does not depend on timing.
        self.status_script = list(status_script or [])
        self.malformed = malformed
        self.score = score
        self.fail_prompt = fail_prompt
        self.fail_status = fail_status
        self.close_after_reply = close_after_reply
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                # headers and body go out in separate writes; without this,
                # Nagle's algorithm holds the body back on a kept-alive socket
                self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

            def _reply(self, status: int, payload: bytes = b"") -> None:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
                if server.close_after_reply:
                    self.close_connection = True

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length)) if length else {}
                with server._lock:
                    server.requests.append({
                        "path": self.path, "body": body, "headers": dict(self.headers),
                        "client": self.client_address,
                    })
                    status = (
                        server.status_script.pop(0) if server.status_script else 200
                    )
                prompt = body.get("prompt", "")
                if self.path != "/v1/score":
                    status = 404
                elif server.fail_prompt is not None and server.fail_prompt(prompt):
                    status = server.fail_status
                if status != 200:
                    self._reply(status)
                    return
                if server.malformed:
                    self._reply(200, b'{"oops": true}')
                    return
                completion = body.get("completion", "")
                if server.score is not None:
                    per_token = server.score(prompt, completion)
                    if per_token is None:
                        self._reply(400)
                        return
                else:
                    per_token = [-0.5 for _ in completion.split()]
                self._reply(200, json.dumps({
                    "token_logprobs": per_token,
                    "total_logprob": sum(per_token),
                }).encode("utf-8"))

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self.scheme = "http"
        if certfile is not None:
            context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
            context.load_cert_chain(certfile)
            self._httpd.socket = context.wrap_socket(self._httpd.socket, server_side=True)
            self.scheme = "https"
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(0.05,), daemon=True)

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"{self.scheme}://{host}:{port}"

    def connections(self) -> set:
        """Client addresses that sent at least one request."""
        with self._lock:
            return {r["client"] for r in self.requests}

    def __enter__(self) -> "MockScorerServer":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        return False


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Serve a corpus-fitted bigram scorer over the remote wire protocol.")
    parser.add_argument("--corpus", required=True, help="corpus to fit the model on")
    parser.add_argument("--port", type=int, default=8900)
    parser.add_argument("--alpha", type=float, default=1.0)
    args = parser.parse_args()
    with MockScorerServer(score=corpus_score(args.corpus, args.alpha),
                          port=args.port) as server:
        print(f"serving a tabular scorer (alpha={args.alpha}) on {server.url}/v1/score",
              flush=True)
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
