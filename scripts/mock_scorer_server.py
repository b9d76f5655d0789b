#!/usr/bin/env python3
"""Serve a corpus-fitted bigram scorer over the remote wire protocol.

Lets the remote backend be exercised end to end without any external
inference service:

    python scripts/mock_scorer_server.py --corpus tests/data/fixture_corpus.jsonl &
    VARR_SCORER_URL=http://127.0.0.1:8900 varr score \
        --scorer remote --question "what is job a1" --answer "ans1 done"

POST /v1/score with {"model", "prompt", "completion"} answers
{"token_logprobs": [...], "total_logprob": ...}. Symbols outside the
fitted vocabulary yield status 400. Connections stay open (HTTP/1.1
keep-alive), every response carries a Content-Length, and nothing is
logged per request.
"""

import argparse
import json
import socket
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from varr.corpus import load_corpus
from varr.errors import ScorerError
from varr.scorer import PromptAssembly, fit_tabular_scorer


def make_handler(scorer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def _reply(self, status, body):
            payload = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path != "/v1/score":
                self._reply(404, {"error": f"no such endpoint: {self.path}"})
                return
            try:
                body = json.loads(raw)
                assembly = PromptAssembly(body["prompt"], ())
                result = scorer.score_answer(assembly, body["completion"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                self._reply(400, {"error": f"bad request: {exc}"})
                return
            except ScorerError as exc:
                self._reply(400, {"error": str(exc)})
                return
            self._reply(200, {
                "token_logprobs": list(result.per_token),
                "total_logprob": result.total,
            })

        def log_message(self, fmt, *args):
            pass

    return Handler


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", required=True, help="corpus to fit the model on")
    parser.add_argument("--port", type=int, default=8900)
    parser.add_argument("--alpha", type=float, default=1.0)
    args = parser.parse_args()

    corpus = load_corpus(args.corpus)
    scorer = fit_tabular_scorer(corpus, smoothing_alpha=args.alpha)
    server = ThreadingHTTPServer(("127.0.0.1", args.port), make_handler(scorer))
    print(f"serving tabular scorer (V={scorer.model.vocab_size}, alpha={args.alpha}) "
          f"on http://127.0.0.1:{args.port}/v1/score")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
