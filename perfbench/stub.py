"""Ollama-compatible stand-in for a remote model server, for the benchmark.

Serves ``GET /api/tags``, ``POST /api/chat`` and ``POST /api/embed`` on
loopback. It sleeps a fixed, modelled time per request instead of
computing: ``--chat-delay`` per chat, ``--embed-delay`` plus
``--embed-per-text`` per text for an embed batch. The benchmark passes the
scaled values of ``workloads.OLLAMA_DOC_LATENCY``. Each connection gets its
own thread, so concurrent requests overlap rather than queue.

A chat reply is a pure function of the seed and the request body, like a
model decoding with a fixed seed, so a resumed run receives the replies an
uninterrupted one did. Embeddings are the byte-bigram vectors of
``checks.BigramEmbedder``. ``GET /stats`` returns request count and body
bytes of every ``/api/`` request served; it is not itself counted.

Prints the bound port on its first stdout line, and exits when its parent
process does.

    python3 perfbench/stub.py --seed 1 --dim 128 --chat-delay 0.0519 \\
        --embed-delay 0.00001 --embed-per-text 0.000131 --reply-bytes 500
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from checks import BigramEmbedder
from workloads import TextGen


class Stub:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.gen = TextGen(args.seed)
        self.embedder = BigramEmbedder(args.dim)
        self.lock = threading.Lock()
        self.stats = {"attempts": 0, "request_bytes": 0, "response_bytes": 0}

    def reply(self, body: bytes) -> str:
        gen = copy.copy(self.gen)
        gen.rng = random.Random(hashlib.sha256(body).digest())
        return gen.text(self.args.reply_bytes)

    def answer(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        if method == "GET" and path == "/stats":
            with self.lock:
                return 200, dict(self.stats)
        if method == "GET" and path == "/api/tags":
            payload = {"models": [{"name": "llama3.1"}, {"name": "jina-embeddings-v2-base-de"}]}
            status = 200
        elif method == "POST" and path == "/api/chat":
            time.sleep(self.args.chat_delay)
            payload = {"message": {"role": "assistant", "content": self.reply(body)}, "done": True}
            status = 200
        elif method == "POST" and path == "/api/embed":
            texts = json.loads(body)["input"]
            time.sleep(self.args.embed_delay + self.args.embed_per_text * len(texts))
            payload = {"embeddings": [self.embedder.embed(t).tolist() for t in texts]}
            status = 200
        else:
            payload, status = {"error": f"no route {method} {path}"}, 404
        return status, payload


def make_handler(stub: Stub):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True  # else delayed ACKs add ~40 ms per reply

        def _serve(self, method: str) -> None:
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            status, payload = stub.answer(method, self.path, body)
            data = json.dumps(payload).encode("utf-8")
            if self.path.startswith("/api/"):
                with stub.lock:
                    stub.stats["attempts"] += 1
                    stub.stats["request_bytes"] += len(body)
                    stub.stats["response_bytes"] += len(data)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:
            self._serve("GET")

        def do_POST(self) -> None:
            self._serve("POST")

        def log_message(self, format, *args) -> None:
            pass

    return Handler


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--chat-delay", type=float, required=True)
    parser.add_argument("--embed-delay", type=float, required=True)
    parser.add_argument("--embed-per-text", type=float, required=True)
    parser.add_argument("--reply-bytes", type=int, required=True)
    args = parser.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Stub(args)))
    server.daemon_threads = True
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    print(server.server_address[1], flush=True)
    sys.stdout.close()
    server.serve_forever()


if __name__ == "__main__":
    main()
