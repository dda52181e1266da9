"""External model adapters: subprocess and HTTP transports, spec parsing."""

import json
import os
import re
import signal
import socket
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from nicecf.errors import ConfigError, EncodeError, ModelIOError
from nicecf.model import ExternalHandle, _parse_scores, external_model

# Worker that scores an instance as 1/(1+sum of numeric values), clamped.
WORKER = r"""
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    scores = []
    for inst in req["instances"]:
        total = sum(v for v in inst if isinstance(v, (int, float)))
        scores.append(max(0.0, min(1.0, 1.0 / (1.0 + abs(total)))))
    print(json.dumps({"scores": scores}), flush=True)
"""


# Worker that scores every instance of its n-th request as n/10, capped at 1.
COUNTER = r"""
import json, sys
calls = 0
for line in sys.stdin:
    req = json.loads(line)
    calls += 1
    print(json.dumps({"scores": [min(1.0, calls / 10.0)] * len(req["instances"])}), flush=True)
"""


def worker_spec(body: str = WORKER) -> str:
    return f"proc:{sys.executable} -u -c '{body}'"


# Scores that json.loads or float() reject with exceptions of their own, and
# the ModelIOError message each must become.
UNREADABLE_SCORES = {
    "int-over-float-range": (b"9" * 400, "score 0 is an integer out of float range"),
    "int-over-4300-digits": (b"1" * 4301, "reply is not valid JSON: Exceeds the limit"),
    "nested-10000-deep": (b"[" * 10000, "reply is not valid JSON: maximum recursion depth"),
    "not-utf8": (b"\xff", "reply is not UTF-8"),
}


# Worker that scores every instance as the raw bytes whose hex replaces SCORE.
REPLYING = r"""
import json, sys
score = bytes.fromhex("SCORE")
for line in sys.stdin:
    n = len(json.loads(line)["instances"])
    sys.stdout.buffer.write(json.dumps({"scores": [0] * n}).encode().replace(b"0", score))
    sys.stdout.buffer.write(b"\n")
    sys.stdout.buffer.flush()
"""


def replying_worker(score: bytes) -> str:
    return worker_spec(REPLYING.replace("SCORE", score.hex()))


@pytest.mark.parametrize("text, message", [
    ('[0.5]', "reply must be an object with a 'scores' list"),
    ('{"scores": 0.5}', "reply must be an object with a 'scores' list"),
    ('{"scores": [0.5, NaN]}', "score 1 is not a finite number: nan"),
    ('{"scores": [Infinity, 0.5]}', "score 0 is not a finite number: inf"),
    ('{"scores": [0.5, "0.5"]}', "score 1 is not a finite number: '0.5'"),
])
def test_reply_of_the_wrong_shape(text, message):
    with pytest.raises(ModelIOError, match=f"^origin: {re.escape(message)}$"):
        _parse_scores(text, 2, "origin")


class TestSubprocess:
    def test_scores_instances(self):
        handle = external_model(worker_spec())
        try:
            assert handle.score((0.0, "a")) == 1.0
            assert handle.score((1.0, "b")) == 0.5
        finally:
            handle.close()

    def test_batching_splits_requests(self):
        handle = external_model(worker_spec(COUNTER))
        handle.BATCH_ROWS = 2
        try:
            scores = handle.score_batch([(float(i),) for i in range(5)])
            # 5 instances at 2 rows per request -> 3 requests; per-request constant score.
            assert scores.tolist() == [0.1, 0.1, 0.2, 0.2, 0.3]
        finally:
            handle.close()

    # 10**400 is an int too large for a float.
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 10**400],
                             ids=["nan", "inf", "-inf", "10**400"])
    def test_non_finite_number_never_sent(self, bad):
        handle = external_model(worker_spec(COUNTER))
        handle.BATCH_ROWS = 1
        try:
            with pytest.raises(EncodeError):
                handle.score((bad, "a"))
            with pytest.raises(EncodeError):
                handle.score_batch([(1.0, "a"), (bad, "a")])
            assert handle.score((1.0, "a")) == 0.1  # the worker's first request
        finally:
            handle.close()

    def test_malformed_reply(self):
        handle = external_model(f"proc:{sys.executable} -u -c 'print(\"nonsense\")'")
        try:
            with pytest.raises(ModelIOError):
                handle.score((1.0,))
        finally:
            handle.close()

    def test_wrong_score_count(self):
        body = r"""
import json, sys
for line in sys.stdin:
    print(json.dumps({"scores": [0.5]}), flush=True)
"""
        handle = external_model(worker_spec(body))
        try:
            with pytest.raises(ModelIOError):
                handle.score_batch([(1.0,), (2.0,)])
        finally:
            handle.close()

    def test_out_of_range_score(self):
        body = r"""
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"scores": [1.5] * len(req["instances"])}), flush=True)
"""
        handle = external_model(worker_spec(body))
        try:
            with pytest.raises(ModelIOError):
                handle.score((1.0,))
        finally:
            handle.close()

    @pytest.mark.parametrize("name", sorted(UNREADABLE_SCORES))
    def test_unreadable_reply(self, name):
        score, message = UNREADABLE_SCORES[name]
        handle = external_model(replying_worker(score))
        try:
            with pytest.raises(ModelIOError, match=r"(?s)^worker '.*" + re.escape(message)):
                handle.score((1.0,))
        finally:
            handle.close()

    def test_dead_worker(self):
        handle = external_model(f"proc:{sys.executable} -c 'pass'")
        try:
            with pytest.raises(ModelIOError):
                handle.score((1.0,))
        finally:
            handle.close()

    def test_close_kills_worker_that_ignores_end_of_input(self):
        stubborn = r"""
import json, sys, time
sys.stdin.readline()
print(json.dumps({"scores": [0.5]}), flush=True)
time.sleep(60)
"""
        handle = external_model(worker_spec(stubborn))
        assert handle.score((1.0,)) == 0.5
        proc = handle.transport._proc
        handle.close()  # waits 5 s for the worker, then kills it
        assert proc.returncode == -signal.SIGKILL

    def test_exited_worker_is_reaped_when_replaced(self):
        once = r"""
import json, sys
req = json.loads(sys.stdin.readline())
print(json.dumps({"scores": [0.5] * len(req["instances"])}), flush=True)
"""
        handle = external_model(worker_spec(once))
        try:
            assert handle.score((1.0,)) == 0.5
            first = handle.transport._proc
            # wait for the worker to exit, leaving it for the transport to reap
            os.waitid(os.P_PID, first.pid, os.WEXITED | os.WNOWAIT)
            assert handle.score((2.0,)) == 0.5
            assert handle.transport._proc is not first
            assert first.stdin.closed and first.stdout.closed
            assert first.returncode == 0
        finally:
            handle.close()

    def test_missing_command(self):
        with pytest.raises(ConfigError):
            external_model("proc:   ")


class _Scorer(BaseHTTPRequestHandler):
    mode = "ok"
    score = b""  # every instance's raw score in "score" mode

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        req = json.loads(self.rfile.read(length))
        if self.mode == "error":
            self.send_response(500)
            self.end_headers()
            return
        if self.mode == "garbage":
            body = b"not json"
        elif self.mode == "score":
            zeros = json.dumps({"scores": [0] * len(req["instances"])}).encode()
            body = zeros.replace(b"0", self.score)
        else:
            scores = [0.25] * len(req["instances"])
            body = json.dumps({"scores": scores}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_scorer():
    server = HTTPServer(("127.0.0.1", 0), _Scorer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Scorer.mode = "ok"
    yield f"127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


# Replies that http.client cannot read: a status line that is not HTTP
# (BadStatusLine) and a body shorter than its declared length (IncompleteRead).
MALFORMED_REPLIES = {
    "bad-status-line": b"garbage\r\n\r\n",
    "short-body": b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + b'{"scores": [0.5',
}


def _read_request(conn):
    """Read one HTTP request, headers and body, so closing sends no reset."""
    data = b""
    while b"\r\n\r\n" not in data:
        data += conn.recv(65536)
    head, body = data.split(b"\r\n\r\n", 1)
    length = int(re.search(rb"(?i)content-length: *(\d+)", head).group(1))
    while len(body) < length:
        body += conn.recv(65536)


@contextmanager
def raw_http_server(reply: bytes):
    """Answer every request with the bytes ``reply`` and close; yields ``host:port/``."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                _read_request(conn)
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}/"
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()


class TestHttp:
    @pytest.mark.parametrize("name", sorted(MALFORMED_REPLIES))
    def test_malformed_reply(self, name):
        with raw_http_server(MALFORMED_REPLIES[name]) as address:
            handle = external_model(f"http:{address}")
            with pytest.raises(ModelIOError, match=rf"^endpoint http://{re.escape(address)}: "):
                handle.score((1.0,))

    def test_scores_instances(self, http_scorer):
        handle = external_model(f"http:{http_scorer}")
        assert handle.score((1.0, "x")) == 0.25

    def test_full_url_forms(self, http_scorer):
        for spec in (f"http://{http_scorer}", f"http:http://{http_scorer}"):
            handle = external_model(spec)
            assert handle.score((1.0,)) == 0.25

    def test_server_error(self, http_scorer):
        _Scorer.mode = "error"
        handle = external_model(f"http:{http_scorer}")
        with pytest.raises(ModelIOError):
            handle.score((1.0,))

    def test_garbage_body(self, http_scorer):
        _Scorer.mode = "garbage"
        handle = external_model(f"http:{http_scorer}")
        with pytest.raises(ModelIOError):
            handle.score((1.0,))

    # A body that is not UTF-8 was already a ModelIOError here: the decode sits in the try.
    @pytest.mark.parametrize("name", ["int-over-4300-digits", "int-over-float-range",
                                      "nested-10000-deep"])
    def test_unreadable_reply(self, http_scorer, name):
        _Scorer.mode = "score"
        _Scorer.score, message = UNREADABLE_SCORES[name]
        handle = external_model(f"http:{http_scorer}")
        with pytest.raises(ModelIOError, match=r"^endpoint \S*: " + re.escape(message)):
            handle.score((1.0,))

    def test_unreachable_endpoint(self):
        handle = external_model("http:127.0.0.1:1")
        with pytest.raises(ModelIOError):
            handle.score((1.0,))

    def test_empty_url(self):
        with pytest.raises(ConfigError):
            external_model("http:")


def test_unknown_scheme():
    with pytest.raises(ConfigError):
        external_model("carrier-pigeon:coop")


class RecordingTransport:
    def __init__(self):
        self.payloads = []

    def request(self, payload, expected):
        self.payloads.append(json.dumps(payload))
        return np.full(expected, 0.5)

    def close(self):
        pass


def test_negative_zero_sent_as_zero():
    transport = RecordingTransport()
    ExternalHandle(transport).score((-0.0, "a"))
    assert transport.payloads == ['{"instances": [[0.0, "a"]]}']
