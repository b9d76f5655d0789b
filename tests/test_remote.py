import base64
import io
import json
import os
import socket
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from http.client import HTTPException, HTTPResponse
from pathlib import Path
from types import SimpleNamespace

import pytest

from varr.config import (
    ENV_SCORER_TIMEOUT_MS,
    ENV_SCORER_URL,
    MAX_TIMEOUT_MS,
    RunConfig,
    load_run_config,
)
from varr.corpus import load_corpus
from varr.errors import ConfigurationError, ProtocolError, TransportError
from varr.schedule import ReductionAborted, run_reduction
from varr.scorer import (
    DEFAULT_TIMEOUT_MS,
    MAX_CONNECTING,
    LogLikelihood,
    PromptAssembly,
    RemoteScorer,
    ScorerHandle,
    TabularScorer,
    _MalformedResponse,
    _read_reply,
    _read_status,
    assemble_prompt,
    build_vocabulary,
    corpus_view,
    fit_tabular_scorer,
)
from varr.seeding import child_rng

from .conftest import FIXTURE_CORPUS
from .mockserver import (
    ConnectProxy,
    MockScorerServer,
    ScriptedReplyServer,
    completion_reply,
    corpus_score,
)

ROOT = Path(__file__).resolve().parent.parent
# self-signed certificate for IP:127.0.0.1, valid until 2126, with its key
LOOPBACK_PEM = str(ROOT / "tests" / "data" / "loopback.pem")
REFUSING = "http://127.0.0.1:9"
ASSEMBLY = PromptAssembly("the question", ("one unit", "two units"))
ASSEMBLY_A1 = PromptAssembly("what is job a1", ("start with k1 now",))


OPENED: list[RemoteScorer] = []


def remote(url, **kwargs):
    kwargs.setdefault("backoff_seconds", 0.001)
    kwargs.setdefault("timeout_ms", 2000)
    OPENED.append(RemoteScorer(base_url=url, **kwargs))
    return OPENED[-1]


@pytest.fixture(autouse=True)
def close_remote_scorers():
    """Close the connections of every scorer a test made with remote()."""
    yield
    while OPENED:
        OPENED.pop().close()


def test_roundtrip_prompt_completion():
    with MockScorerServer() as server:
        scorer = remote(server.url)
        got = scorer.score_answer(ASSEMBLY, "a b c")
        [(sock, _)] = scorer._idle
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    assert got.per_token == (-0.5, -0.5, -0.5)
    assert got.total == -1.5
    body = server.requests[0]["body"]
    assert body["prompt"] == "the question one unit two units"
    assert body["completion"] == "a b c"
    assert body["model"] == "default"
    assert server.requests[0]["path"] == "/v1/score"


@pytest.mark.parametrize("status", [429, 500, 503])
def test_retries_then_succeeds(status):
    with MockScorerServer(status_script=[status, status]) as server:
        scorer = remote(server.url, max_attempts=3)
        got = scorer.score_answer(ASSEMBLY, "a")
    assert got.total == -0.5
    assert len(server.requests) == 3


def test_exhausted_retries_surface_attempt_count():
    with MockScorerServer(status_script=[500] * 10) as server:
        scorer = remote(server.url, max_attempts=3)
        with pytest.raises(TransportError) as exc:
            scorer.score_answer(ASSEMBLY, "a")
        assert str(exc.value).endswith(" (after 3 attempt(s))")
        assert len(server.requests) == 3


class RecordingJitter:
    """Stands in for a scorer's jitter source: records each ``uniform``
    call's bounds and draws their midpoint."""

    def __init__(self):
        self.bounds = []

    def uniform(self, lo, hi):
        self.bounds.append((lo, hi))
        return (lo + hi) / 2


def recording_retry_waits(monkeypatch):
    """The jitter every scorer made from now on draws from, and the list of
    its sleeps."""
    jitter, sleeps = RecordingJitter(), []
    monkeypatch.setattr("varr.scorer.random", SimpleNamespace(Random=lambda: jitter))
    monkeypatch.setattr("varr.scorer.time", SimpleNamespace(sleep=sleeps.append))
    return jitter, sleeps


@pytest.mark.parametrize("max_attempts", [1, 2, 4])
def test_exhausted_retries_sleep_between_attempts_only(monkeypatch, max_attempts):
    jitter, sleeps = recording_retry_waits(monkeypatch)
    with MockScorerServer(status_script=[503] * 10) as server:
        scorer = remote(server.url, max_attempts=max_attempts)
        with pytest.raises(TransportError):
            scorer.score_answer(ASSEMBLY, "a")
        assert len(server.requests) == max_attempts
    # no sleep after the last attempt: the failure is raised at once
    assert len(sleeps) == len(jitter.bounds) == max_attempts - 1


def test_retry_ceilings_double_up_to_the_timeout_for_any_attempt_count(monkeypatch):
    # uncapped, the 11th ceiling is 102.4 s, and the 1,025th overflows a float
    jitter, sleeps = recording_retry_waits(monkeypatch)
    scorer = remote(REFUSING, max_attempts=1100, backoff_seconds=0.1, timeout_ms=1000)
    with pytest.raises(TransportError) as exc:
        scorer.score_answer(ASSEMBLY, "a")
    assert str(exc.value).endswith(" (after 1100 attempt(s))")
    # in exact arithmetic: doubling a float is exact, so the n-th ceiling is
    # 0.1's float value times 2^(n-1) until the 1 s timeout caps it
    assert [(lo, Fraction(hi)) for lo, hi in jitter.bounds] == [
        (0, min(Fraction(0.1) * 2 ** (n - 1), Fraction(1))) for n in range(1, 1100)]
    assert [hi for _, hi in jitter.bounds[:6]] == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]
    assert len(sleeps) == 1099


def test_non_retryable_status_fails_fast():
    with MockScorerServer(status_script=[404]) as server:
        scorer = remote(server.url, max_attempts=3)
        with pytest.raises(ProtocolError):
            scorer.score_answer(ASSEMBLY, "a")
        assert len(server.requests) == 1


def test_connection_refused_counts_attempts():
    scorer = remote("http://127.0.0.1:9", max_attempts=2, timeout_ms=200)
    with pytest.raises(TransportError) as exc:
        scorer.score_answer(ASSEMBLY, "a")
    assert str(exc.value).endswith(" (after 2 attempt(s))")


def test_malformed_response_is_protocol_error():
    with MockScorerServer(malformed=True) as server:
        scorer = remote(server.url)
        with pytest.raises(ProtocolError):
            scorer.score_answer(ASSEMBLY, "a")


REMOTE = {"scorer_backend": "remote"}


def test_env_var_configuration(monkeypatch, tmp_path):
    with MockScorerServer() as server:
        monkeypatch.setenv(ENV_SCORER_URL, server.url)
        monkeypatch.setenv(ENV_SCORER_TIMEOUT_MS, "1500")
        cfg = load_run_config(None, REMOTE)
        assert (cfg.scorer_url, cfg.timeout_ms) == (server.url, 1500)
        scorer = cfg.build_scorer()
        assert scorer.timeout_seconds == 1.5
        assert scorer.score_answer(ASSEMBLY, "x y").total == -1.0
        scorer.close()
    # the config file and the flags set what they name; the variables fill the rest
    config = tmp_path / "run.json"
    config.write_text('{"scorer": {"url": "http://127.0.0.1:9"}}')
    cfg = load_run_config(config, REMOTE)
    assert (cfg.scorer_url, cfg.timeout_ms) == (REFUSING, 1500)
    cfg = load_run_config(None, {**REMOTE, "scorer_url": REFUSING, "timeout_ms": 20})
    assert (cfg.scorer_url, cfg.timeout_ms) == (REFUSING, 20)
    # a tabular run reads neither variable
    cfg = load_run_config(None, {})
    assert (cfg.scorer_url, cfg.timeout_ms) == (None, None)


def test_unparsable_timeout_variable_is_a_configuration_error(monkeypatch):
    monkeypatch.setenv(ENV_SCORER_TIMEOUT_MS, "abc")
    with pytest.raises(ConfigurationError, match=f"{ENV_SCORER_TIMEOUT_MS}='abc'"):
        load_run_config(None, {**REMOTE, "scorer_url": REFUSING})
    assert load_run_config(None, {**REMOTE, "timeout_ms": 5}).timeout_ms == 5
    assert load_run_config(None, {}).timeout_ms is None
    monkeypatch.setenv(ENV_SCORER_TIMEOUT_MS, "0")
    with pytest.raises(ConfigurationError, match="timeout_ms must be >= 1, got 0"):
        load_run_config(None, REMOTE)
    monkeypatch.setenv(ENV_SCORER_TIMEOUT_MS, str(MAX_TIMEOUT_MS + 1))
    with pytest.raises(ConfigurationError, match=f"timeout_ms must be <= {MAX_TIMEOUT_MS}"):
        load_run_config(None, REMOTE)


def test_largest_timeout_is_one_a_socket_takes():
    # a socket refuses a timeout beyond the platform's time_t with an
    # OverflowError, which the ceiling keeps from the first request
    with MockScorerServer() as server:
        scorer = remote(server.url, timeout_ms=MAX_TIMEOUT_MS)
        assert scorer.score_answer(ASSEMBLY, "a").total < 0
        scorer.close()


def test_url_with_a_space_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="space"):
        RemoteScorer("http://127.0.0.1:9/a b")


def test_missing_url_is_configuration_error(monkeypatch):
    monkeypatch.setenv(ENV_SCORER_URL, REFUSING)  # read by load_run_config, not here
    with pytest.raises(ConfigurationError, match="needs a base URL"):
        RemoteScorer()


@pytest.mark.parametrize("setting", [{"max_attempts": 0}, {"in_flight": 0}, {"timeout_ms": 0}],
                         ids=["max_attempts", "in_flight", "timeout_ms"])
def test_remote_settings_below_one_are_configuration_errors(setting):
    with pytest.raises(ConfigurationError, match=next(iter(setting))):
        RunConfig(scorer_backend="remote", scorer_url=REFUSING, **setting)


def test_remote_settings_hold_the_timeout_the_scorer_uses():
    settings = RunConfig(scorer_backend="remote", scorer_url=REFUSING)
    assert settings.recorded("execution")["timeout_ms"] == DEFAULT_TIMEOUT_MS
    scorer = settings.build_scorer()
    assert scorer.timeout_seconds == DEFAULT_TIMEOUT_MS / 1000
    scorer.close()
    assert RunConfig(timeout_ms=None).timeout_ms is None  # a tabular run has none


@pytest.fixture
def environment(monkeypatch, tmp_path):
    """monkeypatch, with no proxy, CA bundle or netrc setting in effect."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NETRC", str(tmp_path / "no-netrc"))
    return monkeypatch


def test_environment_settings_read_once(environment):
    with MockScorerServer() as server:
        direct = remote(server.url)
        # a proxy that refuses connections, set after the scorer was built
        environment.setenv("HTTP_PROXY", REFUSING)
        assert direct.score_answer(ASSEMBLY, "a").total == -0.5
        proxied = remote(server.url, max_attempts=1)
        with pytest.raises(TransportError):
            proxied.score_answer(ASSEMBLY, "a")
        direct.close()
        proxied.close()
    assert len(server.requests) == 1


@pytest.mark.parametrize("certfile, settings, reached", [
    (None, {"HTTP_PROXY": REFUSING}, False),
    (None, {"http_proxy": REFUSING}, False),
    (None, {"ALL_PROXY": REFUSING}, False),
    (None, {"HTTPS_PROXY": REFUSING}, True),
    (None, {"HTTP_PROXY": REFUSING, "NO_PROXY": "127.0.0.1"}, True),
    (None, {"HTTP_PROXY": REFUSING, "NO_PROXY": "*"}, True),
    (None, {"ALL_PROXY": REFUSING, "no_proxy": "10.0.0.0/8, 127.0.0.0/8"}, True),
    (None, {"HTTP_PROXY": REFUSING, "NO_PROXY": "10.0.0.0/8"}, False),
    (LOOPBACK_PEM, {}, False),
    (LOOPBACK_PEM, {"REQUESTS_CA_BUNDLE": LOOPBACK_PEM}, True),
    (LOOPBACK_PEM, {"CURL_CA_BUNDLE": LOOPBACK_PEM}, True),
    (LOOPBACK_PEM, {"REQUESTS_CA_BUNDLE": LOOPBACK_PEM, "HTTP_PROXY": REFUSING}, True),
    (LOOPBACK_PEM, {"REQUESTS_CA_BUNDLE": LOOPBACK_PEM, "HTTPS_PROXY": REFUSING}, False),
], ids=["HTTP_PROXY", "http_proxy", "ALL_PROXY", "HTTPS_PROXY-for-http",
        "NO_PROXY-host", "NO_PROXY-star", "no_proxy-cidr", "NO_PROXY-other-cidr",
        "https-default-ca", "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE",
        "HTTP_PROXY-for-https", "HTTPS_PROXY"])
def test_proxy_and_ca_environment(environment, certfile, settings, reached):
    for name, value in settings.items():
        environment.setenv(name, value)
    with MockScorerServer(certfile=certfile) as server:
        scorer = remote(server.url, max_attempts=1)
        if reached:
            assert scorer.score_answer(ASSEMBLY, "a").total == -0.5
        else:
            with pytest.raises(TransportError):
                scorer.score_answer(ASSEMBLY, "a")
    assert len(server.requests) == int(reached)


def test_http_proxy_is_asked_for_the_absolute_url(environment):
    with MockScorerServer() as target, MockScorerServer() as proxy:
        environment.setenv("HTTP_PROXY", proxy.url)
        scorer = remote(target.url + "/api", max_attempts=1)
        with pytest.raises(ProtocolError):  # the mock proxy answers 404
            scorer.score_answer(ASSEMBLY, "a")
    assert target.requests == []
    [sent] = proxy.requests
    assert sent["path"] == target.url + "/api/v1/score"
    assert sent["headers"]["Host"] == target.url.removeprefix("http://")


def test_netrc_login_is_sent_as_basic_auth(environment, tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login ann password s3cret\n")
    with MockScorerServer() as server:
        anonymous = remote(server.url)
        environment.setenv("NETRC", str(netrc))
        authorized = remote(server.url)
        anonymous.score_answer(ASSEMBLY, "a")
        authorized.score_answer(ASSEMBLY, "a")
    assert "Authorization" not in server.requests[0]["headers"]
    assert server.requests[1]["headers"]["Authorization"] == (
        "Basic " + base64.b64encode(b"ann:s3cret").decode())


def test_connection_closed_by_an_idle_server_is_replaced():
    with MockScorerServer(close_after_reply=True) as server:
        scorer = remote(server.url, max_attempts=1)
        for n in range(1, 6):
            assert scorer.score_answer(ASSEMBLY, " ".join("a" * n)).total == -0.5 * n
        assert len(server.requests) == len(server.connections()) == 5


# --- replies the mock server never sends -----------------------------------

def http(status_line: str, *fields: str, body: bytes = b"") -> bytes:
    """A reply: status line, header fields, blank line, body."""
    return "".join(f"{line}\r\n" for line in (status_line, *fields, "")).encode() + body


AB = completion_reply({"completion": "a b"})
SIZED = f"Content-Length: {len(AB)}"
CHUNKED = b"5;name=value\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Checksum: 1\r\n\r\n" % (
    AB[:5], len(AB) - 5, AB[5:])


@pytest.mark.parametrize("reply, close, connections", [
    (http("HTTP/1.1 200 OK", "Transfer-Encoding: chunked", body=CHUNKED), False, [1, 1]),
    (http("HTTP/1.0 200 OK", body=AB), True, [1, 2]),
    (http("HTTP/1.1 200 OK", "Connection: close", SIZED, body=AB), False, [1, 2]),
    (http("HTTP/1.0 200 OK", "Connection: keep-alive", SIZED, body=AB), False, [1, 1]),
    (http("HTTP/1.0 200 OK", SIZED, body=AB), False, [1, 2]),
    (http("HTTP/1.1 100 Continue") + http("HTTP/1.1 200 OK", SIZED, body=AB), False, [1, 1]),
], ids=["chunked-extension-trailer", "http10-close-delimited", "connection-close",
        "http10-keep-alive", "http10-sized", "100-continue"])
def test_reply_framing_and_connection_reuse(reply, close, connections):
    # the server keeps the connection open unless told to close, so a second
    # request on a new connection shows that the client chose not to reuse it
    with ScriptedReplyServer([(reply, close)]) as server:
        scorer = remote(server.url, max_attempts=1)
        assert scorer.score_answer(ASSEMBLY, "a b").total == -1.0
        assert len(scorer._idle) == (connections == [1, 1])
        assert scorer.score_answer(ASSEMBLY, "c").total == -0.5
        scorer.close()
    assert server.connections() == connections


@pytest.mark.parametrize("reply", [
    http("HTTQ/1.1 200 OK", SIZED, body=AB),
    http("HTTP/1.1 20 OK", SIZED, body=AB),
    http("HTTP/1.1 200 OK", "Content-Length: 100", body=AB),
    http("HTTP/1.1 200 OK", "Transfer-Encoding: chunked", body=CHUNKED[:20]),
    http("HTTP/1.1 200 OK", "Transfer-Encoding: chunked", body=b"zz\r\n" + CHUNKED),
    http("HTTP/1.1 200 OK", "X-Long: " + "a" * 65536, SIZED, body=AB),
    http("HTTP/1.1 200 OK", *["X-Many: 1"] * 100, SIZED, body=AB),
    http("HTTP/1.1 200 OK", "Content-Length: 1e3", body=AB),
], ids=["bad-version", "bad-status", "body-cut-short", "chunk-cut-short", "bad-chunk-size",
        "over-long-header-line", "too-many-headers", "bad-content-length"])
def test_broken_reply_is_a_retried_transport_failure(reply):
    # never a ProtocolError: a short body must not reach the JSON parser
    with ScriptedReplyServer([(reply, True)] * 2) as server:
        once = remote(server.url, max_attempts=1)
        with pytest.raises(TransportError, match="transport failure") as exc:
            once.score_answer(ASSEMBLY, "a b")
        assert str(exc.value).endswith(" (after 1 attempt(s))")
        twice = remote(server.url, max_attempts=2)
        assert twice.score_answer(ASSEMBLY, "a b").total == -1.0
        once.close()
        twice.close()
    assert server.connections() == [1, 2, 3]


class BytesSocket:
    """Just enough of a socket for http.client.HTTPResponse to read a reply."""

    def __init__(self, data: bytes):
        self.data = data

    def makefile(self, mode):
        return io.BytesIO(self.data)


def varr_reads(reply: bytes):
    """(status, body) and reuse as varr's reader takes the reply; (None, None)
    if it fails."""
    reader = io.BytesIO(reply)
    try:
        status, body, keep = _read_reply(reader, *_read_status(reader))
    except (_MalformedResponse, ConnectionError):
        return None, None
    return (status, body), keep


def http_client_reads(reply: bytes):
    """varr_reads, by http.client, which varr does not import."""
    response = HTTPResponse(BytesSocket(reply))
    try:
        response.begin()
        return (response.status, response.read()), not response.will_close
    except (HTTPException, ConnectionError):
        return None, None


CHUNKED_OK = b"2\r\nok\r\n0\r\n\r\n"


# (reply, varr's outcome, how http.client differs: "" for not at all,
# "reuse" where only the reuse rule differs, "framing" where the body does)
@pytest.mark.parametrize("reply, want, differs", [
    (http("HTTP/1.1 200 OK", "Content-Length: 2", body=b"ok"), ((200, b"ok"), True), ""),
    (http("HTTP/1.1 200 OK", "Transfer-Encoding: chunked", body=CHUNKED_OK),
     ((200, b"ok"), True), ""),
    (http("HTTP/1.0 200 OK", body=b"ok"), ((200, b"ok"), False), ""),
    # RFC 9110 section 5.3: repeated lines of a field are one list, so
    # "close, keep-alive" closes; http.client reads only the first line
    (http("HTTP/1.1 200 OK", "Connection: close", "Connection: keep-alive",
          "Content-Length: 2", body=b"ok"), ((200, b"ok"), False), ""),
    (http("HTTP/1.1 200 OK", "Connection: keep-alive", "Connection: close",
          "Content-Length: 2", body=b"ok"), ((200, b"ok"), False), "reuse"),
    # RFC 9112 section 6.3: differing lengths are a framing error, equal
    # ones are one length; http.client frames by the first line
    (http("HTTP/1.1 200 OK", "Content-Length: 2", "Content-Length: 5", body=b"hello"),
     (None, None), "framing"),
    (http("HTTP/1.1 200 OK", "Content-Length: 5", "Content-Length: 5", body=b"hello"),
     ((200, b"hello"), True), ""),
    # only HTTP/1.0 and HTTP/1.1; http.client takes any HTTP/1.x for 1.1
    (http("HTTP/2 200", "Content-Length: 2", body=b"ok"), (None, None), ""),
    (http("HTTP/1.2 200 OK", "Content-Length: 2", body=b"ok"), (None, None), "framing"),
    # RFC 9112 section 6.3: chunked framing wins, and a reply framed both
    # ways may be a smuggling attempt, so its connection is not reused
    (http("HTTP/1.1 200 OK", "Transfer-Encoding: chunked", "Content-Length: 9",
          body=CHUNKED_OK), ((200, b"ok"), False), "reuse"),
    # a 204 and a 304 have no body, and their connection is reused
    (http("HTTP/1.1 204 No Content"), ((204, b""), True), ""),
    (http("HTTP/1.1 304 Not Modified"), ((304, b""), True), ""),
    # a chunk must end in CRLF; http.client skips the two bytes unread
    (http("HTTP/1.1 200 OK", "Transfer-Encoding: chunked", body=b"2\r\nokXX0\r\n\r\n"),
     (None, None), "framing"),
], ids=["sized", "chunked", "http10-close-delimited", "connection-close-then-keep-alive",
        "connection-keep-alive-then-close", "differing-content-lengths",
        "equal-content-lengths", "http2-status-line", "http12-status-line",
        "chunked-and-content-length", "no-content", "not-modified",
        "chunk-not-ended-by-crlf"])
def test_reply_reader_agrees_with_http_client_except_where_named(reply, want, differs):
    got, oracle = varr_reads(reply), http_client_reads(reply)
    assert got == want
    if differs == "":
        assert oracle == want
    elif differs == "reuse":
        assert oracle[0] == want[0] and oracle[1] != want[1]
    else:
        assert oracle[0] != want[0]


def scored(body: bytes) -> bytes:
    return http("HTTP/1.1 200 OK", f"Content-Length: {len(body)}", body=body)


@pytest.mark.parametrize("body", [
    b'{"token_logprobs": [], "total_logprob": 0}',
    b'{"token_logprobs": "", "total_logprob": 0}',
    b'{"token_logprobs": [false], "total_logprob": 0}',
    b'{"token_logprobs": ["-0.5"], "total_logprob": -0.5}',
    b'{"token_logprobs": [-0.5], "total_logprob": "-0.5"}',
    b'{"token_logprobs": [-0.5], "total_logprob": true}',
    b'{"token_logprobs": {"a": -0.5}, "total_logprob": -0.5}',
    b'{"token_logprobs": [-1' + b"0" * 400 + b'], "total_logprob": -1e400}',
    b'{"token_logprobs": [-1.0, -0.5], "total_logprob": NaN}',
    b'{"token_logprobs": [-1.0, -0.5], "total_logprob": Infinity}',
    b'{"token_logprobs": [-1.0, -0.5], "total_logprob": -Infinity}',
    b'{"token_logprobs": [NaN, -0.5], "total_logprob": -0.5}',
    b'{"token_logprobs": [Infinity, -0.5], "total_logprob": -0.5}',
    b'{"token_logprobs": [-Infinity, -0.5], "total_logprob": -Infinity}',
    b'{"token_logprobs": [0.5, -1.0], "total_logprob": -0.5}',
    b'{"token_logprobs": [-1.0, 1e-12], "total_logprob": -0.999999999999}',
    b'{"token_logprobs": [-1.0, -0.5], "total_logprob": -1.5000000000016}',
    b'{"token_logprobs": [0.0, -0.0], "total_logprob": 1e-12}',
    b"[" * 200_000,
    b'{"token_logprobs": [-' + b"1" * 5000 + b'], "total_logprob": -1.0}',
], ids=["empty-list", "empty-string", "bool-term", "string-term", "string-total",
        "bool-total", "object", "int-too-large-for-a-float", "nan-total", "infinite-total",
        "minus-infinite-total", "nan-term", "infinite-term", "minus-infinite-term",
        "positive-term", "tiny-positive-term", "total-off-the-sum", "positive-total",
        "nested-too-deeply", "int-too-long-to-parse"])
def test_reply_that_scores_nothing_or_not_numbers_is_a_protocol_error(body):
    # an empty list would give the answer probability 1; bools and strings
    # are not numbers; a log-likelihood is finite and neither a term nor the
    # total is positive, even within the tolerance;
    # a total more than 1e-12 from the terms' sum (relative, absolute below
    # 1) is not theirs. json.loads reads NaN and Infinity, but refuses
    # arrays nested too deeply and integers too long to convert, and its
    # message for the integer advises a programmer, not a user. A
    # ProtocolError is not retried
    with ScriptedReplyServer([(scored(body), False)] * 2) as server:
        scorer = remote(server.url, max_attempts=2)
        with pytest.raises(ProtocolError, match="malformed scorer response") as info:
            scorer.score_answer(ASSEMBLY, "a b")
        scorer.close()
    assert "set_int_max_str_digits" not in str(info.value)
    assert server.connections() == [1]


def test_reply_with_int_terms_is_read():
    # JSON has one number type: -1 is a term as -1.0 is, whatever the length
    body = b'{"token_logprobs": [-1, -0.5, 0], "total_logprob": -1.5}'
    with ScriptedReplyServer([(scored(body), False)]) as server:
        scorer = remote(server.url, max_attempts=1)
        assert scorer.score_answer(ASSEMBLY, "a b") == LogLikelihood(-1.5, (-1.0, -0.5, 0.0))
        scorer.close()


def test_reply_total_within_the_tolerance_is_read():
    # 1e-12 off the sum, within 1e-12 relative to a total of 1.5; the
    # total-off-the-sum reply above is 1.6e-12 off
    body = b'{"token_logprobs": [-1.0, -0.5], "total_logprob": -1.500000000001}'
    with ScriptedReplyServer([(scored(body), False)]) as server:
        scorer = remote(server.url, max_attempts=1)
        assert scorer.score_answer(ASSEMBLY, "a b") == (-1.500000000001, (-1.0, -0.5))
        scorer.close()


def test_reply_with_the_header_limits_is_read():
    reply = http("HTTP/1.1 200 OK", "X-Long: " + "a" * 65525, *["X-Many: 1"] * 98,
                 SIZED, body=AB)
    with ScriptedReplyServer([(reply, False)]) as server:
        scorer = remote(server.url, max_attempts=1)
        assert scorer.score_answer(ASSEMBLY, "a b").total == -1.0
        scorer.close()


def test_reused_connection_closed_after_the_status_line_is_a_failed_attempt():
    # only a connection closed before any reply is replayed on a new one
    with ScriptedReplyServer([(None, False), (b"HTTP/1.1 200 OK\r\n", True)]) as server:
        scorer = remote(server.url, max_attempts=1)
        scorer.score_answer(ASSEMBLY, "a")
        with pytest.raises(TransportError) as exc:
            scorer.score_answer(ASSEMBLY, "a b")
        assert str(exc.value).endswith(" (after 1 attempt(s))")
        scorer.close()
    assert server.connections() == [1, 1]


def test_https_scorer_is_reached_through_a_connect_tunnel(environment):
    environment.setenv("REQUESTS_CA_BUNDLE", LOOPBACK_PEM)
    with MockScorerServer(certfile=LOOPBACK_PEM) as server, ConnectProxy() as proxy:
        environment.setenv("HTTPS_PROXY", proxy.url)
        scorer = remote(server.url, max_attempts=1)
        assert scorer.score_answer(ASSEMBLY, "a").total == -0.5
        assert scorer.score_answer(ASSEMBLY, "a b").total == -1.0
        scorer.close()
    assert proxy.tunnels == [server.url.removeprefix("https://")]
    assert len(server.requests) == 2


def test_refused_connect_tunnel_is_a_transport_error(environment):
    environment.setenv("REQUESTS_CA_BUNDLE", LOOPBACK_PEM)
    with MockScorerServer(certfile=LOOPBACK_PEM) as server, \
            ConnectProxy(refuse_status=403) as proxy:
        environment.setenv("HTTPS_PROXY", proxy.url)
        scorer = remote(server.url, max_attempts=1)
        with pytest.raises(TransportError, match="403"):
            scorer.score_answer(ASSEMBLY, "a")
    assert proxy.tunnels == [server.url.removeprefix("https://")]
    assert server.requests == []


def test_refresh_bumps_version_and_calls_back():
    with MockScorerServer() as server:
        scorer = remote(server.url)
        assert scorer.model_version == 1
        scorer.refresh([["a", "b"]])  # the remote model ignores the streams
        scorer.refresh()
    assert scorer.model_version == 3


def test_repeated_request_served_from_cache_until_refresh():
    with MockScorerServer() as server:
        scorer = remote(server.url)
        first = scorer.score_answer(ASSEMBLY, "a b")
        assert scorer.score_answer(ASSEMBLY, "a b") is first
        assert len(server.requests) == 1
        scorer.refresh()
        assert scorer.score_answer(ASSEMBLY, "a b").total == first.total
        assert len(server.requests) == 2
        assert len(scorer.cache) == 1  # the older version was purged
    assert scorer.cache.hits + scorer.cache.misses == 3  # one lookup per logical call


def test_memo_key_is_the_whole_prompt():
    # the tabular memo keys on the last prompt token; the remote one must not
    same_tail = PromptAssembly("another question", ("units",))
    with MockScorerServer() as server:
        scorer = remote(server.url)
        scorer.score_answer(ASSEMBLY, "a")
        scorer.score_answer(same_tail, "a")
        scorer.score_answer(ASSEMBLY, "a")
    assert [r["body"]["prompt"] for r in server.requests] == [
        "the question one unit two units", "another question units",
    ]
    assert (scorer.cache.hits, scorer.cache.misses) == (1, 2)


def test_threads_share_idle_connections_without_a_lost_update():
    # more threads than cores, switching often: two threads on one
    # connection would garble its responses or open more than `threads`
    threads, calls = 8, 240
    interval = sys.getswitchinterval()
    with MockScorerServer() as server:
        scorer = remote(server.url, in_flight=threads, max_attempts=1)
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                totals = list(pool.map(
                    lambda n: scorer.score_answer(ASSEMBLY, "a " * (n % 4) + f"t{n}").total,
                    range(calls), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert totals == [-0.5 * (n % 4 + 1) for n in range(calls)]
        assert len(server.requests) == calls
        assert len(server.connections()) <= threads


# --- run_reduction against a server that scores with a fixed model ----------

class FixedTabularScorer(TabularScorer):
    """Tabular scorer fitted on the fixture corpus, whose refresh keeps the
    counts, like a fixed server."""

    def __init__(self):
        corpus = load_corpus(FIXTURE_CORPUS)
        super().__init__(build_vocabulary(corpus), streams=corpus_view(corpus))

    def refresh(self, streams=()) -> None:
        ScorerHandle.refresh(self)


def replace(settings: RunConfig, **changes) -> RunConfig:
    """``settings`` with ``changes``, built and checked by the constructor."""
    return RunConfig(**{**settings._asdict(), **changes})


SETTINGS = RunConfig(epochs=3, batch_size=8, warmup_ratio=0.0, candidate_order="random",
                     mode="varr_plus", seed=5, k_negatives=2, scorer_backend="remote")


def reduce_remote(server, in_flight, settings=SETTINGS):
    corpus = load_corpus(FIXTURE_CORPUS)
    scorer = remote(server.url, in_flight=in_flight)
    try:
        trace = run_reduction(corpus, scorer, settings)
    finally:
        scorer.close()
    return trace, corpus


def outcome(trace, corpus):
    return ([e._asdict() for e in trace.events], trace.scorer_call_count,
            {r.id: r.retained_indices() for r in corpus})


def test_concurrent_reduction_matches_serial_and_tabular():
    with MockScorerServer(score=corpus_score(FIXTURE_CORPUS)) as server:
        concurrent = [outcome(*reduce_remote(server, in_flight)) for in_flight in (4, 16)]
        serial = outcome(*reduce_remote(server, in_flight=1))
    corpus = load_corpus(FIXTURE_CORPUS)
    trace = run_reduction(corpus, FixedTabularScorer(),
                          replace(SETTINGS, scorer_backend="tabular"))
    assert serial[0]
    assert concurrent == [serial, serial]
    assert serial == outcome(trace, corpus)


def test_retry_delays_are_full_jitter_and_leave_the_trace_alone(monkeypatch):
    # statuses go to requests in arrival order: with one scan at a time the
    # first request is answered 503, 503, 200 and the second 503, 200
    jitter, delays = recording_retry_waits(monkeypatch)
    with MockScorerServer(score=corpus_score(FIXTURE_CORPUS),
                          status_script=[503, 503, 200, 503]) as server:
        retried = outcome(*reduce_remote(server, in_flight=1))
    with MockScorerServer(score=corpus_score(FIXTURE_CORPUS)) as server:
        clean = outcome(*reduce_remote(server, in_flight=1))
    caps = [0.001, 0.002, 0.001]  # remote()'s backoff_seconds, doubled per attempt
    # each delay is one uniform draw between 0 and the attempt's cap
    assert jitter.bounds == [(0, cap) for cap in caps]
    assert delays == [cap / 2 for cap in caps]
    assert retried == clean


@pytest.mark.parametrize("in_flight", [3, 16])
def test_in_flight_caps_requests_connections_and_new_connections(monkeypatch, in_flight):
    # a whole batch of scans at once against a server whose first reply on
    # each connection is slow, so connects pile up if nothing paces them
    settings = replace(SETTINGS, batch_size=16, k_negatives=4)
    workers = []
    score = RemoteScorer.score_answer

    def sampling(handle, assembly, answer):
        workers.append(sum(t.name.startswith("varr-") for t in threading.enumerate()))
        return score(handle, assembly, answer)

    monkeypatch.setattr(RemoteScorer, "score_answer", sampling)
    with MockScorerServer(score=corpus_score(FIXTURE_CORPUS), first_delay=0.05) as server:
        trace, _ = reduce_remote(server, in_flight, settings)
        peak = server.peak
    assert trace.scorer_call_count == len(workers)
    assert 1 <= peak["requests"] <= in_flight
    assert peak["connections"] <= in_flight
    assert 1 <= peak["connecting"] <= MAX_CONNECTING
    assert max(workers) <= in_flight
    assert not [t.name for t in threading.enumerate() if t.name.startswith("varr-")]


@pytest.mark.parametrize("announce", [False, True], ids=["silent-close", "announced-close"])
def test_server_closing_after_each_reply_still_gets_in_flight_requests(announce):
    # once the server has closed a connection after its reply, every request
    # opens one, so the new-connection guard is lifted: 16 callers at once,
    # whose replies the server holds until 16 requests are open, all get in
    records = load_corpus(FIXTURE_CORPUS)
    with MockScorerServer(score=corpus_score(FIXTURE_CORPUS), close_after_reply=True,
                          announce_close=announce) as server:
        scorer = remote(server.url, in_flight=16, timeout_ms=10_000)
        with ThreadPoolExecutor(16) as callers:
            # the first reply says it closes its connection, or else the
            # second request finds that connection closed
            for record in records[:2]:
                scorer.score_answer(PromptAssembly(record.question, ()), record.answer)
            server.hold_replies(16)
            list(callers.map(
                lambda r: scorer.score_answer(
                    PromptAssembly(r.question, tuple(u.text for u in r.rationale)), r.answer),
                records[:16]))
        scorer.close()
        peak = server.peak
    assert peak["requests"] == 16 > MAX_CONNECTING


def test_scans_of_later_batches_run_beside_the_first():
    # one record per batch, so only scans of different batches can overlap;
    # the server holds every reply until 4 requests are open at once
    settings = replace(SETTINGS, epochs=1, batch_size=1, mode="varr")
    with MockScorerServer(score=corpus_score(FIXTURE_CORPUS)) as server:
        server.hold_replies(4)
        reduce_remote(server, 4, settings)
        peak = server.peak
    assert peak["requests"] == 4


def test_cache_spares_requests_and_workers_keep_connections():
    with MockScorerServer(score=corpus_score(FIXTURE_CORPUS)) as server:
        scorer = remote(server.url, in_flight=4)
        try:
            # the second run's workers take the first run's idle connections
            calls = sum(
                run_reduction(load_corpus(FIXTURE_CORPUS), scorer, SETTINGS)
                .scorer_call_count
                for _ in range(2)
            )
        finally:
            scorer.close()
        requests, connections = len(server.requests), server.connections()
    assert 0 < requests < calls
    assert 1 <= len(connections) <= 4


# the failing record sits second in a batch whose budget allows two
# candidates, so an earlier record of its batch has events
MID_BATCH = replace(SETTINGS, epochs=1, candidate_order="front", mode="varr", seed=0)


def mid_batch_target():
    corpus = load_corpus(FIXTURE_CORPUS)
    order = list(range(len(corpus)))
    child_rng(MID_BATCH.seed, "batch-order", 1).shuffle(order)
    return corpus[order[9]]


def calls_behind(events):
    """The scorer calls that a trace's events account for: 2 per scored
    decision plus 2 per wrong answer it used."""
    return sum(0 if e["unconditional"] else 2 + 2 * e["k_used"] for e in events)


def partial_traces(fails):
    """Events and scorer call count of the aborted run, by in_flight."""
    partial = {}
    for in_flight in (1, 4, 16):
        with MockScorerServer(score=corpus_score(FIXTURE_CORPUS),
                              fail_prompt=fails) as server:
            with pytest.raises(ReductionAborted) as exc:
                reduce_remote(server, in_flight, MID_BATCH)
        assert isinstance(exc.value.cause, ProtocolError)
        trace = exc.value.trace
        partial[in_flight] = [e._asdict() for e in trace.events], trace.scorer_call_count
    assert partial[4] == partial[16] == partial[1]
    return partial[1]


def test_partial_trace_on_mid_batch_failure_is_serial():
    target = mid_batch_target()
    second, third = (u.text for u in target.rationale[1:3])

    def fails(prompt):
        # the reduced prompt of the second candidate, the second request of
        # its group: unit 1 gone, unit 2 kept
        return (prompt.startswith(target.question + " ")
                and second not in prompt and third in prompt)

    events, calls = partial_traces(fails)
    assert events[-1]["record_id"] == target.id
    assert any(e["record_id"] != target.id and e["t"] == events[-1]["t"]
               for e in events)
    # not the failing candidate's two calls, which have no event
    assert calls == calls_behind(events)


def test_partial_trace_counts_no_request_sent_beside_the_failing_one():
    target = mid_batch_target()
    full = " ".join((target.question, *(u.text for u in target.rationale)))

    def fails(prompt):
        # the full prompt of the first candidate: the failing record's first
        # request, while later scans of its batch have requests in flight
        return prompt == full

    events, calls = partial_traces(fails)
    assert events and all(e["record_id"] != target.id for e in events)
    assert events[-1]["t"] == 2  # the failing record's batch
    assert calls == calls_behind(events)


def test_partial_trace_on_failure_in_the_first_batch_is_serial():
    # the failing record is the last of the first batch, with budget 1, so
    # its scan is submitted after the larger-budget scans of later batches;
    # with a pool, its failing request is answered only once one of those
    # has sent a request
    settings = replace(MID_BATCH, seed=1)
    corpus = load_corpus(FIXTURE_CORPUS)
    order = list(range(len(corpus)))
    child_rng(settings.seed, "batch-order", 1).shuffle(order)
    target = corpus[order[settings.batch_size - 1]]
    full = " ".join((target.question, *(u.text for u in target.rationale)))
    later = tuple(corpus[i].question + " " for i in order[settings.batch_size:])
    partial = {}
    for in_flight in (1, 4, 16):
        later_sent = threading.Event()
        score = corpus_score(FIXTURE_CORPUS)

        def scoring(prompt, completion):
            if prompt.startswith(later):
                later_sent.set()
            return score(prompt, completion)

        def fails(prompt):
            if prompt == full and in_flight > 1:
                later_sent.wait(timeout=1)  # within remote()'s 2 s timeout
            return prompt == full

        with MockScorerServer(score=scoring, fail_prompt=fails) as server:
            with pytest.raises(ReductionAborted) as exc:
                reduce_remote(server, in_flight, settings)
        assert isinstance(exc.value.cause, ProtocolError)
        assert later_sent.is_set() == (in_flight > 1)
        trace = exc.value.trace
        partial[in_flight] = [e._asdict() for e in trace.events], trace.scorer_call_count
    events, calls = partial[1]
    assert events and all(e["t"] == 1 and e["record_id"] != target.id for e in events)
    assert calls == calls_behind(events)
    assert partial[4] == partial[16] == partial[1]


def test_corpus_score_is_the_fitted_tabular_scorer():
    corpus = load_corpus(FIXTURE_CORPUS)
    score = corpus_score(FIXTURE_CORPUS, 2.0)
    handle = fit_tabular_scorer(corpus, smoothing_alpha=2.0)
    for record in corpus:
        prompt = assemble_prompt(record, record.retained_indices())
        want = handle.score_answer(prompt, record.answer).per_token
        assert score(prompt.render(), record.answer) == list(want)
    assert score("what is job a1", "zebra") is None


def test_mockserver_records_a_failed_connection_instead_of_printing_it(capsys):
    # a traceback printed by the server thread would land in the stderr
    # that a test of a command reads
    with MockScorerServer() as server:
        host, port = server.url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(b"POST /v1/score HTTP/1.1\r\nContent-Length: 9\r\n\r\n{")
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1) == b""  # closed once the error is handled
    assert [type(error) for error in server.errors] == [json.JSONDecodeError]
    assert capsys.readouterr().err == ""


def test_mockserver_main_serves_the_corpus_model():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    server = subprocess.Popen(
        [sys.executable, "-m", "tests.mockserver", "--corpus", str(FIXTURE_CORPUS),
         "--port", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        url = server.stdout.readline().split()[-1].removesuffix("/v1/score")
        scorer = remote(url)
        got = scorer.score_answer(ASSEMBLY_A1, "ans1 done")
        scorer.close()
    finally:
        server.terminate()
        server.wait(timeout=10)
        server.stdout.close()
    local = fit_tabular_scorer(load_corpus(FIXTURE_CORPUS))
    assert got == local.score_answer(ASSEMBLY_A1, "ans1 done")
