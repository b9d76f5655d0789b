import base64
import os
import socket
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from varr.config import RunConfig
from varr.corpus import load_corpus
from varr.errors import ConfigurationError, ProtocolError, TransportError
from varr.schedule import ReductionAborted, run_reduction
from varr.scorer import (
    ENV_SCORER_TIMEOUT_MS,
    ENV_SCORER_URL,
    PromptAssembly,
    RemoteScorer,
    TabularScorer,
    assemble_prompt,
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
    model_score,
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
        assert exc.value.attempts == 3
        assert len(server.requests) == 3


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
    assert exc.value.attempts == 2


def test_malformed_response_is_protocol_error():
    with MockScorerServer(malformed=True) as server:
        scorer = remote(server.url)
        with pytest.raises(ProtocolError):
            scorer.score_answer(ASSEMBLY, "a")


def test_env_var_configuration(monkeypatch):
    with MockScorerServer() as server:
        monkeypatch.setenv(ENV_SCORER_URL, server.url)
        monkeypatch.setenv(ENV_SCORER_TIMEOUT_MS, "1500")
        scorer = RemoteScorer(backoff_seconds=0.001)
        assert scorer.base_url == server.url
        assert scorer.timeout_seconds == 1.5
        assert scorer.score_answer(ASSEMBLY, "x y").total == -1.0
        scorer.close()


def test_unparsable_timeout_variable_is_a_configuration_error(monkeypatch):
    monkeypatch.setenv(ENV_SCORER_TIMEOUT_MS, "abc")
    with pytest.raises(ConfigurationError, match=f"{ENV_SCORER_TIMEOUT_MS}='abc'"):
        RemoteScorer("http://127.0.0.1:9")


def test_url_with_a_space_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="space"):
        RemoteScorer("http://127.0.0.1:9/a b")


def test_missing_url_is_configuration_error(monkeypatch):
    monkeypatch.delenv(ENV_SCORER_URL, raising=False)
    with pytest.raises(ConfigurationError):
        RemoteScorer()


@pytest.mark.parametrize("setting", [{"max_attempts": 0}, {"in_flight": 0}, {"timeout_ms": 0}],
                         ids=["max_attempts", "in_flight", "timeout_ms"])
def test_remote_settings_below_one_are_configuration_errors(setting):
    with pytest.raises(ConfigurationError, match=next(iter(setting))):
        RemoteScorer("http://127.0.0.1:9", **setting)


def test_run_reduction_rejects_a_handle_of_another_backend():
    corpus = load_corpus(FIXTURE_CORPUS)
    with pytest.raises(ConfigurationError, match="remote"):
        run_reduction(corpus, fit_tabular_scorer(corpus), SETTINGS)
    assert all(u.removed_at is None for r in corpus for u in r.rationale)


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
        assert exc.value.attempts == 1
        twice = remote(server.url, max_attempts=2)
        assert twice.score_answer(ASSEMBLY, "a b").total == -1.0
        once.close()
        twice.close()
    assert server.connections() == [1, 2, 3]


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
        assert exc.value.attempts == 1
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
        scorer.refresh("view")
        scorer.refresh(None)
    assert scorer.model_version == 3


def test_repeated_request_served_from_cache_until_refresh():
    with MockScorerServer() as server:
        scorer = remote(server.url)
        first = scorer.score_answer(ASSEMBLY, "a b")
        assert scorer.score_answer(ASSEMBLY, "a b") is first
        assert len(server.requests) == 1
        scorer.refresh(None)
        assert scorer.score_answer(ASSEMBLY, "a b").total == first.total
        assert len(server.requests) == 2
        assert len(scorer.cache) == 1  # the older version was purged
    assert scorer.thread_calls() == 3


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
    """Tabular scorer whose refresh keeps the model, like a fixed server."""

    def refresh(self, corpus_view=None) -> None:
        self._next_version()


def fixed_model():
    return fit_tabular_scorer(load_corpus(FIXTURE_CORPUS)).model


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
    return ([asdict(e) for e in trace.events], trace.scorer_call_count,
            {r.id: r.retained_indices() for r in corpus.records})


def test_concurrent_reduction_matches_serial_and_tabular():
    model = fixed_model()
    with MockScorerServer(score=model_score(model)) as server:
        concurrent = outcome(*reduce_remote(server, in_flight=4))
        serial = outcome(*reduce_remote(server, in_flight=1))
    corpus = load_corpus(FIXTURE_CORPUS)
    trace = run_reduction(corpus, FixedTabularScorer(model),
                          replace(SETTINGS, scorer_backend="tabular"))
    assert concurrent[0]
    assert concurrent == serial == outcome(trace, corpus)


def test_cache_spares_requests_and_workers_keep_connections():
    with MockScorerServer(score=model_score(fixed_model())) as server:
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


def test_partial_trace_on_mid_batch_failure_is_serial():
    # the failing record sits second in a batch whose budget allows two
    # candidates, so both an earlier record and the failing one have events
    settings = replace(SETTINGS, epochs=1, candidate_order="front", mode="varr", seed=0)
    corpus = load_corpus(FIXTURE_CORPUS)
    order = list(range(len(corpus.records)))
    child_rng(settings.seed, "batch-order", 1).shuffle(order)
    target = corpus.records[order[9]]
    second, third = (u.text for u in target.rationale[1:3])

    def fails(prompt):
        # the reduced prompt of the second candidate: unit 1 gone, unit 2 kept
        return (prompt.startswith(target.question + " ")
                and second not in prompt and third in prompt)

    partial = {}
    for in_flight in (1, 4):
        with MockScorerServer(score=model_score(fixed_model()),
                              fail_prompt=fails) as server:
            with pytest.raises(ReductionAborted) as exc:
                reduce_remote(server, in_flight, settings)
        assert isinstance(exc.value.cause, ProtocolError)
        partial[in_flight] = [asdict(e) for e in exc.value.trace.events]
    events = partial[1]
    assert events[-1]["record_id"] == target.id
    assert any(e["record_id"] != target.id and e["t"] == events[-1]["t"]
               for e in events)
    assert partial[4] == events


def test_corpus_score_is_the_fitted_tabular_scorer():
    corpus = load_corpus(FIXTURE_CORPUS)
    score = corpus_score(FIXTURE_CORPUS, 2.0)
    handle = fit_tabular_scorer(corpus, smoothing_alpha=2.0)
    for record in corpus.records:
        prompt = assemble_prompt(record, record.retained_indices())
        want = handle.score_answer(prompt, record.answer).per_token
        assert score(prompt.render(), record.answer) == list(want)
    assert score("what is job a1", "zebra") is None


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
