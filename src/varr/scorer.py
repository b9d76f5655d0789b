"""Likelihood scoring of an answer given question + retained rationale.

Two backends sit behind one handle interface:

* tabular -- an order-1 bigram model with additive smoothing over a
  declared vocabulary and whitespace tokenization. Small enough to check
  against brute-force oracles, yet context-sensitive: removing the unit
  that precedes the answer changes the answer's conditional.
* remote -- POST /v1/score against an inference server:
  request  {"model": str, "prompt": str, "completion": str}
  response {"token_logprobs": [float, ...], "total_logprob": float}
  429 and 5xx responses and transport faults retry with exponential
  backoff; other statuses fail immediately. All values are natural-log.
  The driver scans up to ``in_flight`` records at once, so the client
  sends up to that many concurrent requests, over at most that many
  keep-alive connections; the server must accept that much concurrency
  and score deterministically per model version. Each request goes out
  in one write; a small HTTP/1.1 reader takes the reply (Content-Length,
  chunked or close-delimited, interim 1xx skipped). Proxy, CA bundle and
  netrc settings are read from the environment once, when the scorer is
  built.

Everything stays in log space; probabilities are never materialized.
Scores are deterministic for a fixed model_version, which increases on
every refit/refresh and clears the cache, so it never serves stale
values. Both backends memoize on (model version, context, answer), where
the context is what the backend conditions on: the prompt's last
whitespace token for the tabular backend, the whole rendered prompt for
the remote one. Template separators are whitespace, so the tabular
backend reads that token straight off the assembly's last non-blank
unit (or its question) and never renders a prompt. A remote server may
therefore see fewer requests than the logical call count.

``config.RunConfig`` rejects an unknown template id and, for the tabular
backend, a smoothing alpha that is not a finite number > 0, before any
work; rendering a prompt is the one other place that looks a template up.
"""

from __future__ import annotations

import base64
import ipaddress
import json
import math
import netrc
import os
import socket
import ssl
import threading
import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO, Iterable, Sequence
from urllib.parse import urlsplit

from .corpus import Corpus, RationaleRecord
from .errors import (
    ConfigurationError,
    OutOfVocabularyError,
    ProtocolError,
    ScorerError,
    TransportError,
)

ENV_SCORER_URL = "VARR_SCORER_URL"
ENV_SCORER_TIMEOUT_MS = "VARR_SCORER_TIMEOUT_MS"
DEFAULT_TIMEOUT_MS = 10_000
RETRYABLE_STATUSES = frozenset({429}) | frozenset(range(500, 600))


@dataclass(frozen=True)
class LogLikelihood:
    """Natural-log likelihood of an answer, total plus per-token terms."""

    total: float
    per_token: tuple[float, ...]

    def __post_init__(self):
        for value in self.per_token:
            if not math.isfinite(value):
                raise ScorerError("non-finite per-token log-likelihood")
            if value > 0.0:
                raise ScorerError(f"positive log-likelihood term: {value!r}")
        checksum = sum(self.per_token)
        if abs(self.total - checksum) > 1e-12 * max(1.0, abs(self.total)):
            raise ScorerError(
                f"total {self.total!r} disagrees with per-token sum {checksum!r}"
            )

    @classmethod
    def from_per_token(cls, values: Iterable[float]) -> "LogLikelihood":
        values = tuple(float(v) for v in values)
        return cls(total=float(sum(values)), per_token=values)


# --- prompt assembly -------------------------------------------------------

# Template id -> the separator that joins the question and each retained
# unit. Separators are whitespace, so a rendered prompt's tokens are those
# of its parts.
TEMPLATES: dict[str, str] = {"plain-v1": " ", "newline-v1": "\n"}


def get_template(template_id: str) -> str:
    try:
        return TEMPLATES[template_id]
    except KeyError:
        raise ConfigurationError(f"unknown template_id {template_id!r}") from None


@dataclass(frozen=True)
class PromptAssembly:
    question: str
    retained_rationale: tuple[str, ...]
    template_id: str = "plain-v1"

    def render(self) -> str:
        return get_template(self.template_id).join((self.question, *self.retained_rationale))

    def without(self, position: int) -> "PromptAssembly":
        """This prompt with the retained unit at ``position`` left out."""
        units = self.retained_rationale
        return PromptAssembly(
            self.question, units[:position] + units[position + 1:], self.template_id
        )


def assemble_prompt(
    record: RationaleRecord,
    retained: Iterable[int],
    template_id: str = "plain-v1",
) -> PromptAssembly:
    """Question first, then the retained units in their original order."""
    wanted = set(retained)
    texts = tuple(u.text for u in record.rationale if u.index in wanted)
    if len(texts) != len(wanted):
        unknown = sorted(wanted - {u.index for u in record.rationale})
        raise ValueError(f"retained indices {unknown} not in record {record.id}")
    return PromptAssembly(record.question, texts, template_id)


# --- score cache -----------------------------------------------------------

class ScoreCache:
    """Concurrent map from (model_version, context, answer) to a score.

    Values are deterministic per version, so last-writer-wins races on
    identical keys are benign. The handle clears it when the version
    bumps.
    """

    def __init__(self):
        self._entries: dict[tuple[int, str, str], LogLikelihood] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple[int, str, str]) -> LogLikelihood | None:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def store(self, key: tuple[int, str, str], value: LogLikelihood) -> None:
        with self._lock:
            self._entries[key] = value

    def clear(self) -> None:
        with self._lock:
            self._entries = {}

    def __len__(self) -> int:
        return len(self._entries)


# --- tabular backend -------------------------------------------------------

class TabularModel:
    """Additively smoothed bigram counts over a declared vocabulary.

    p(w | v) = (count(v, w) + alpha) / (sum_w count(v, w) + alpha * V)

    Counts are sparse, keyed on (v, w) vocabulary index pairs.
    """

    def __init__(self, vocabulary: Sequence[str], smoothing_alpha: float = 1.0):
        if not vocabulary:
            raise ValueError("vocabulary must be non-empty")
        if len(set(vocabulary)) != len(vocabulary):
            raise ValueError("vocabulary contains duplicates")
        if smoothing_alpha <= 0:
            raise ValueError("smoothing_alpha must be positive")
        self.vocabulary = tuple(vocabulary)
        self.smoothing_alpha = float(smoothing_alpha)
        self._index = {symbol: i for i, symbol in enumerate(self.vocabulary)}
        self._set_counts(Counter())

    def _set_counts(self, counts: Counter) -> None:
        row_sums = [0] * self.vocab_size
        for (v, _), c in counts.items():
            row_sums[v] += c
        self._counts, self._row_sums = counts, row_sums

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    def count(self, v: int, w: int) -> int:
        """Bigram count of vocabulary indices (v, w)."""
        return self._counts[v, w]

    def total(self) -> int:
        """Number of bigrams counted."""
        return sum(self._row_sums)

    def symbol_index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise OutOfVocabularyError(symbol) from None

    def log_conditional(self, prev: str, nxt: str) -> float:
        v = self.symbol_index(prev)
        w = self.symbol_index(nxt)
        alpha = self.smoothing_alpha
        numer = self._counts[v, w] + alpha
        denom = self._row_sums[v] + alpha * self.vocab_size
        return math.log(numer / denom)

    def fit_streams(self, streams: Iterable[Sequence[str]]) -> None:
        """Rebuild counts from scratch over the given token streams."""
        counts: Counter = Counter()
        for stream in streams:
            ix = [self.symbol_index(tok) for tok in stream]
            counts.update(zip(ix, ix[1:]))
        self._set_counts(counts)


class ScorerHandle:
    """Abstract likelihood oracle. Subclasses define one backend each.

    ``score_answer`` counts the logical call, validates, reduces the
    prompt to the backend's context and consults the cache; a backend
    implements only ``_evaluate`` on a cache miss. ``in_flight`` is how
    many record scans the driver may run at once against this handle.
    Calls are counted per thread, so the driver can attribute them to the
    scan that issued them.
    """

    backend = "abstract"
    in_flight = 1

    def __init__(self):
        self.model_version = 1
        self._calls = threading.local()
        self.cache = ScoreCache()

    def thread_calls(self) -> int:
        """Logical calls issued so far by the calling thread."""
        return getattr(self._calls, "count", 0)

    def score_answer(self, assembly: PromptAssembly, answer: str) -> LogLikelihood:
        self._calls.count = self.thread_calls() + 1
        if not answer.strip():
            raise ScorerError("answer must be non-empty")
        context = self._context(assembly)
        key = (self.model_version, context, answer)
        cached = self.cache.lookup(key)
        if cached is not None:
            return cached
        result = self._evaluate(context, answer)
        self.cache.store(key, result)
        return result

    def _context(self, assembly: PromptAssembly) -> str:
        """What the backend conditions on: here, the rendered prompt."""
        return assembly.render()

    def _evaluate(self, context: str, answer: str) -> LogLikelihood:
        raise NotImplementedError

    def _next_version(self) -> None:
        self.model_version += 1
        self.cache.clear()

    def refresh(self, corpus_view=None) -> None:
        """Epoch-boundary hook; must bump model_version."""
        raise NotImplementedError

    def close(self) -> None:
        """Release connections; the handle must not be used afterwards."""


class TabularScorer(ScorerHandle):
    backend = "tabular"

    def __init__(self, model: TabularModel):
        super().__init__()
        self.model = model

    def _context(self, assembly: PromptAssembly) -> str:
        # An order-1 model sees only the token before the answer, the last
        # whitespace token of the rendered prompt; with whitespace
        # separators that is the last token of the last non-blank part.
        parts = chain(reversed(assembly.retained_rationale), (assembly.question,))
        for text in parts:
            tokens = text.rsplit(None, 1)
            if tokens:
                return tokens[-1]
        raise ScorerError("assembled context is empty; cannot condition")

    def _evaluate(self, context: str, answer: str) -> LogLikelihood:
        per_token = []
        prev = context
        for token in answer.split():
            per_token.append(self.model.log_conditional(prev, token))
            prev = token
        return LogLikelihood.from_per_token(per_token)

    def refresh(self, corpus_view=None) -> None:
        """Full reinitialization: recount bigrams over the view's streams.

        The view is a sequence of (context tokens, answer tokens) pairs, as
        ``corpus_view`` builds it. Bumps model_version, which clears the
        cache.
        """
        if not corpus_view:
            raise ScorerError("tabular refresh needs a corpus view to refit on")
        self.model.fit_streams(context + answer for context, answer in corpus_view)
        self._next_version()


# --- remote backend --------------------------------------------------------

def _bypasses_proxy(host: str, no_proxy: str) -> bool:
    """Whether no_proxy names ``*``, host, a domain of it or a CIDR network of it."""
    for entry in no_proxy.replace(" ", "").lower().split(","):
        try:
            if ipaddress.ip_address(host) in ipaddress.ip_network(entry, strict=False):
                return True
        except ValueError:
            if entry == "*" or (entry and f".{host}".endswith("." + entry.lstrip("."))):
                return True
    return False


# the line length and header count limits of http.client
_MAX_LINE = 65536
_MAX_HEADERS = 100

_Connection = tuple[socket.socket, BinaryIO]


class _MalformedResponse(Exception):
    """A reply that breaks HTTP/1.1 framing: a transport failure, as is a
    reply cut short by a close (a ConnectionResetError)."""


def _read_line(reader: BinaryIO) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _MalformedResponse(f"response line longer than {_MAX_LINE} bytes")
    return line


def _read_status(reader: BinaryIO) -> tuple[bytes, int]:
    """HTTP version and status code of the status line that starts a reply."""
    line = _read_line(reader)
    if not line:
        raise ConnectionResetError("connection closed before the status line")
    version, _, rest = line.partition(b" ")
    code = rest[:3]
    if not (version.startswith(b"HTTP/") and len(code) == 3 and code.isdigit()
            and code >= b"100" and not rest[3:4].strip()):
        raise _MalformedResponse(f"malformed status line {line[:80]!r}")
    return version, int(code)


def _read_headers(reader: BinaryIO) -> dict[bytes, bytes]:
    """Header fields up to the blank line, by lower-case name."""
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise ConnectionResetError("connection closed inside the response headers")
        name, _, value = line.partition(b":")
        headers[name.strip().lower()] = value.strip()
    raise _MalformedResponse(f"more than {_MAX_HEADERS} response headers")


def _read_exactly(reader: BinaryIO, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise ConnectionResetError(f"connection closed {len(data)} bytes into {size}")
    return data


def _read_chunked(reader: BinaryIO) -> bytes:
    chunks = []
    while True:
        line = _read_line(reader)
        try:
            size = int(line.partition(b";")[0], 16)  # drops chunk extensions
        except ValueError:
            size = -1
        if size < 0:
            raise _MalformedResponse(f"malformed chunk size line {line[:80]!r}")
        if size == 0:
            break
        chunk = _read_exactly(reader, size + 2)
        if chunk[size:] != b"\r\n":
            raise _MalformedResponse("chunk not ended by CRLF")
        chunks.append(chunk[:size])
    _read_headers(reader)  # the trailer
    return b"".join(chunks)


def _read_reply(reader: BinaryIO, version: bytes, status: int) -> tuple[int, bytes, bool]:
    """Status, body and reusability of the reply whose status line was read.

    Interim 1xx replies are skipped. The body is framed by chunked
    transfer coding, else by Content-Length, else by the end of the
    stream; a body cut short raises, and is never returned.
    """
    headers = _read_headers(reader)
    while status < 200:
        version, status = _read_status(reader)
        headers = _read_headers(reader)
    length = headers.get(b"content-length")
    if status in (204, 304):
        body = b""
    elif headers.get(b"transfer-encoding", b"").lower().endswith(b"chunked"):
        body = _read_chunked(reader)
    elif length is None:
        return status, reader.read(), False
    elif length.isdigit():
        body = _read_exactly(reader, int(length))
    else:
        raise _MalformedResponse(f"malformed Content-Length {length[:80]!r}")
    tokens = {token.strip() for token in headers.get(b"connection", b"").lower().split(b",")}
    keep = b"close" not in tokens if version == b"HTTP/1.1" else b"keep-alive" in tokens
    return status, body, keep


def _close(connection: _Connection) -> None:
    sock, reader = connection
    reader.close()
    sock.close()


def _environment_settings(url: str, timeout: float):
    """A connection factory and the request head up to the Content-Length
    value for url, from the proxy, CA bundle and netrc variables that the
    README lists, read as ``requests`` reads them."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigurationError(f"scorer URL {url!r} is not an http or https URL")
    if not all("!" <= c <= "~" for c in url):
        raise ConfigurationError(f"scorer URL {url!r} has a space, control or non-ASCII character")
    https = parts.scheme == "https"
    host, port = parts.hostname, parts.port or (443 if https else 80)
    address, target, tunnel = (host, port), parts.path, None
    headers = {"Host": parts.netloc.rpartition("@")[2], "Accept-Encoding": "identity",
               "Content-Type": "application/json"}
    try:
        login = netrc.netrc(os.path.expanduser(os.environ.get("NETRC") or "~/.netrc"))
        if entry := login.authenticators(host):
            user = f"{entry[0] or entry[1]}:{entry[2]}".encode("latin-1")
            headers["Authorization"] = "Basic " + base64.b64encode(user).decode()
    except (OSError, netrc.NetrcParseError):
        pass
    # a proxy variable by its lower-case name, else by its upper-case one
    env = {**{name.lower(): value for name, value in os.environ.items()}, **os.environ}
    proxy = env.get(f"{parts.scheme}_proxy") or env.get("all_proxy")
    if proxy and not _bypasses_proxy(host, env.get("no_proxy", "")):
        proxy = urlsplit(proxy if "://" in proxy else "http://" + proxy)
        address = (proxy.hostname, proxy.port or 80)
        # https goes through a CONNECT tunnel; http asks the proxy for the URL
        if https:
            tunnel = (f"[{host}]" if ":" in host else host) + f":{port}"
        else:
            target = url
    context = https and ssl.create_default_context(
        cafile=os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE"))
    head = f"POST {target} HTTP/1.1\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers.items()) + "Content-Length: "

    def connect() -> _Connection:
        sock = socket.create_connection(address, timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if tunnel:
                sock.sendall(f"CONNECT {tunnel} HTTP/1.1\r\nHost: {tunnel}\r\n\r\n".encode())
                with sock.makefile("rb") as reader:
                    _, status = _read_status(reader)
                    _read_headers(reader)
                if status != 200:
                    raise OSError(f"proxy refused the CONNECT tunnel with status {status}")
            if context:
                sock = context.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        return sock, sock.makefile("rb")
    return connect, head.encode("latin-1")


class RemoteScorer(ScorerHandle):
    backend = "remote"

    def __init__(
        self,
        base_url: str | None = None,
        model: str = "default",
        timeout_ms: int | None = None,
        max_attempts: int = 3,
        backoff_seconds: float = 0.1,
        in_flight: int = 4,
    ):
        super().__init__()
        base_url = base_url or os.environ.get(ENV_SCORER_URL)
        if not base_url:
            raise ConfigurationError(
                f"remote scorer needs a base URL (flag, config, or {ENV_SCORER_URL})"
            )
        if timeout_ms is None:
            setting = os.environ.get(ENV_SCORER_TIMEOUT_MS, str(DEFAULT_TIMEOUT_MS))
            try:
                timeout_ms = int(setting)
            except ValueError:
                raise ConfigurationError(
                    f"{ENV_SCORER_TIMEOUT_MS}={setting!r} is not a whole number of"
                    " milliseconds (timeout_ms)") from None
        if timeout_ms < 1:
            raise ConfigurationError("timeout_ms must be >= 1")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if in_flight < 1:
            raise ConfigurationError("in_flight must be >= 1")
        self.base_url = base_url.rstrip("/")
        self.url = self.base_url + "/v1/score"
        self.model = model
        self.timeout_seconds = timeout_ms / 1000.0
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        self.in_flight = in_flight
        self._connect, self._head = _environment_settings(self.url, self.timeout_seconds)
        # idle keep-alive connections; list.pop and list.append are atomic
        self._idle: list[_Connection] = []

    def _post(self, body: bytes, reuse: bool = True) -> tuple[int, bytes]:
        """Status and body of one attempt on an idle connection, else a new one,
        kept if the reply was read in full and allows reuse. A server may close
        an idle connection, so if a reused one fails with a ConnectionError
        before the status line arrives the request goes on a new one."""
        try:
            connection = self._idle.pop() if reuse else self._connect()
        except IndexError:
            connection, reuse = self._connect(), False
        sock, reader = connection
        started = None
        try:
            sock.sendall(b"%s%d\r\n\r\n%s" % (self._head, len(body), body))
            started = _read_status(reader)
            status, payload, keep = _read_reply(reader, *started)
        except BaseException as exc:
            _close(connection)
            if reuse and started is None and isinstance(exc, ConnectionError):
                return self._post(body, reuse=False)
            raise
        if keep:
            self._idle.append(connection)
        else:
            _close(connection)
        return status, payload

    def _evaluate(self, context: str, answer: str) -> LogLikelihood:
        body = json.dumps(
            {"model": self.model, "prompt": context, "completion": answer}).encode()
        attempts = 0
        failure = "no attempt made"
        while attempts < self.max_attempts:
            attempts += 1
            try:
                status, payload = self._post(body)
            except (OSError, _MalformedResponse) as exc:
                failure = f"transport failure: {exc}"
            else:
                if status == 200:
                    return self._parse_response(payload)
                if status not in RETRYABLE_STATUSES:
                    raise ProtocolError(f"scorer endpoint returned status {status}")
                failure = f"retryable status {status}"
            if attempts < self.max_attempts:
                time.sleep(self.backoff_seconds * (2 ** (attempts - 1)))
        raise TransportError(failure, attempts=attempts)

    def _parse_response(self, payload: bytes) -> LogLikelihood:
        try:
            body = json.loads(payload)
            per_token = tuple(float(v) for v in body["token_logprobs"])
            total = float(body["total_logprob"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed scorer response: {exc}") from exc
        try:
            return LogLikelihood(total=total, per_token=per_token)
        except ScorerError as exc:
            raise ProtocolError(f"inconsistent scorer response: {exc}") from exc

    def refresh(self, corpus_view=None) -> None:
        self._next_version()

    def close(self) -> None:
        idle, self._idle = self._idle, []
        for connection in idle:
            _close(connection)


# --- corpus-backed construction -------------------------------------------

def build_vocabulary(corpus: Corpus, extra_tokens: Iterable[str] = ()) -> tuple[str, ...]:
    """Sorted union of whitespace tokens over every text field."""
    symbols: set[str] = set(extra_tokens)
    for record in corpus.records:
        symbols.update(record.question.split())
        symbols.update(record.answer.split())
        for unit in record.rationale:
            symbols.update(unit.text.split())
        for wrong in record.wrong_answers:
            symbols.update(wrong.split())
    if not symbols:
        raise ValueError("corpus yields an empty vocabulary")
    return tuple(sorted(symbols))


def corpus_view(corpus: Corpus) -> list[tuple[list[str], list[str]]]:
    """(context tokens, answer tokens) per record, using retained units.

    The context tokens are the question's, then each retained unit's:
    those of the rendered prompt under any template, whose separators
    are whitespace.
    """
    view = []
    for record in corpus.records:
        context = record.question.split()
        for unit in record.rationale:
            if unit.removed_at is None:
                context.extend(unit.text.split())
        view.append((context, record.answer.split()))
    return view


def fit_tabular_scorer(corpus: Corpus, smoothing_alpha: float = 1.0) -> TabularScorer:
    """Build a tabular scorer fitted on the corpus as currently retained."""
    model = TabularModel(build_vocabulary(corpus), smoothing_alpha)
    scorer = TabularScorer(model)
    model.fit_streams(
        [context + answer for context, answer in corpus_view(corpus)]
    )
    return scorer


def uniform_tabular_scorer(
    vocabulary: Sequence[str],
    smoothing_alpha: float = 1.0,
) -> TabularScorer:
    """Untrained model: every conditional is exactly -ln(V)."""
    return TabularScorer(TabularModel(vocabulary, smoothing_alpha))
