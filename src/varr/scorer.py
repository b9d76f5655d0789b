"""Likelihood scoring of an answer given question + retained rationale.

Two backends sit behind one handle interface:

* tabular -- an order-1 bigram model with additive smoothing over a
  declared vocabulary and whitespace tokenization, one class that counts
  token pairs. Small enough to check against brute-force oracles, yet
  context-sensitive: removing the unit that precedes the answer changes
  the answer's conditional. Removing any other unit changes no score.
* remote -- POST /v1/score against an inference server:
  request  {"model": str, "prompt": str, "completion": str}
  response {"token_logprobs": [number, ...], "total_logprob": number},
  the list non-empty
  429 and 5xx responses and transport faults retry after a delay drawn
  uniformly from zero to a ceiling that doubles per retry up to the
  request timeout (full jitter), so scans that fail together do not
  retry in lockstep; other statuses fail immediately. All values are
  natural-log. The driver scans up to ``in_flight`` records of an epoch
  at once (default 16), so the client sends up to that many concurrent
  requests, over at most that many keep-alive connections; the server
  must accept that much concurrency and give the same (model, prompt,
  completion) the same reply within a run, since the client clears its
  memo at each refresh between epochs and may ask again. At most
  ``MAX_CONNECTING`` new connections wait for their first status line
  at once, so filling the pool does not overflow a small listen backlog;
  once the server closes a connection after a reply, every request may
  open a new one, and that guard is lifted. Each request goes out in one
  write; a small HTTP/1.1 reader takes the reply (Content-Length, chunked
  or close-delimited, interim 1xx skipped). Proxy, CA bundle and netrc
  settings are read from the environment once, when the scorer is built.

Everything stays in log space; probabilities are never materialized.
Both backends memoize on (context, answer) in a ``ScoreCache``, a dict
that takes no lock, where the context is what the backend conditions
on: the prompt's last whitespace token for the tabular backend, the
whole rendered prompt for the remote one. The key
holds no model version, as ``ScorerHandle.refresh``, run between epochs
when no scan is running, is the only invalidation: it bumps
``model_version`` and clears the memo. Template separators are
whitespace, so the tabular backend reads that token straight off the
assembly's last non-blank unit (or its question) and never renders a
prompt. A remote server may therefore see fewer requests than the
logical call count.

``config.RunConfig`` checks the template id, the smoothing alpha and the
remote settings before any work; a fit checks only that alpha rounds no
probability to zero. A server's reply is checked by ``_parse_response`` alone.
"""

from __future__ import annotations

import contextlib
import ipaddress
import json
import math
import os
import random
import threading
import time
from collections import Counter
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, NamedTuple, Sequence
from urllib.parse import urlsplit

from .corpus import RationaleRecord, parse_json
from .errors import (
    ConfigurationError,
    OutOfVocabularyError,
    ProtocolError,
    TransportError,
)

if TYPE_CHECKING:  # imported where a remote scorer is built
    import socket

DEFAULT_TIMEOUT_MS = 10_000
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_IN_FLIGHT = 16
# New connections that may wait for their first status line at once: a
# server with a small listen backlog (Python's http.server has 5) drops
# the SYNs of a larger burst, and each drop costs a 1 s retransmit.
MAX_CONNECTING = 4
RETRYABLE_STATUSES = frozenset({429}) | frozenset(range(500, 600))


class LogLikelihood(NamedTuple):
    """Natural-log likelihood of an answer, total plus per-token terms: each
    term finite and <= 0, the total their sum (``_parse_response`` checks a
    server's reply)."""

    total: float
    per_token: tuple[float, ...]


# --- prompt assembly -------------------------------------------------------

# Template id -> the separator that joins the question and each retained
# unit. Separators are whitespace, so a rendered prompt's tokens are those
# of its parts.
TEMPLATES: dict[str, str] = {"plain-v1": " ", "newline-v1": "\n"}


class PromptAssembly(NamedTuple):
    """A question and the retained units in order, under one template.

    A named tuple rather than a dataclass: the driver builds one per
    candidate, and a tuple is the cheapest immutable record to build.
    """

    question: str
    retained_rationale: tuple[str, ...]
    template_id: str = "plain-v1"

    def render(self) -> str:
        return TEMPLATES[self.template_id].join((self.question, *self.retained_rationale))

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
    """Question first, then the units at the ``retained`` indices in their
    original order, whatever order the indices come in."""
    units = record.rationale
    return PromptAssembly(
        record.question, tuple(units[i].text for i in sorted(retained)), template_id)


# --- score cache and handle ------------------------------------------------

class ScoreCache:
    """Map from (context, answer) to a score, shared by concurrent scans.

    It takes no lock. Under the GIL, ``dict.get``, an item assignment and
    rebinding ``_entries`` are each atomic, so a scan never reads a torn
    entry. The key holds no model version: the handle clears the map on
    every refresh, when no scan reads it. Between refreshes values are
    deterministic, so last-writer-wins races on identical keys are benign.
    ``hits`` and ``misses`` are exact when one thread scans; under
    concurrent scans an increment may be lost, and they are best-effort
    diagnostics.
    """

    def __init__(self):
        self._entries: dict[tuple[str, str], LogLikelihood] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple[str, str]) -> LogLikelihood | None:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(self, key: tuple[str, str], value: LogLikelihood) -> None:
        self._entries[key] = value

    def clear(self) -> None:
        self._entries = {}

    def __len__(self) -> int:
        return len(self._entries)


class ScorerHandle:
    """Abstract likelihood oracle. Subclasses define one backend each.

    ``score_answer`` reduces the prompt to the backend's context and
    consults the cache; a backend implements ``_evaluate`` for a cache
    miss. ``refresh``, which the driver calls between epochs when no scan
    is running, is the one invalidation, so the cache key holds no
    version. ``in_flight`` is how many record scans the driver may run at
    once against this handle.
    """

    in_flight = 1

    def __init__(self):
        self.model_version = 1
        self.cache = ScoreCache()

    def score_answer(self, assembly: PromptAssembly, answer: str) -> LogLikelihood:
        context = self._context(assembly)
        key = (context, answer)
        cached = self.cache.lookup(key)
        if cached is not None:
            return cached
        result = self._evaluate(context, answer)
        self.cache.store(key, result)
        return result

    def _context(self, assembly: PromptAssembly) -> str:
        """What the backend conditions on: here, the rendered prompt."""
        return assembly.render()

    def refresh(self, streams: Iterable[Sequence[str]] = ()) -> None:
        """Bump model_version (the fit counter) and clear the cache; a
        backend that refits on the corpus's token streams, which can be
        read only once, does so first."""
        self.model_version += 1
        self.cache.clear()

    def close(self) -> None:
        """Release connections; the handle must not be used afterwards."""


# --- tabular backend -------------------------------------------------------

class TabularScorer(ScorerHandle):
    """Additively smoothed bigram model over a declared vocabulary.

    p(w | v) = (count(v, w) + alpha) / (sum_w count(v, w) + alpha * V)

    Counts are kept per (v, w) token pair and row sums per token v, fitted
    once on the given token streams. The vocabulary is non-empty (V >= 1)
    and a count is at most its row sum, so no ratio exceeds 1.
    """

    def __init__(self, vocabulary: Iterable[str], smoothing_alpha: float = 1.0,
                 streams: Iterable[Sequence[str]] = ()):
        super().__init__()
        self.vocabulary = frozenset(vocabulary)
        self.smoothing_alpha = float(smoothing_alpha)
        self.fit_streams(streams)

    def log_conditional(self, prev: str, nxt: str) -> float:
        for symbol in (prev, nxt):
            if symbol not in self.vocabulary:
                raise OutOfVocabularyError(symbol)
        alpha = self.smoothing_alpha
        numer = self._counts[prev, nxt] + alpha
        denom = self._row_sums[prev] + alpha * len(self.vocabulary)
        return math.log(numer / denom)

    def fit_streams(self, streams: Iterable[Sequence[str]]) -> None:
        """Recount bigrams from scratch over the given token streams. As
        rounding is monotone, alpha over the largest denominator is the
        smallest ratio: zero if alpha * V overflows or alpha vanishes beside
        a row sum, and then a log would fail."""
        counts: Counter = Counter()
        row_sums: Counter = Counter()
        for stream in streams:
            counts.update(zip(stream, stream[1:]))
            row_sums.update(stream[:-1])
        alpha = self.smoothing_alpha
        smallest = alpha / (max(row_sums.values(), default=0) + alpha * len(self.vocabulary))
        if smallest == 0:
            raise ConfigurationError(
                f"smoothing_alpha {alpha!r} rounds a smoothed probability to zero")
        self._counts, self._row_sums = counts, row_sums

    def _context(self, assembly: PromptAssembly) -> str:
        # An order-1 model sees only the token before the answer, the last
        # whitespace token of the rendered prompt; with whitespace
        # separators that is the last token of the last non-blank part.
        # The question is never blank: the corpus and ``varr score`` reject it.
        for text in reversed(assembly.retained_rationale):
            if tokens := text.rsplit(None, 1):
                return tokens[-1]
        return assembly.question.rsplit(None, 1)[-1]

    def _evaluate(self, context: str, answer: str) -> LogLikelihood:
        per_token = []
        prev = context
        for token in answer.split():
            per_token.append(self.log_conditional(prev, token))
            prev = token
        return LogLikelihood(math.fsum(per_token), tuple(per_token))

    def refresh(self, streams: Iterable[Sequence[str]] = ()) -> None:
        """Recount bigrams from scratch over the streams, as ``corpus_view``
        builds them, then bump the version and clear the cache."""
        self.fit_streams(streams)
        super().refresh()


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

_Connection = tuple["socket.socket", BinaryIO]


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
    if not (version in (b"HTTP/1.0", b"HTTP/1.1") and len(code) == 3 and code.isdigit()
            and code >= b"100" and not rest[3:4].strip()):
        raise _MalformedResponse(f"malformed status line {line[:80]!r}")
    return version, int(code)


def _read_headers(reader: BinaryIO) -> dict[bytes, bytes]:
    """Header fields up to the blank line, by lower-case name. A field's
    repeated lines are one comma-separated list (RFC 9110 section 5.3)."""
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise ConnectionResetError("connection closed inside the response headers")
        name, _, value = line.partition(b":")
        name, value = name.strip().lower(), value.strip()
        headers[name] = headers[name] + b", " + value if name in headers else value
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
    stream; a body cut short raises, and is never returned. Differing
    Content-Length values raise, and a reply that carries both framings
    is not reused, since it may be a smuggling attempt (RFC 9112
    section 6.3).
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
    else:
        sizes = {value.strip() for value in length.split(b",")}
        size = sizes.pop()
        if sizes or not size.isdigit():
            raise _MalformedResponse(f"malformed Content-Length {length[:80]!r}")
        body = _read_exactly(reader, int(size))
    tokens = {token.strip() for token in headers.get(b"connection", b"").lower().split(b",")}
    keep = b"close" not in tokens if version == b"HTTP/1.1" else b"keep-alive" in tokens
    return status, body, keep and not (length is not None and b"transfer-encoding" in headers)


def _close(connection: _Connection) -> None:
    sock, reader = connection
    reader.close()
    sock.close()


def _split_url(url: str, what: str):
    """urlsplit(url) and its port, or a ConfigurationError naming ``what``."""
    try:
        parts = urlsplit(url)
        return parts, parts.port
    except ValueError as exc:  # e.g. "Invalid IPv6 URL", "Port out of range"
        raise ConfigurationError(f"{what} {url!r} is not a valid URL: {exc}") from None


def _environment_settings(base_url: str, timeout: float):
    """A connection factory and the request head up to the Content-Length
    value for the score endpoint under base_url, from the proxy, CA bundle
    and netrc variables that the README lists, read as ``requests`` reads
    them. An unusable base_url is a ConfigurationError that names it.

    The modules only a remote scorer needs are imported here, so that a
    tabular run does not pay for them at start-up, and ssl only for an
    https URL."""
    import base64
    import netrc
    import socket

    parts, port = _split_url(base_url, "scorer URL")
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigurationError(f"scorer URL {base_url!r} is not an http or https URL")
    if not all("!" <= c <= "~" for c in base_url):
        raise ConfigurationError(
            f"scorer URL {base_url!r} has a space, control or non-ASCII character")
    if "?" in base_url or "#" in base_url:
        raise ConfigurationError(
            f"scorer URL {base_url!r} has a query or fragment; give the base URL only")
    url = base_url.rstrip("/") + "/v1/score"
    https = parts.scheme == "https"
    host, port = parts.hostname, port or (443 if https else 80)
    address, target, tunnel = (host, port), urlsplit(url).path, None
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
        proxy_url = proxy if "://" in proxy else "http://" + proxy
        proxy, proxy_port = _split_url(proxy_url, "proxy")
        if not proxy.hostname:
            raise ConfigurationError(f"proxy {proxy_url!r} has no host")
        address = (proxy.hostname, proxy_port or 80)
        # https goes through a CONNECT tunnel; http asks the proxy for the URL
        if https:
            tunnel = (f"[{host}]" if ":" in host else host) + f":{port}"
        else:
            target = url
    context = None
    if https:
        import ssl
        context = ssl.create_default_context(
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
    def __init__(
        self,
        base_url: str | None = None,
        model: str = "default",
        timeout_ms: int = DEFAULT_TIMEOUT_MS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_seconds: float = 0.1,
        in_flight: int = DEFAULT_IN_FLIGHT,
    ):
        super().__init__()
        if not base_url:
            raise ConfigurationError(
                "remote scorer needs a base URL (flag, config, or VARR_SCORER_URL)")
        self.model = model
        self.timeout_seconds = timeout_ms / 1000.0
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        self.in_flight = in_flight
        # retry delays only: never one of the run's seeded rngs, so retries
        # leave the trace alone
        self._jitter = random.Random()
        self._connect, self._head = _environment_settings(base_url, self.timeout_seconds)
        # idle keep-alive connections; list.pop and list.append are atomic
        self._idle: list[_Connection] = []
        # Paces the connects that fill the keep-alive pool. Lifted (None) once
        # the server closes a connection after a reply: then every request
        # opens a new connection, and the guard would cap requests at
        # MAX_CONNECTING.
        self._connecting: threading.BoundedSemaphore | None = threading.BoundedSemaphore(
            MAX_CONNECTING)

    def _post(self, body: bytes, reuse: bool = True) -> tuple[int, bytes]:
        """Status and body of one attempt on an idle connection, else a new one,
        kept if the reply was read in full and allows reuse. A server may close
        an idle connection, so if a reused one fails with a ConnectionError
        before the status line arrives the request goes on a new one. A new
        connection holds the guard, while there is one, until its status
        line arrives."""
        try:
            connection = self._idle.pop() if reuse else None
        except IndexError:
            connection = None
        if connection is None:
            with self._connecting or contextlib.nullcontext():
                connection = self._connect()
                started = self._start(connection, body)
        else:
            try:
                started = self._start(connection, body)
            except ConnectionError:
                self._connecting = None
                return self._post(body, reuse=False)
        try:
            status, payload, keep = _read_reply(connection[1], *started)
        except BaseException:
            _close(connection)
            raise
        if keep:
            self._idle.append(connection)
        else:
            self._connecting = None
            _close(connection)
        return status, payload

    def _start(self, connection: _Connection, body: bytes) -> tuple[bytes, int]:
        """Send the request and read the reply's status line; on a failure
        the connection is closed."""
        sock, reader = connection
        try:
            sock.sendall(b"%s%d\r\n\r\n%s" % (self._head, len(body), body))
            return _read_status(reader)
        except BaseException:
            _close(connection)
            raise

    def _evaluate(self, context: str, answer: str) -> LogLikelihood:
        body = json.dumps(
            {"model": self.model, "prompt": context, "completion": answer}).encode()
        attempts = 0
        failure = "no attempt made"
        # the next delay's ceiling: doubled per retry, never past the timeout,
        # so no attempt count can grow it without bound or overflow it
        ceiling = min(self.backoff_seconds, self.timeout_seconds)
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
                time.sleep(self._jitter.uniform(0, ceiling))
                ceiling = min(2 * ceiling, self.timeout_seconds)
        raise TransportError(failure, attempts=attempts)

    def _parse_response(self, payload: bytes) -> LogLikelihood:
        """The reply's likelihood, the only check of a server's scores:
        ``token_logprobs`` a non-empty list of finite JSON numbers <= 0,
        ``total_logprob`` a finite number <= 0 within 1e-12 (relative, and
        absolute below 1) of their correctly rounded sum. Bools and strings
        are not numbers. The list's length is the server's tokenization's,
        so it is not checked."""
        try:
            body = parse_json(payload)
            terms, total = body["token_logprobs"], body["total_logprob"]
            if not isinstance(terms, list) or not terms:
                raise ValueError("token_logprobs is not a non-empty list")
            if any(type(v) not in (int, float) for v in [*terms, total]):
                raise ValueError("token_logprobs or total_logprob holds a non-number")
            per_token = tuple(map(float, terms))
            total = float(total)
            if not all(-math.inf < v <= 0.0 for v in per_token):
                raise ValueError("token_logprobs holds a positive or non-finite term")
            checksum = math.fsum(per_token)
            if not (-math.inf < total <= 0.0
                    and abs(total - checksum) <= 1e-12 * max(1.0, abs(total))):
                raise ValueError(
                    f"total_logprob {total!r} is not the terms' sum {checksum!r}")
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ProtocolError(f"malformed scorer response: {exc}") from exc
        return LogLikelihood(total, per_token)

    def close(self) -> None:
        idle, self._idle = self._idle, []
        for connection in idle:
            _close(connection)


# --- corpus-backed construction -------------------------------------------

def build_vocabulary(corpus: list[RationaleRecord]) -> tuple[str, ...]:
    """Sorted union of whitespace tokens over every text field: a set, and
    non-empty, as every record's question holds a token."""
    symbols: set[str] = set()
    for record in corpus:
        symbols.update(record.question.split())
        symbols.update(record.answer.split())
        for unit in record.rationale:
            symbols.update(unit.text.split())
        for wrong in record.wrong_answers:
            symbols.update(wrong.split())
    return tuple(sorted(symbols))


def corpus_view(corpus: list[RationaleRecord]) -> Iterator[list[str]]:
    """Yield one token stream per record: the question's tokens, each
    retained unit's, then the answer's. The tokens before the answer are
    those of the rendered prompt under any template, whose separators are
    whitespace. Built as it is read: a refresh that reads no streams
    tokenises no record."""
    for record in corpus:
        stream = record.question.split()
        for unit in record.rationale:
            if unit.removed_at is None:
                stream.extend(unit.text.split())
        stream.extend(record.answer.split())
        yield stream


def fit_tabular_scorer(corpus: list[RationaleRecord],
                       smoothing_alpha: float = 1.0) -> TabularScorer:
    """Build a tabular scorer fitted on the corpus as currently retained."""
    return TabularScorer(build_vocabulary(corpus), smoothing_alpha, corpus_view(corpus))
