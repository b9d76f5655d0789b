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
  keep-alive ``http.client`` connections; the server must accept that
  much concurrency and score deterministically per model version. Proxy,
  CA bundle and netrc settings are read from the environment once, when
  the scorer is built.

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
"""

from __future__ import annotations

import base64
import http.client
import ipaddress
import json
import math
import netrc
import os
import ssl
import threading
import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence
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

@dataclass(frozen=True)
class PromptTemplate:
    """Joining rule for question + retained units: whitespace separators
    only, so a rendered prompt's tokens are those of its parts."""

    template_id: str
    question_separator: str = " "
    unit_separator: str = " "

    def __post_init__(self):
        for separator in (self.question_separator, self.unit_separator):
            if not separator.isspace():
                raise ValueError(f"separator {separator!r} is not whitespace")


TEMPLATES: dict[str, PromptTemplate] = {
    "plain-v1": PromptTemplate("plain-v1", " ", " "),
    "newline-v1": PromptTemplate("newline-v1", "\n", "\n"),
}


def get_template(template_id: str) -> PromptTemplate:
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
        template = get_template(self.template_id)
        if not self.retained_rationale:
            return self.question
        return (
            self.question
            + template.question_separator
            + template.unit_separator.join(self.retained_rationale)
        )

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
    get_template(template_id)
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

    @classmethod
    def from_counts(
        cls,
        vocabulary: Sequence[str],
        counts: Sequence[Sequence[int]],
        smoothing_alpha: float = 1.0,
    ) -> "TabularModel":
        """A model with the given dense V x V count matrix (nested lists)."""
        model = cls(vocabulary, smoothing_alpha)
        size = model.vocab_size
        rows = [[int(c) for c in row] for row in counts]
        if len(rows) != size or any(len(row) != size for row in rows):
            raise ValueError(f"counts must be {size}x{size} nested sequences")
        if any(c < 0 for row in rows for c in row):
            raise ValueError("counts must be nonnegative")
        model._set_counts(Counter(
            {(v, w): c for v, row in enumerate(rows) for w, c in enumerate(row) if c}
        ))
        return model

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
        get_template(assembly.template_id)
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


def _environment_settings(url: str, timeout: float):
    """A connection factory, request target and headers for url, from the
    proxy, CA bundle and netrc variables that the README lists, read as
    ``requests`` reads them."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigurationError(f"scorer URL {url!r} is not an http or https URL")
    https = parts.scheme == "https"
    host, port = parts.hostname, parts.port or (443 if https else 80)
    address, target, tunnel = (host, port), parts.path, None
    headers = {"Content-Type": "application/json"}
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
        tunnel, target = ((host, port), target) if https else (None, url)
    context = https and ssl.create_default_context(
        cafile=os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE"))

    def connect() -> http.client.HTTPConnection:
        if not https:
            return http.client.HTTPConnection(*address, timeout=timeout)
        connection = http.client.HTTPSConnection(*address, timeout=timeout, context=context)
        if tunnel:
            connection.set_tunnel(*tunnel)
        return connection
    return connect, target, headers


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
            timeout_ms = int(os.environ.get(ENV_SCORER_TIMEOUT_MS, DEFAULT_TIMEOUT_MS))
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
        self._connect, self._target, self._headers = _environment_settings(
            self.url, self.timeout_seconds)
        # idle keep-alive connections; list.pop and list.append are atomic
        self._idle: list[http.client.HTTPConnection] = []

    def _post(self, body: bytes, reuse: bool = True) -> tuple[int, bytes]:
        """Status and body of one attempt on an idle connection, else a new one,
        kept unless it fails. A server may close an idle connection, so if a
        reused one fails before any response the request goes on a new one."""
        try:
            connection = self._idle.pop() if reuse else self._connect()
        except IndexError:
            connection, reuse = self._connect(), False
        response = None
        try:
            connection.request("POST", self._target, body, self._headers)
            response = connection.getresponse()
            payload = response.read()
        except BaseException as exc:
            connection.close()
            if reuse and response is None and isinstance(exc, ConnectionError):
                return self._post(body, reuse=False)
            raise
        self._idle.append(connection)
        return response.status, payload

    def _evaluate(self, context: str, answer: str) -> LogLikelihood:
        body = json.dumps(
            {"model": self.model, "prompt": context, "completion": answer}).encode()
        attempts = 0
        failure = "no attempt made"
        while attempts < self.max_attempts:
            attempts += 1
            try:
                status, payload = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
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
            connection.close()


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


def corpus_view(corpus: Corpus, template_id: str = "plain-v1") -> list[tuple[list[str], list[str]]]:
    """(context tokens, answer tokens) per record, using retained units.

    The context tokens are the question's, then each retained unit's:
    those of the rendered prompt, whose separators are whitespace.
    """
    get_template(template_id)
    view = []
    for record in corpus.records:
        context = record.question.split()
        for unit in record.rationale:
            if unit.removed_at is None:
                context.extend(unit.text.split())
        view.append((context, record.answer.split()))
    return view


def fit_tabular_scorer(
    corpus: Corpus,
    smoothing_alpha: float = 1.0,
    template_id: str = "plain-v1",
) -> TabularScorer:
    """Build a tabular scorer fitted on the corpus as currently retained."""
    model = TabularModel(build_vocabulary(corpus), smoothing_alpha)
    scorer = TabularScorer(model)
    model.fit_streams(
        [context + answer for context, answer in corpus_view(corpus, template_id)]
    )
    return scorer


def uniform_tabular_scorer(
    vocabulary: Sequence[str],
    smoothing_alpha: float = 1.0,
) -> TabularScorer:
    """Untrained model: every conditional is exactly -ln(V)."""
    return TabularScorer(TabularModel(vocabulary, smoothing_alpha))
