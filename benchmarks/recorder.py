"""Timing, tracing and correctness bookkeeping for the benchmark harness.

Every call into the package goes through :meth:`Recorder.call`, which times
it, counts it as an attempted operation and turns an exception into a
recorded failure.  Answers are checked with :meth:`Recorder.check`; a check
is an attempted operation too, and a rejected answer is a failed one.

With tracing on, the recorder also keeps one span per call and per harness
stage (name, start, end, parent span, item id) in memory; they are written
out once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class OpFailed(Exception):
    """A package call raised; the current item is abandoned, the run goes on."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None

    @property
    def layer(self) -> str:
        head, _, rest = self.name.partition(".")
        return head if rest else "harness"


@dataclass
class Tally:
    """What one execution of an item did, keyed by call name."""

    item: str
    traced: bool
    durations: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    elapsed: float = 0.0  # the item's duration; garbage collection excluded
    root: int | None = None  # the item's span id, traced executions only

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def samples(self, name: str) -> list[float]:
        return self.durations.get(name, [])


class Recorder:
    def __init__(self, tracing: bool, expected_errors: dict[tuple[str, str], str]):
        self.tracing = tracing
        # (item, call name) -> exception type name that is a known defect
        self.expected_errors = expected_errors
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.wrong_answers = 0
        self.unexpected_errors = 0
        self.tallies: list[Tally] = []  # one per item execution, in order
        self.tally = Tally("", False)
        self.item: str | None = None

    # -- items and spans --------------------------------------------------

    def _push(self, name: str, start: float) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(span_id, name, start, start, parent, self.item))
        self._stack.append(span_id)
        return span_id

    def _pop(self, span_id: int, end: float) -> None:
        self._stack.pop()
        self.spans[span_id].end = end

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        span_id = self._push(name, start) if self.tracing else None
        try:
            yield
        finally:
            end = time.perf_counter()
            if span_id is not None:
                self._pop(span_id, end)
            self.tally.durations.setdefault(name, []).append(end - start)

    @contextmanager
    def item_scope(self, item: str):
        """One execution of an item; its tally is appended to ``tallies``."""
        self.item = item
        self.tally = Tally(item, self.tracing, root=len(self.spans) if self.tracing else None)
        self.tallies.append(self.tally)
        start = time.perf_counter()
        try:
            with self.span("item"):
                yield
        except OpFailed:
            pass
        except Exception as exc:  # an answer the harness could not even inspect
            self._fail("harness", exc)
        finally:
            self.tally.elapsed += time.perf_counter() - start
            self.item = None

    # -- package calls and answer checks ---------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        span_id = None
        start = time.perf_counter()
        if self.tracing:
            span_id = self._push(name, start)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            end = time.perf_counter()
            if span_id is not None:
                self._pop(span_id, end)
            self._fail(name, exc)
            raise OpFailed(name) from exc
        end = time.perf_counter()
        if span_id is not None:
            self._pop(span_id, end)
        self.tally.durations.setdefault(name, []).append(end - start)
        return result

    def _fail(self, name: str, exc: Exception) -> None:
        error = type(exc).__name__
        known = self.expected_errors.get((self.item or "", name)) == error
        if not known:
            self.unexpected_errors += 1
        self.failures.append(
            {
                "item": self.item,
                "op": name,
                "error": error,
                "message": str(exc)[:200],
                "known_defect": known,
            }
        )

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.wrong_answers += 1
            self.failures.append(
                {"item": self.item, "op": "check", "error": "WrongAnswer", "message": what}
            )
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        """No answer was wrong and every exception was a recorded known defect."""
        return self.wrong_answers == 0 and self.unexpected_errors == 0


def self_times(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Root span id -> self time per layer under that root: each span's
    duration minus what its direct children cover.  A root's values sum to
    its duration.  Spans are stored in start order, parents first."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    root_of: list[int] = []
    out: dict[int, dict[str, float]] = {}
    for s in spans:
        root = s.id if s.parent is None else root_of[s.parent]
        root_of.append(root)
        layers = out.setdefault(root, {})
        layers[s.layer] = layers.get(s.layer, 0.0) + own[s.id]
    return out
