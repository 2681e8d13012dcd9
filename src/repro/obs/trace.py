"""Structured spans: the zero-dependency tracing core of ``repro.obs``.

One run of the system — a CLI ``analyze``, a ``--jobs 4`` campaign with
its pool workers, a long ``watch`` session — is one **trace**.  A trace
is a tree of **spans**: named, timed regions with attributes, opened with
a single idiom at every instrumented seam::

    from repro.obs import span
    ...
    with span("campaign.round", round_id=spec.round_id, attempt=attempt):
        ...

A span is the only stopwatch: every measured duration (stage stats,
walls, stream metrics) is some span's ``duration``, set on exit.

Telemetry is **off by default**: with no sink installed (one
``os.environ`` lookup), ``span()`` returns a real-clock stopwatch that
records nothing.  Installing a sink (:func:`install`, or the
``--telemetry PATH`` CLI flag) turns every span into one
schema-versioned JSONL event, written on close to a per-process part
file that :mod:`repro.obs.export` later merges into a single ordered
trace file.

**Cross-process stitching** works exactly like
:data:`repro.faults.plan.FAULT_PLAN_ENV`: the sink path travels in
:data:`TELEMETRY_ENV` and the current (trace id, span id) context in
:data:`CONTEXT_ENV`.  A campaign pool worker, a fuzz worker,
or any other child process lazily builds its own recorder from those two
variables on its first span, so its spans land in the same trace with
the propagated span as their parent.  Fork safety is explicit: a
recorder remembers the pid that created it and re-initializes itself in
a forked child instead of sharing the parent's file handle.

**Determinism.** Timestamps come from an injectable clock.  Installing
the fixed clock (:data:`CLOCK_ENV` = ``"fixed"``, or
``install(..., clock="fixed")``) freezes wall/monotonic time, zeroes
every duration (and every stat, wall and rate read from one), reports
``pid`` as 0, and derives span ids purely from ``(parent, name, attrs,
occurrence)`` — so same-seed runs emit byte-identical event streams
whatever the worker count, which is what makes telemetry itself
diffable and testable (the fault-plan determinism discipline applied
to observability).

Event schema (one JSON object per line; see ``docs/observability.md``):

=========  ==============================================================
``event``  fields
=========  ==============================================================
``meta``   ``schema``, ``trace``, ``deterministic`` (+ environment info
           in non-deterministic mode)
``span``   ``trace span parent name ts dur pid attrs``
``point``  an instant annotation: ``trace span name ts pid attrs``
``metrics`` the counts the spans and points carry, folded at merge
           (:func:`repro.obs.export.fold_events`)
=========  ==============================================================
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Optional

__all__ = [
    "CLOCK_ENV",
    "CONTEXT_ENV",
    "SCHEMA_VERSION",
    "TELEMETRY_ENV",
    "FixedClock",
    "Recorder",
    "Span",
    "SystemClock",
    "active_recorder",
    "active_sink",
    "current_context",
    "enabled",
    "event",
    "install",
    "monotonic",
    "propagate_context",
    "reset_telemetry",
    "span",
    "tally",
    "uninstall",
    "wall",
]

#: Bump when the telemetry event shape changes incompatibly.
SCHEMA_VERSION = 1

#: Sink base path; presence makes child processes record telemetry.
TELEMETRY_ENV = "ISOPREDICT_TELEMETRY"

#: ``trace_id:span_id`` parent context for spans opened in child processes.
CONTEXT_ENV = "ISOPREDICT_TRACE_CONTEXT"

#: Clock selection: unset/``system``, or ``fixed[:SECONDS]``.
CLOCK_ENV = "ISOPREDICT_TELEMETRY_CLOCK"

_ROUND = 9  # ns resolution; fixed rounding keeps streams byte-comparable


class SystemClock:
    """The real clock: wall epoch seconds + monotonic seconds."""

    deterministic = False

    def wall(self) -> float:
        return time.time()

    def monotonic(self) -> float:
        return time.monotonic()


class FixedClock:
    """A frozen clock: every read returns the same instant.

    All durations become exactly 0.0 and all timestamps equal ``value``,
    which is what lets two runs of the same seed produce byte-identical
    telemetry (timing differences are the only honest nondeterminism in
    a deterministic pipeline, so the fixed clock removes them).
    """

    deterministic = True

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def wall(self) -> float:
        return self.value

    def monotonic(self) -> float:
        return self.value


def _parse_clock(spec) -> object:
    """``None``/``"system"``/``"fixed[:T]"``/a clock object → a clock."""
    if spec is None:
        spec = os.environ.get(CLOCK_ENV)
    if spec is None or spec == "system":
        return SystemClock()
    if isinstance(spec, (SystemClock, FixedClock)):
        return spec
    if hasattr(spec, "wall") and hasattr(spec, "monotonic"):
        return spec
    text = str(spec)
    if text.startswith("fixed"):
        _, _, value = text.partition(":")
        return FixedClock(float(value) if value else 0.0)
    raise ValueError(f"unknown telemetry clock {spec!r}")


def _attrs_token(attrs: dict) -> str:
    """Canonical attrs spelling used inside span-id derivation."""
    if not attrs:
        return ""
    return json.dumps(attrs, sort_keys=True, separators=(",", ":"),
                      default=str)


class Span:
    """One open (then closed) region of a trace."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "start_wall",
        "start_mono",
        "stop_mono",
        "duration",
        "_child_occ",
    )

    def __init__(self, trace_id, span_id, parent_id, name, attrs,
                 start_wall, start_mono):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = dict(attrs)
        self.start_wall = start_wall
        self.start_mono = start_mono
        self.stop_mono: Optional[float] = None
        self.duration: Optional[float] = None
        self._child_occ: dict = {}

    def set(self, **attrs) -> "Span":
        """Attach late attributes (status codes, result counts)."""
        self.attrs.update(attrs)
        return self

    def stop(self) -> None:
        """End the timed region early: attrs set before exit land untimed."""
        rec = active_recorder()
        self.stop_mono = rec.clock.monotonic() if rec else None

    # context-manager protocol: closing is the recorder's job so nesting
    # stays consistent even when the body raises
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        rec = active_recorder()
        if rec is None:  # telemetry was switched off inside the span
            self.duration = 0.0
        else:
            if exc is not None and "error" not in self.attrs:
                self.attrs["error"] = type(exc).__name__
            rec.close_span(self)


class _Stopwatch:
    """The span while telemetry is off: times its region, records nothing."""

    __slots__ = ("_start", "duration")

    def set(self, **attrs) -> "_Stopwatch":
        return self

    def stop(self) -> None:
        self.duration = time.monotonic() - self._start

    def __enter__(self) -> "_Stopwatch":
        self._start = time.monotonic()
        self.duration = None
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.duration is None:
            self.stop()


_RECORDER: Optional["Recorder"] = None


class Recorder:
    """Per-process span stack + JSONL part-file writer.

    ``is_child`` recorders (built lazily from the environment) inherit
    their root context from :data:`CONTEXT_ENV`; the installing process
    generates the trace id and writes the stream header at export time.
    """

    def __init__(
        self,
        path,
        trace_id: Optional[str] = None,
        clock=None,
        is_child: bool = False,
    ):
        self.path = str(path)
        self.clock = _parse_clock(clock)
        self.deterministic = bool(
            getattr(self.clock, "deterministic", False)
        )
        self.pid = os.getpid()
        self.is_child = is_child
        context = os.environ.get(CONTEXT_ENV, "")
        env_trace, _, env_parent = context.partition(":")
        self.trace_id = trace_id or env_trace or self._new_trace_id()
        self.root_parent = env_parent or None
        self.stack: list[Span] = []
        self.opened = 0
        self.closed = 0
        self._root_occ: dict = {}
        self._fh = None

    # -- identity -------------------------------------------------------
    def _new_trace_id(self) -> str:
        if self.deterministic:
            return "0" * 12
        return os.urandom(6).hex()

    def _span_id(self, parent_id, name, attrs, occ) -> str:
        token = f"{parent_id}|{name}|{_attrs_token(attrs)}|{occ}"
        if not self.deterministic:
            token += f"|{self.pid}"
        return hashlib.sha1(token.encode()).hexdigest()[:16]

    @property
    def reported_pid(self) -> int:
        return 0 if self.deterministic else self.pid

    # -- the part file --------------------------------------------------
    @property
    def part_path(self) -> str:
        return f"{self.path}.part.{os.getpid()}"

    def _write(self, doc: dict) -> None:
        if self._fh is None:
            self._fh = open(self.part_path, "a")
        self._fh.write(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._fh.flush()

    # -- spans ----------------------------------------------------------
    def open_span(self, name: str, attrs: dict) -> Span:
        parent = self.stack[-1] if self.stack else None
        parent_id = parent.span_id if parent else self.root_parent
        occ_map = parent._child_occ if parent else self._root_occ
        occ_key = (name, _attrs_token(attrs))
        occ = occ_map.get(occ_key, 0)
        occ_map[occ_key] = occ + 1
        span = Span(
            trace_id=self.trace_id,
            span_id=self._span_id(parent_id or self.trace_id, name,
                                  attrs, occ),
            parent_id=parent_id,
            name=name,
            attrs=attrs,
            start_wall=self.clock.wall(),
            start_mono=self.clock.monotonic(),
        )
        self.stack.append(span)
        self.opened += 1
        return span

    def close_span(self, span: Span) -> None:
        if span.duration is not None:
            return  # already closed (double __exit__ is a no-op)
        # unwind past any abandoned inner spans (a crash skipped their
        # __exit__); they are force-closed so the stream stays well formed
        while self.stack and self.stack[-1] is not span:
            abandoned = self.stack[-1]
            abandoned.attrs.setdefault("unclosed", True)
            self._finish(abandoned)
        if self.stack and self.stack[-1] is span:
            self.stack.pop()
        self._finish(span)

    def _finish(self, span: Span) -> None:
        if span in self.stack:
            self.stack.remove(span)
        # rounded as written: stats summing durations match the trace
        stop = span.stop_mono
        stop = self.clock.monotonic() if stop is None else stop
        span.duration = round(max(0.0, stop - span.start_mono), _ROUND)
        self.closed += 1
        self._write(
            {
                "event": "span",
                "trace": span.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "ts": round(span.start_wall, _ROUND),
                "dur": span.duration,
                "pid": self.reported_pid,
                "attrs": span.attrs,
            }
        )

    def point(self, name: str, attrs: dict) -> None:
        """An instant event attached to the current span (or the root)."""
        parent = self.stack[-1] if self.stack else None
        self._write(
            {
                "event": "point",
                "trace": self.trace_id,
                "span": parent.span_id if parent else self.root_parent,
                "name": name,
                "ts": round(self.clock.wall(), _ROUND),
                "pid": self.reported_pid,
                "attrs": attrs,
            }
        )

    def context(self) -> str:
        """The ``trace:span`` token children inherit through the env."""
        current = self.stack[-1].span_id if self.stack else (
            self.root_parent or ""
        )
        return f"{self.trace_id}:{current}"

    def close(self) -> None:
        while self.stack:
            abandoned = self.stack[-1]
            abandoned.attrs.setdefault("unclosed", True)
            self._finish(abandoned)
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ---------------------------------------------------------------------------
# Module-level API (what instrumented code actually calls)
# ---------------------------------------------------------------------------
def install(
    path,
    trace_id: Optional[str] = None,
    clock=None,
    env: bool = True,
) -> Recorder:
    """Activate telemetry in this process, sinking to ``path``.

    ``env=True`` exports the sink (and a non-default clock) through the
    environment so child processes join the same trace. Stale part files
    from a previous crashed run under the same path are removed — the
    installing process owns the path.
    """
    global _RECORDER
    if _RECORDER is not None:
        uninstall()
    if clock is not None and not isinstance(clock, str) and env:
        # only string clock specs can cross a process boundary
        raise ValueError(
            "env-propagated telemetry needs a string clock spec "
            "('system' or 'fixed[:T]'); pass env=False for a custom clock"
        )
    if env:
        os.environ[TELEMETRY_ENV] = str(path)
        if isinstance(clock, str):
            os.environ[CLOCK_ENV] = clock
    _clear_stale_parts(path)
    _RECORDER = Recorder(path, trace_id=trace_id, clock=clock)
    return _RECORDER


def _clear_stale_parts(path) -> None:
    base = os.path.basename(str(path))
    parent = os.path.dirname(os.path.abspath(str(path)))
    if not os.path.isdir(parent):
        os.makedirs(parent, exist_ok=True)
        return
    for name in os.listdir(parent):
        if name.startswith(base + ".part."):
            try:
                os.remove(os.path.join(parent, name))
            except OSError:
                pass


def uninstall() -> None:
    """Deactivate telemetry and drop the env propagation."""
    global _RECORDER
    if _RECORDER is not None:
        _RECORDER.close()
        _RECORDER = None
    os.environ.pop(TELEMETRY_ENV, None)
    os.environ.pop(CONTEXT_ENV, None)
    os.environ.pop(CLOCK_ENV, None)


def reset_telemetry() -> None:
    """Forget all telemetry state (test isolation)."""
    uninstall()


def active_recorder() -> Optional[Recorder]:
    """The live recorder, lazily building a child recorder from the env.

    Also the fork guard: a recorder created in another pid (a forked
    pool worker inherited the parent's module state) is replaced by a
    fresh child recorder writing its own part file.
    """
    global _RECORDER
    rec = _RECORDER
    if rec is not None:
        if rec.pid != os.getpid():
            _RECORDER = rec = Recorder(rec.path, is_child=True)
        return rec
    path = os.environ.get(TELEMETRY_ENV)
    if path:
        _RECORDER = rec = Recorder(path, is_child=True)
    return rec


def enabled() -> bool:
    return _RECORDER is not None or bool(os.environ.get(TELEMETRY_ENV))


def active_sink() -> Optional[str]:
    """The sink base path, if telemetry is active in this process."""
    rec = active_recorder()
    return rec.path if rec is not None else None


def deterministic() -> bool:
    """True when the active recorder runs under the fixed clock.

    Instrumentation consults this before attaching attrs that honestly
    vary between equivalent runs (worker counts, hosts, wall seconds):
    byte-identical traces require identical attr bytes, not just frozen
    timestamps.
    """
    rec = active_recorder() if enabled() else None
    return rec is not None and rec.deterministic


def span(name: str, **attrs):
    """Open a span (context manager) timed by the recorder's clock, or
    a real-clock :class:`_Stopwatch` when disabled; ``duration`` on exit."""
    rec = active_recorder() if enabled() else None
    if rec is None:
        return _Stopwatch()
    return rec.open_span(name, attrs)


def event(name: str, **attrs) -> None:
    """Record an instant annotation on the current span."""
    rec = active_recorder() if enabled() else None
    if rec is not None:
        rec.point(name, attrs)


def tally(attr: str, counts: dict, keys=None) -> None:
    """Add ``counts`` (only ``keys`` of it, when given) into the ``attr``
    dict of the innermost open span; zeros are skipped.

    This is how a count the code already holds becomes span data: the
    trace's ``metrics`` event sums these dicts over every span. A no-op
    while telemetry is off, so nothing is built on that path.
    """
    rec = active_recorder() if enabled() else None
    if rec is None or not rec.stack:
        return
    totals = rec.stack[-1].attrs.setdefault(attr, {})
    for key in counts if keys is None else keys:
        amount = counts.get(key)
        if amount:
            totals[key] = totals.get(key, 0) + amount


def current_context() -> Optional[str]:
    """The ``trace:span`` context token, or None while disabled."""
    rec = active_recorder() if enabled() else None
    return rec.context() if rec is not None else None


class propagate_context:
    """Export the current span as the parent for child processes.

    Used around pool creation (campaign executor, fuzz fan-out): any
    process forked/spawned inside the ``with`` block inherits
    :data:`CONTEXT_ENV` and stitches its spans under the current one.
    A no-op while telemetry is disabled.
    """

    def __enter__(self):
        self._saved = os.environ.get(CONTEXT_ENV)
        context = current_context()
        if context is not None:
            os.environ[CONTEXT_ENV] = context
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._saved is None:
            os.environ.pop(CONTEXT_ENV, None)
        else:
            os.environ[CONTEXT_ENV] = self._saved


def monotonic() -> float:
    """Monotonic seconds through the telemetry clock when one is active.

    Timings that are not a region (a stream's elapsed time, an ingest
    lag) read this, so the fixed clock zeroes them like span durations.
    """
    rec = active_recorder() if enabled() else None
    if rec is not None:
        return rec.clock.monotonic()
    return time.monotonic()


def wall() -> float:
    """Wall-clock seconds through the telemetry clock when active."""
    rec = active_recorder() if enabled() else None
    if rec is not None:
        return rec.clock.wall()
    return time.time()
