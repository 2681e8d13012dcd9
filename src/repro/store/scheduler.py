"""Deterministic schedulers driving multi-session applications.

Session programs are plain Python callables ``program(client, rng)`` that
issue ``get``/``put``/``commit``/``rollback`` calls. Each program runs in
its own thread, but threads execute strictly one at a time under a
grant/yield handshake, so a given (seed, program set) always produces the
same interleaving — the determinism §7.1 asks for.

Two granularities:

* :class:`SerialScheduler` — context-switches at *transaction* boundaries,
  matching MonkeyDB's serial transaction execution. Used for recording
  observed executions, random weak-isolation exploration, and validation
  replay (with an explicit turn order).
* :class:`InterleavedScheduler` — context-switches before every store
  *operation* with latest-committed reads: the stand-in for running the
  benchmarks on MySQL under read committed (Table 7), since the
  repository runs no external database.
"""
from __future__ import annotations

import random
import threading
from typing import Callable, Optional, Sequence

from ..history.model import History
from .client import Client, SessionHalted
from .kvstore import DataStore
from .policies import ReadPolicy

__all__ = ["SerialScheduler", "InterleavedScheduler"]

Program = Callable[[Client, random.Random], None]


class _SessionThread:
    """One session's thread plus its handshake state."""

    def __init__(self, name: str, target: Callable[[], None]):
        self.name = name
        self.go = threading.Event()
        self.done = threading.Event()
        self.finished = False
        self.halted = False
        self.halt_requested = False
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(
            target=self._run, args=(target,), name=f"session-{name}", daemon=True
        )

    def _run(self, target: Callable[[], None]) -> None:
        self.go.wait()
        try:
            if self.halt_requested:
                raise SessionHalted(self.name)
            target()
        except SessionHalted:
            self.halted = True
        except BaseException as exc:  # surfaced by the scheduler
            self.error = exc
        finally:
            self.finished = True
            self.done.set()

    def grant(self) -> None:
        """Let the session run until its next yield point."""
        self.done.clear()
        self.go.set()
        self.done.wait()

    def start(self) -> None:
        self.thread.start()


class _Sync:
    """The client-side of the handshake; injected into each Client."""

    def __init__(self, per_operation: bool):
        self._per_operation = per_operation
        self._threads: dict[str, _SessionThread] = {}
        self._halt: set[str] = set()

    def register(self, session: str, thread: _SessionThread) -> None:
        self._threads[session] = thread

    def request_halt(self, session: str) -> None:
        self._halt.add(session)
        self._threads[session].halt_requested = True

    def _pause(self, session: str) -> None:
        st = self._threads[session]
        st.go.clear()
        st.done.set()
        st.go.wait()
        if session in self._halt:
            raise SessionHalted(session)

    def op_point(self, session: str) -> None:
        if self._per_operation:
            self._pause(session)

    def txn_boundary(self, session: str) -> None:
        if not self._per_operation:
            self._pause(session)


class _BaseScheduler:
    per_operation = False

    def __init__(
        self,
        store: DataStore,
        programs: dict[str, Program],
        policy_factory: Callable[[str], ReadPolicy],
        seed: int = 0,
    ):
        self.store = store
        self.seed = seed
        self._sync = _Sync(per_operation=self.per_operation)
        self.clients: dict[str, Client] = {}
        self._threads: dict[str, _SessionThread] = {}
        for session, program in programs.items():
            policy = policy_factory(session)
            client = Client(store, session, policy, sync=self._sync)
            self.clients[session] = client
            rng = random.Random(f"{seed}:{session}")
            thread = _SessionThread(
                session, lambda c=client, r=rng, p=program: self._body(c, r, p)
            )
            self._sync.register(session, thread)
            self._threads[session] = thread

    @staticmethod
    def _body(client: Client, rng: random.Random, program: Program) -> None:
        program(client, rng)
        if client.in_transaction:
            raise RuntimeError(
                f"session {client.session!r} program ended inside a "
                "transaction; programs must commit or rollback"
            )

    # -- turn selection -------------------------------------------------
    def _runnable(self) -> list[str]:
        return sorted(
            s for s, t in self._threads.items() if not t.finished
        )

    def _next_session(self, rng: random.Random) -> Optional[str]:
        runnable = self._runnable()
        if not runnable:
            return None
        return rng.choice(runnable)

    def run(self) -> History:
        """Drive every session to completion; returns the recorded history."""
        rng = random.Random(f"turns:{self.seed}")
        for thread in self._threads.values():
            thread.start()
        while True:
            session = self._next_session(rng)
            if session is None:
                break
            self._threads[session].grant()
            error = self._threads[session].error
            if error is not None:
                self._halt_all()
                raise error
        return self.store.history()

    def _halt_all(self) -> None:
        for session, thread in self._threads.items():
            if not thread.finished:
                self._sync.request_halt(session)
                thread.grant()


class SerialScheduler(_BaseScheduler):
    """Transaction-at-a-time execution with a seeded (or dictated) order.

    ``turn_order`` optionally fixes the sequence of sessions granted a
    transaction turn (validation replay); when exhausted, remaining sessions
    are *halted*, implementing §5's boundary-prefix termination.
    """

    per_operation = False

    def __init__(
        self,
        store: DataStore,
        programs: dict[str, Program],
        policy_factory: Callable[[str], ReadPolicy],
        seed: int = 0,
        turn_order: Optional[Sequence[str]] = None,
    ):
        super().__init__(store, programs, policy_factory, seed)
        self._turn_order = list(turn_order) if turn_order is not None else None
        self._turn_index = 0

    def _next_session(self, rng: random.Random) -> Optional[str]:
        if self._turn_order is None:
            return super()._next_session(rng)
        while self._turn_index < len(self._turn_order):
            session = self._turn_order[self._turn_index]
            self._turn_index += 1
            if session in self._threads and not self._threads[session].finished:
                return session
        # dictated turns exhausted: halt whatever is still running
        self._halt_all()
        return None

    def run(self) -> History:
        """Like the base run, but a dictated turn means *one commit*.

        An application-level abort (rollback) ends a thread turn without
        committing; validation's turn order is expressed in committed
        transactions, so the turn is re-granted until the session commits
        or finishes (§6: aborted transactions rewind and re-execute).
        """
        if self._turn_order is None:
            return super().run()
        rng = random.Random(f"turns:{self.seed}")
        for thread in self._threads.values():
            thread.start()
        while True:
            session = self._next_session(rng)
            if session is None:
                break
            commits_before = self.store.next_txn_index(session)
            attempts = 0
            while (
                not self._threads[session].finished
                and self.store.next_txn_index(session) == commits_before
            ):
                attempts += 1
                if attempts > 1000:
                    raise RuntimeError(
                        f"session {session!r} aborts without progress"
                    )
                self._threads[session].grant()
                error = self._threads[session].error
                if error is not None:
                    self._halt_all()
                    raise error
        return self.store.history()


class InterleavedScheduler(_BaseScheduler):
    """Statement-level interleaving (the realistic rc executor).

    Context-switches between SQL statements with probability
    ``switch_probability``, staying with the running session otherwise —
    a knob for the effective concurrency overlap of a real database: long
    transactions (TPC-C new-order) overlap often, short ones rarely, which
    reproduces Table 7's MySQL column (only TPC-C fails assertions).
    """

    per_operation = True

    def __init__(
        self,
        store: DataStore,
        programs: dict[str, Program],
        policy_factory: Callable[[str], ReadPolicy],
        seed: int = 0,
        switch_probability: float = 0.05,
    ):
        super().__init__(store, programs, policy_factory, seed)
        self.switch_probability = switch_probability
        self._current: Optional[str] = None

    def _next_session(self, rng: random.Random) -> Optional[str]:
        runnable = self._runnable()
        if not runnable:
            return None
        if (
            self._current in runnable
            and rng.random() >= self.switch_probability
        ):
            return self._current
        self._current = rng.choice(runnable)
        return self._current
