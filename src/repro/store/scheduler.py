"""Deterministic schedulers driving multi-session applications.

A session program is a generator function ``program(client, rng)`` that
issues ``get``/``put``/``commit``/``rollback`` calls and yields once after
each transaction ends (after its commit or rollback)::

    def program(client, rng):
        for amount in (50, 60):
            balance = client.get("acct")
            client.put("acct", balance + amount)
            client.commit()
            yield

Sessions execute strictly one at a time, so a given (seed, program set)
always produces the same schedule — the determinism §7.1 asks for.

Both schedulers advance a program one step at a time with the same
protocol check: every step that yields must have ended exactly one
transaction and must end outside one, and a program's final step (the one
that returns) must end none and leave no transaction open; otherwise the
run raises :class:`RuntimeError` naming the session. A program that is not
a generator function is a :class:`TypeError` when either scheduler is
built.

Two granularities:

* :class:`SerialScheduler` — context-switches at *transaction* boundaries,
  matching MonkeyDB's serial transaction execution. Used for recording
  observed executions, random weak-isolation exploration, and validation
  replay (with an explicit turn order). It advances a program with
  ``next()`` and halts it with ``close()``; no thread is involved.
* :class:`InterleavedScheduler` — context-switches before every store
  *operation* with latest-committed reads: the stand-in for running the
  benchmarks on MySQL under read committed (Table 7), since the
  repository runs no external database. A switch can fall anywhere inside
  a program, so each session runs in its own thread, and threads take
  turns under a grant/pause handshake. A yield is not a switch point
  there, but each one is still checked.
"""
from __future__ import annotations

import inspect
import random
import threading
from typing import Callable, Iterator, Optional, Sequence

from ..history.model import History
from .client import Client, SessionHalted
from .kvstore import DataStore
from .policies import ReadPolicy

__all__ = ["SerialScheduler", "InterleavedScheduler"]

Program = Callable[[Client, random.Random], Iterator[None]]

#: Chance that :class:`InterleavedScheduler` switches sessions before an
#: operation — the effective concurrency overlap of a real database: long
#: transactions (TPC-C new-order) overlap often, short ones rarely, which
#: reproduces Table 7's MySQL column (only TPC-C fails assertions).
SWITCH_PROBABILITY = 0.05


def _open_sessions(
    store: DataStore,
    programs: dict[str, Program],
    policy_factory: Callable[[str], ReadPolicy],
    seed: int,
    sync=None,
) -> dict[str, tuple[Client, Iterator[None]]]:
    """Each session's client and its program's (unstarted) generator."""
    sessions = {}
    for session, program in programs.items():
        if not inspect.isgeneratorfunction(program):
            raise TypeError(
                f"session {session!r} program is not a generator function; "
                "a program yields once after each transaction"
            )
        client = Client(store, session, policy_factory(session), sync=sync)
        rng = random.Random(f"{seed}:{session}")
        sessions[session] = (client, program(client, rng))
    return sessions


def _ended(client: Client) -> int:
    """How many transactions ``client`` has committed or rolled back."""
    return client.stats["commits"] + client.stats["aborts"]


def _step(client: Client, program: Iterator[None]) -> bool:
    """Run ``program`` to its next yield (True) or to its end (False).

    Checks the protocol both schedulers rely on: a yield must follow
    exactly one ended transaction and fall outside any transaction, and
    the program's end must end none and leave no transaction open.
    """
    session = client.session
    ended_before = _ended(client)
    try:
        next(program)
    except StopIteration:
        if client.in_transaction:
            raise RuntimeError(
                f"session {session!r} program ended inside a transaction; "
                "programs must commit or rollback"
            ) from None
        if _ended(client) != ended_before:
            raise RuntimeError(
                f"session {session!r} ended a transaction after its "
                "last yield; a program yields once after each "
                "transaction"
            ) from None
        return False
    if client.in_transaction:
        raise RuntimeError(
            f"session {session!r} yielded inside a transaction; a "
            "program yields after its commit or rollback"
        )
    ended = _ended(client) - ended_before
    if ended != 1:
        raise RuntimeError(
            f"session {session!r} yielded after ending {ended} "
            "transactions; a program yields once after each transaction"
        )
    return True


class SerialScheduler:
    """Transaction-at-a-time execution with a seeded (or dictated) order.

    ``turn_order`` optionally fixes the sequence of sessions granted a
    transaction turn (validation replay); when exhausted, remaining sessions
    are *halted*, implementing §5's boundary-prefix termination.
    """

    def __init__(
        self,
        store: DataStore,
        programs: dict[str, Program],
        policy_factory: Callable[[str], ReadPolicy],
        seed: int = 0,
        turn_order: Optional[Sequence[str]] = None,
    ):
        self.store = store
        self.seed = seed
        sessions = _open_sessions(store, programs, policy_factory, seed)
        self.clients = {s: client for s, (client, _) in sessions.items()}
        self._programs = {s: gen for s, (_, gen) in sessions.items()}
        self._running = set(sessions)
        self._turn_order = list(turn_order) if turn_order is not None else None

    def run(self) -> History:
        """Drive the sessions; returns the recorded history.

        Without a turn order every session runs to completion. With one,
        a dictated turn means *one commit*: an application-level abort
        (rollback) ends a turn without committing, so the turn is repeated
        until the session commits or finishes (§6: aborted transactions
        rewind and re-execute). Whatever is still running when the order
        is exhausted, or when a program raises, is closed: its generator
        stops at its last yield and its ``finally`` blocks run.
        """
        try:
            if self._turn_order is None:
                rng = random.Random(f"turns:{self.seed}")
                while self._running:
                    self._turn(rng.choice(sorted(self._running)))
            else:
                for session in self._turn_order:
                    self._dictated_turn(session)
        finally:
            for program in self._programs.values():
                program.close()
        return self.store.history()

    def _dictated_turn(self, session: str) -> None:
        if session not in self._running:
            return
        commits_before = self.store.next_txn_index(session)
        attempts = 0
        while (
            session in self._running
            and self.store.next_txn_index(session) == commits_before
        ):
            attempts += 1
            if attempts > 1000:
                raise RuntimeError(
                    f"session {session!r} aborts without progress"
                )
            self._turn(session)

    def _turn(self, session: str) -> None:
        """Run ``session`` to its next yield, or to its end."""
        if not _step(self.clients[session], self._programs[session]):
            self._running.discard(session)


class _SessionThread:
    """One session's thread plus its handshake state."""

    def __init__(self, client: Client, program: Iterator[None]):
        self.name = client.session
        self.go = threading.Event()
        self.done = threading.Event()
        self.finished = False
        self.halt_requested = False
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(
            target=self._run,
            args=(client, program),
            name=f"session-{self.name}",
            daemon=True,
        )

    def _run(self, client: Client, program: Iterator[None]) -> None:
        self.go.wait()
        try:
            if self.halt_requested:
                raise SessionHalted(self.name)
            while _step(client, program):
                pass
        except SessionHalted:
            pass
        except BaseException as exc:  # surfaced by the scheduler
            self.error = exc
        finally:
            self.finished = True
            self.done.set()

    def grant(self) -> None:
        """Let the session run until its next pause."""
        self.done.clear()
        self.go.set()
        self.done.wait()

    def start(self) -> None:
        self.thread.start()


class _Sync:
    """The client side of the handshake: pause before every operation."""

    def __init__(self):
        self._threads: dict[str, _SessionThread] = {}
        self._halt: set[str] = set()

    def register(self, session: str, thread: _SessionThread) -> None:
        self._threads[session] = thread

    def request_halt(self, session: str) -> None:
        self._halt.add(session)
        self._threads[session].halt_requested = True

    def op_point(self, session: str) -> None:
        st = self._threads[session]
        st.go.clear()
        st.done.set()
        st.go.wait()
        if session in self._halt:
            raise SessionHalted(session)


class InterleavedScheduler:
    """Statement-level interleaving (the realistic rc executor).

    Context-switches between SQL statements with probability
    :data:`SWITCH_PROBABILITY`, staying with the running session
    otherwise. Each session's thread drives its program with the same
    protocol-checking step as :class:`SerialScheduler`, so a program that
    breaks the protocol raises here too.
    """

    def __init__(
        self,
        store: DataStore,
        programs: dict[str, Program],
        policy_factory: Callable[[str], ReadPolicy],
        seed: int = 0,
    ):
        self.store = store
        self.seed = seed
        self._current: Optional[str] = None
        self._sync = _Sync()
        sessions = _open_sessions(
            store, programs, policy_factory, seed, sync=self._sync
        )
        self.clients = {s: client for s, (client, _) in sessions.items()}
        self._threads: dict[str, _SessionThread] = {}
        for session, (client, program) in sessions.items():
            thread = _SessionThread(client, program)
            self._sync.register(session, thread)
            self._threads[session] = thread

    def _next_session(self, rng: random.Random) -> Optional[str]:
        runnable = sorted(
            s for s, t in self._threads.items() if not t.finished
        )
        if not runnable:
            return None
        if (
            self._current in runnable
            and rng.random() >= SWITCH_PROBABILITY
        ):
            return self._current
        self._current = rng.choice(runnable)
        return self._current

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
