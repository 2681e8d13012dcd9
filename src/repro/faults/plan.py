"""Deterministic fault plans: *which* failure fires *where*, and *when*.

A :class:`FaultPlan` is a seeded, fully declarative description of the
failures a run must suffer. Nothing in it is probabilistic at execution
time: each :class:`FaultSpec` names one instrumented injection point
(see :mod:`repro.faults.inject` for the vocabulary), one failure kind,
and the exact occurrence window it fires in — so replaying the same plan
against the same workload injects byte-identically, which is what lets
the chaos suite assert *faults never change verdicts* by diffing a
faulted run against its fault-free twin.

Plans serialize to a compact one-line spec so they cross process
boundaries through a CLI flag (``--fault-plan``) or the environment
(:data:`FAULT_PLAN_ENV`) — campaign pool workers re-read the env and
replay the same plan independently.

Spec grammar (``;``-separated faults, optional ``seed=N`` segment)::

    point:kind            fire on the first eligible hit
    point:kind@A          skip the first A hits, then fire once
    point:kind*T          fire on the first T hits
    point:kind@A*T        skip A hits, fire on the next T
    point:kind~S          kind-specific seconds (hang duration)

Example::

    seed=7;store.sqlite.persist:busy*2;campaign.round:crash@1
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

__all__ = ["FAULT_KINDS", "FAULT_PLAN_ENV", "FaultPlan", "FaultSpec"]

#: Environment variable carrying the active plan across process boundaries.
FAULT_PLAN_ENV = "ISOPREDICT_FAULT_PLAN"

#: Failure kinds a spec may name. All but ``kill`` and ``hang`` raise an
#: exception at the injection point; ``kill`` SIGKILLs the current process
#: (a *real* worker death, for the pool-recovery path) and ``hang`` sleeps.
FAULT_KINDS = (
    "io",       # OSError: generic I/O failure (transient)
    "busy",     # sqlite3.OperationalError("database is locked") (transient)
    "corrupt",  # a corrupt/truncated document where one was expected
    "crash",    # WorkerCrash: the unit of work dies with a stack (transient)
    "kill",     # SIGKILL the current process (only meaningful in a worker)
    "hang",     # sleep for `seconds` (drive timeout/heartbeat paths)
)


@dataclass(frozen=True)
class FaultSpec:
    """One planned failure at one injection point.

    Hits of the point are counted per process from zero; the spec fires on
    hits ``after <= hit < after + times`` and is inert outside that window.
    """

    point: str
    kind: str
    times: int = 1
    after: int = 0
    seconds: float = 0.0

    def __post_init__(self):
        if not self.point:
            raise ValueError("fault spec needs an injection-point name")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")

    def fires(self, hit: int) -> bool:
        """Whether this spec fires on the given 0-based occurrence."""
        return self.after <= hit < self.after + self.times

    def spec(self) -> str:
        """The canonical one-token spelling (parse/spec round-trips)."""
        out = f"{self.point}:{self.kind}"
        if self.after:
            out += f"@{self.after}"
        if self.times != 1:
            out += f"*{self.times}"
        if self.seconds:
            out += f"~{self.seconds:g}"
        return out

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        token = text.strip()
        point, sep, rest = token.rpartition(":")
        if not sep or not point:
            raise ValueError(
                f"bad fault spec {text!r}; expected 'point:kind[@A][*T][~S]'"
            )
        kind = rest
        seconds = 0.0
        times = 1
        after = 0
        if "~" in kind:
            kind, _, sec = kind.partition("~")
            seconds = float(sec)
        if "*" in kind:
            kind, _, t = kind.partition("*")
            times = int(t)
        if "@" in kind:
            kind, _, a = kind.partition("@")
            after = int(a)
        return cls(
            point=point, kind=kind, times=times, after=after, seconds=seconds
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of planned failures for one run.

    The seed does not randomize anything here — firing is purely
    occurrence-counted — but it labels the plan (campaign metadata, the
    chaos matrix) and seeds the deterministic retry jitter derived from
    it, so two plans differing only in seed back off differently while
    each replays byte-identically.
    """

    faults: tuple = ()
    seed: int = 0
    _by_point: dict = field(
        default=None, compare=False, repr=False, hash=False
    )

    def __post_init__(self):
        faults = tuple(
            FaultSpec.parse(f) if isinstance(f, str) else f
            for f in self.faults
        )
        object.__setattr__(self, "faults", faults)
        by_point: dict = {}
        for f in faults:
            by_point.setdefault(f.point, []).append(f)
        object.__setattr__(self, "_by_point", by_point)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def for_point(self, point: str) -> list:
        """The specs planned for one injection point (possibly empty)."""
        return self._by_point.get(point, [])

    @property
    def points(self) -> tuple:
        return tuple(sorted(self._by_point))

    def spec(self) -> str:
        """The canonical one-line spelling (parse/spec round-trips)."""
        parts = [f.spec() for f in self.faults]
        if self.seed:
            parts.insert(0, f"seed={self.seed}")
        return ";".join(parts)

    @classmethod
    def parse(
        cls, text: Union[str, "FaultPlan", None]
    ) -> Optional["FaultPlan"]:
        """Parse a plan spec; ``None``/empty text parses to ``None``."""
        if text is None or isinstance(text, FaultPlan):
            return text or None
        seed = 0
        faults: list = []
        for token in str(text).split(";"):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                seed = int(token[len("seed="):])
                continue
            faults.append(FaultSpec.parse(token))
        if not faults:
            return None
        return cls(faults=tuple(faults), seed=seed)

    @classmethod
    def build(
        cls, faults: Iterable[Union[str, FaultSpec]], seed: int = 0
    ) -> "FaultPlan":
        return cls(faults=tuple(faults), seed=seed)
