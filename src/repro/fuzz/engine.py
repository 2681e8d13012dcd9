"""The coverage-guided fuzzing engine.

The loop is classic greybox fuzzing with the coverage map swapped out for
anomaly shapes (:mod:`repro.fuzz.feedback`):

1. **schedule** — pick a corpus seed by energy (or draw a fresh random
   plan), mutate it (:mod:`repro.fuzz.mutate`), occasionally perturbing
   the isolation level and store backend;
2. **execute** — record the plan and run the predictive analysis through
   the ordinary :class:`repro.api.Analysis` session (in-process solver,
   conflict-bounded budget — no wall-clock anywhere in the verdict path);
3. **judge** — fingerprint the outcome; a novel *shape fingerprint* is a
   find: the witness is shrunk through ``minimize_witness`` and appended
   to the JSONL corpus; a novel *coverage key* earns the seed energy;
4. **repeat**.

Everything downstream of the scheduler RNG is a pure function of the
configuration, so a fixed ``seed`` with a fixed ``iterations`` budget
reproduces byte-identical corpora; a ``minutes`` budget is
prefix-deterministic (the iteration *sequence* is fixed, only where it
stops varies). Multi-worker runs derive per-worker seeds, run independent
deterministic loops, and merge finds in worker order with global shape
dedup — same guarantees, one corpus.
"""
from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Union

from ..faults import guarded_fault_point
from ..isolation.levels import IsolationLevel
from ..jsonl import write_atomic
from ..obs import (
    enabled as obs_enabled,
    flush_process_metrics,
    get_registry,
    span as obs_span,
)
from .corpus import (
    CorpusEntry,
    append_entry,
    load_corpus,
    make_witness_doc,
)
from .feedback import batch_fingerprints, coverage_key, shape_fingerprint
from .mutate import mutate_plan
from .plan import ProgramPlan, random_plan

__all__ = ["FuzzConfig", "FuzzReport", "Fuzzer", "IterationRecord", "fuzz"]

#: Iteration budget when neither ``iterations`` nor ``minutes`` is given.
DEFAULT_ITERATIONS = 40

#: Isolation levels the perturbation draw rotates through.
_ISOLATIONS = ("causal", "ra", "rc")

#: Store backends the perturbation draw rotates through. Backends never
#: change verdicts (the global-policy invariant), but they change the
#: cross-shard attribution signal in the coverage key — scheduling-only
#: diversity, by construction portable at the corpus level.
_BACKENDS = ("inmemory", "sharded:2")

#: Hard floor under energy decay, so no seed is ever fully starved.
_MIN_ENERGY = 0.05


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzzing campaign's knobs — all of them picklable scalars."""

    seed: int = 0
    iterations: Optional[int] = None
    minutes: Optional[float] = None
    isolation: str = "causal"
    backend: str = "inmemory"
    k: int = 2
    guided: bool = True
    fresh_probability: float = 0.15
    perturb_probability: float = 0.2
    max_mutations: int = 3
    max_conflicts: int = 20_000
    record_seed: int = 0

    def __post_init__(self):
        IsolationLevel.parse(self.isolation)  # raises on garbage
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.minutes is not None and self.minutes <= 0:
            raise ValueError("minutes must be > 0")


@dataclass
class IterationRecord:
    """One scheduled scenario and its judged outcome (report/debug row)."""

    index: int
    plan_id: str
    parent: Optional[str]
    trail: tuple[str, ...]
    isolation: str
    backend: str
    status: str
    fingerprints: tuple[str, ...]
    coverage: str
    novel_shapes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "plan_id": self.plan_id,
            "parent": self.parent,
            "trail": list(self.trail),
            "isolation": self.isolation,
            "backend": self.backend,
            "status": self.status,
            "fingerprints": list(self.fingerprints),
            "coverage": self.coverage,
            "novel_shapes": list(self.novel_shapes),
        }


@dataclass
class FuzzReport:
    """What a campaign (or one worker of it) produced."""

    config: FuzzConfig
    iterations: int
    finds: list[CorpusEntry] = field(default_factory=list)
    shapes: tuple[str, ...] = ()
    coverage_keys: tuple[str, ...] = ()
    records: list[IterationRecord] = field(default_factory=list)
    workers: int = 1

    def summary(self) -> dict:
        """The machine-readable roll-up the CLI prints as JSON."""
        return {
            "seed": self.config.seed,
            "guided": self.config.guided,
            "workers": self.workers,
            "iterations": self.iterations,
            "finds": len(self.finds),
            "distinct_shapes": len(self.shapes),
            "distinct_coverage_keys": len(self.coverage_keys),
            "shapes": list(self.shapes),
        }


@dataclass
class _Seed:
    """A corpus seed under energy scheduling."""

    id: str
    plan: ProgramPlan
    energy: float = 1.0


class Fuzzer:
    """A single deterministic fuzzing loop (one worker's worth).

    ``corpus_path`` makes finds durable as they happen (single-worker
    streaming, the campaign JSONL convention); multi-worker runs keep
    finds in memory and let :func:`fuzz` merge and write them.
    """

    def __init__(
        self,
        config: FuzzConfig,
        corpus_path: Optional[Union[str, Path]] = None,
        preload: Optional[list[CorpusEntry]] = None,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.config = config
        self.corpus_path = Path(corpus_path) if corpus_path else None
        self._log = log or (lambda message: None)
        self.rng = random.Random(f"fuzz:{config.seed}")
        self.iteration = 0
        self.population: list[_Seed] = []
        self.seen_shapes: set[str] = set()
        self.seen_coverage: set[str] = set()
        self.finds: list[CorpusEntry] = []
        self.records: list[IterationRecord] = []
        for entry in preload or ():
            self.seen_shapes.update(entry.fingerprints)
            self.population.append(
                _Seed(id=entry.id, plan=entry.plan, energy=1.0)
            )

    # -- scheduling -----------------------------------------------------
    def _fresh_plan(self) -> ProgramPlan:
        return random_plan(self.rng.randrange(2**32))

    def _choose(self) -> tuple[ProgramPlan, Optional[_Seed], tuple[str, ...]]:
        """The next scenario: ``(plan, parent seed or None, trail)``."""
        if not self.config.guided:
            return self._fresh_plan(), None, ()
        if not self.population or (
            self.rng.random() < self.config.fresh_probability
        ):
            return self._fresh_plan(), None, ()
        parent = self.rng.choices(
            self.population, weights=[s.energy for s in self.population]
        )[0]
        n = self.rng.randint(1, self.config.max_mutations)
        mutant, trail = mutate_plan(
            parent.plan, self.rng.randrange(2**32), n_mutations=n
        )
        return mutant, parent, trail

    def _perturb(self) -> tuple[str, str]:
        """This iteration's (isolation, backend) — mostly the configured
        ones, occasionally rotated (the issue's isolation/backend
        perturbation mutations, drawn from the same scheduler RNG)."""
        isolation = self.config.isolation
        backend = self.config.backend
        if self.rng.random() < self.config.perturb_probability:
            isolation = self.rng.choice(_ISOLATIONS)
        if self.rng.random() < self.config.perturb_probability:
            backend = self.rng.choice(_BACKENDS)
        return isolation, backend

    # -- execution ------------------------------------------------------
    def _analyze(self, plan: ProgramPlan, isolation: str, backend: str):
        """Record + predict one plan; returns ``(batch, observed, meta)``."""
        from ..api import Analysis
        from ..sources import FuzzSource

        # closing the session closes the backend it built from ``backend``
        with Analysis(
            FuzzSource(plan=plan, seed=self.config.record_seed),
            backend=backend,
        ) as session:
            session.under(isolation).using(
                "approx-relaxed",
                max_seconds=None,  # conflict-bounded: deterministic verdicts
                max_conflicts=self.config.max_conflicts,
            )
            batch = session.predict(self.config.k)
            return batch, session.history, dict(session.recorded.meta)

    # -- the loop -------------------------------------------------------
    def step(self) -> IterationRecord:
        """One schedule → execute → judge round."""
        # the fault seam comes FIRST — before any scheduler-RNG draw —
        # and absorbs transient faults in place, so an injected plan can
        # never perturb the deterministic mutation stream (faults never
        # change verdicts, and here: never change the corpus)
        guarded_fault_point("fuzz.iteration", iteration=self.iteration)
        with obs_span("fuzz.iteration", iteration=self.iteration) as it_span:
            plan, parent, trail = self._choose()
            isolation, backend = self._perturb()
            iso_name = str(IsolationLevel.parse(isolation))
            batch, observed, meta = self._analyze(plan, isolation, backend)
            fingerprints = tuple(batch_fingerprints(batch, observed))
            cov = coverage_key(batch, observed, meta)
            novel = tuple(
                fp
                for fp in dict.fromkeys(fingerprints)
                if fp not in self.seen_shapes
            )
            record = IterationRecord(
                index=self.iteration,
                plan_id=plan.digest(),
                parent=parent.id if parent else None,
                trail=trail,
                isolation=iso_name,
                backend=backend,
                status=batch.status.value,
                fingerprints=fingerprints,
                coverage=cov,
                novel_shapes=novel,
            )
            if novel:
                self._admit(
                    plan, parent, trail, iso_name, backend, batch, observed,
                    novel,
                )
            rewarded = bool(novel)
            if cov not in self.seen_coverage:
                self.seen_coverage.add(cov)
                rewarded = True
            if parent is not None:
                if rewarded:
                    parent.energy += 1.0
                else:
                    parent.energy = max(_MIN_ENERGY, parent.energy * 0.7)
            it_span.set(status=batch.status.value, novel=len(novel))
        if obs_enabled():
            reg = get_registry()
            reg.counter("fuzz_iterations").inc()
            if novel:
                reg.counter("fuzz_finds").inc(len(novel))
        self.records.append(record)
        self.iteration += 1
        return record

    def _admit(
        self, plan, parent, trail, isolation, backend, batch, observed,
        novel,
    ) -> None:
        """A novel anomaly shape: minimize, persist, and energize."""
        witness = None
        for prediction in batch.predictions:
            if prediction.predicted is None:
                continue
            if shape_fingerprint(prediction, observed) != novel[0]:
                continue
            from ..minimize import minimize_witness

            kernel = minimize_witness(prediction.predicted)
            witness = make_witness_doc(
                kernel, meta={"fingerprint": novel[0], "isolation": isolation}
            )
            break
        entry = CorpusEntry(
            id=f"{plan.digest()}-{isolation}",
            plan=plan,
            isolation=isolation,
            backend=backend,
            record_seed=self.config.record_seed,
            k=self.config.k,
            status=batch.status.value,
            predictions=len(batch),
            fingerprints=tuple(
                sorted(set(batch_fingerprints(batch, observed)))
            ),
            novel=novel[0],
            witness=witness,
            parent=parent.id if parent else None,
            trail=trail,
            iteration=self.iteration,
            meta={"max_conflicts": self.config.max_conflicts},
        )
        self.finds.append(entry)
        if self.corpus_path is not None:
            append_entry(self.corpus_path, entry)
        self.seen_shapes.update(novel)
        self.population.append(_Seed(id=entry.id, plan=plan, energy=2.0))
        self._log(
            f"[fuzz] it={self.iteration} find {entry.id}: {novel[0]}"
        )

    def run(self) -> FuzzReport:
        """Run to the configured budget and report."""
        config = self.config
        deadline = (
            time.monotonic() + config.minutes * 60.0
            if config.minutes is not None
            else None
        )
        budget = config.iterations
        if budget is None and deadline is None:
            budget = DEFAULT_ITERATIONS
        while True:
            if budget is not None and self.iteration >= budget:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            self.step()
        return FuzzReport(
            config=config,
            iterations=self.iteration,
            finds=list(self.finds),
            shapes=tuple(sorted(self.seen_shapes)),
            coverage_keys=tuple(sorted(self.seen_coverage)),
            records=list(self.records),
        )


# ---------------------------------------------------------------------------
# Multi-worker campaigns
# ---------------------------------------------------------------------------
def _worker_seed(seed: int, worker: int) -> int:
    """Derived per-worker scheduler seed (stable, collision-averse)."""
    return seed * 1_000_003 + worker


def _fuzz_worker(payload: dict) -> dict:
    """Pool entry point: run one worker loop, return its report as JSON."""
    config = FuzzConfig(**payload["config"])
    preload = [CorpusEntry.from_json(row) for row in payload["preload"]]
    with obs_span("fuzz.worker", worker=payload.get("worker", 0)):
        report = Fuzzer(config, preload=preload).run()
    flush_process_metrics()
    return {
        "iterations": report.iterations,
        "finds": [entry.to_json() for entry in report.finds],
        "shapes": list(report.shapes),
        "coverage_keys": list(report.coverage_keys),
        "records": [r.to_json() for r in report.records],
    }


def fuzz(
    config: FuzzConfig,
    jobs: int = 1,
    corpus_path: Optional[Union[str, Path]] = None,
    finds_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run a fuzzing campaign, fanning out over ``jobs`` workers.

    Workers run independent deterministic loops on derived seeds;
    their finds are merged *in worker order* with global shape dedup, so
    the merged corpus is as reproducible as a single-worker run. With
    ``resume=True`` the existing corpus is reloaded first: known shapes
    stop being "novel" and checked-in plans rejoin the population.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if resume and corpus_path is None:
        raise ValueError("resume requires a corpus path")
    preload = load_corpus(corpus_path) if resume and corpus_path else []
    if jobs == 1:
        if corpus_path is not None and not resume:
            write_atomic(corpus_path, "")
        report = Fuzzer(
            config, corpus_path=corpus_path, preload=preload, log=log
        ).run()
        report.finds = preload + report.finds if resume else report.finds
    else:
        report = _fuzz_pooled(config, jobs, preload, log)
        if corpus_path is not None:
            write_atomic(
                corpus_path,
                "".join(entry.line() + "\n" for entry in report.finds),
            )
    if finds_dir is not None:
        _write_finds(Path(finds_dir), report.finds)
    return report


def _fuzz_pooled(config, jobs, preload, log) -> FuzzReport:
    from ..campaign.executor import pool_imap

    payloads = []
    for worker in range(jobs):
        worker_config = replace(config, seed=_worker_seed(config.seed, worker))
        payloads.append(
            {
                "config": asdict(worker_config),
                "preload": [entry.to_json() for entry in preload],
                "worker": worker,
            }
        )
    shapes: set[str] = {fp for e in preload for fp in e.fingerprints}
    coverage: set[str] = set()
    finds: list[CorpusEntry] = list(preload)
    records: list[IterationRecord] = []
    iterations = 0
    for worker, result in enumerate(
        pool_imap(_fuzz_worker, payloads, jobs, ordered=True)
    ):
        iterations += result["iterations"]
        coverage.update(result["coverage_keys"])
        kept = 0
        for row in result["finds"]:
            entry = CorpusEntry.from_json(row)
            if entry.novel in shapes:
                continue  # another worker mined this shape first
            shapes.update(entry.fingerprints)
            finds.append(entry)
            kept += 1
        if log:
            log(
                f"[fuzz] worker {worker}: {result['iterations']} its, "
                f"{kept} new finds"
            )
    return FuzzReport(
        config=config,
        iterations=iterations,
        finds=finds,
        shapes=tuple(sorted(shapes)),
        coverage_keys=tuple(sorted(coverage)),
        records=records,
        workers=jobs,
    )


def _write_finds(finds_dir: Path, finds: list[CorpusEntry]) -> None:
    import json

    finds_dir.mkdir(parents=True, exist_ok=True)
    for entry in finds:
        (finds_dir / f"{entry.id}.json").write_text(
            json.dumps(entry.to_json(), indent=2, sort_keys=True)
        )
