"""Fleet-scale campaign coordination: shard, run anywhere, merge, resume.

A campaign's rounds are embarrassingly parallel, but one
:class:`~repro.campaign.executor.CampaignExecutor` owns one process pool
on one host. This module extends the same JSONL-resume design from one
pool to a *fleet*: K workers — separate processes, separate working
directories, possibly separate machines — each run a deterministic
**shard** of the spec through the unmodified executor, and a later
**merge** step folds the worker streams (and their SQLite archives) back
into one :class:`~repro.campaign.report.CampaignReport`.

The contract that makes this safe is the same one that makes
``--jobs N`` safe: every field of a round result except timings and
resilience meta is a pure function of the round spec, so *where* a round
ran cannot change what it measured. The merged report's
:meth:`~repro.campaign.report.CampaignReport.canonical_json` is therefore
**byte-identical** to a single-executor ``--jobs 1`` run of the same
spec — the acceptance invariant the ``fleet-smoke`` CI job enforces.

Sharding
--------
:func:`shard_rounds` partitions ``spec.rounds()`` — already a
deterministic expansion order — round-robin by index: round *i* belongs
to worker ``i % fleet``. Shards are disjoint, cover the spec, and their
sizes differ by at most one; the rule needs no coordination, so any host
that knows ``(spec, fleet, worker_id)`` computes its own work list.

Cross-host resume
-----------------
Workers stream results to their own JSONL files exactly like a local
campaign. :func:`merge_fleet` computes the union of completed round ids
across every worker stream, and — with ``heal=True`` — re-plans only the
gap through a local executor resuming over the merged stream. A worker
that died mid-shard (SIGKILL, lost host) therefore costs exactly its
unfinished rounds; quarantined/errored rows are retried by the same
resume convention the executor already uses (PR 8).

Archives
--------
When the spec's store backend is ``sqlite:<relative path>``, each worker
workdir gets its own archive file under the *same* canonical backend
spec (round ids — and so the merged report — stay identical to a
single-host run). :func:`merge_fleet` compacts the per-worker archives
into one reopenable archive via
:func:`repro.store.backends.compact_archive`.

Both coordinator seams are instrumented: ``fleet.shard`` / ``fleet.merge``
telemetry spans, and ``fleet.manifest`` / ``fleet.merge`` fault points so
the chaos suite covers manifest reads and merges like every other seam.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from ..faults import RetryPolicy, fault_point
from ..jsonl import write_atomic
from ..obs import span as obs_span
from .executor import CampaignExecutor, load_results_counted
from .report import CampaignReport
from .rounds import RoundResult
from .spec import CampaignSpec, RoundSpec

__all__ = [
    "FLEET_MANIFEST_VERSION",
    "FleetManifest",
    "FleetMerge",
    "WorkerEntry",
    "load_manifest",
    "merge_fleet",
    "plan_fleet",
    "run_worker",
    "shard_rounds",
    "worker_rounds",
]

#: Manifest schema version stamped into every written manifest; readers
#: reject newer files (same convention as the SQLite archive).
FLEET_MANIFEST_VERSION = 1


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
def shard_rounds(
    spec: CampaignSpec, fleet: int
) -> tuple[tuple[RoundSpec, ...], ...]:
    """Partition the spec's rounds into ``fleet`` deterministic shards.

    Round *i* of the deterministic expansion order goes to worker
    ``i % fleet`` — disjoint, covering, balanced to within one round,
    and computable by any host from ``(spec, fleet)`` alone. A fleet
    larger than the round count simply leaves the tail shards empty
    (an empty shard is a valid no-op worker).
    """
    if fleet < 1:
        raise ValueError("fleet size must be >= 1")
    shards: list[list[RoundSpec]] = [[] for _ in range(fleet)]
    for index, round_spec in enumerate(spec.rounds()):
        shards[index % fleet].append(round_spec)
    return tuple(tuple(shard) for shard in shards)


def worker_rounds(
    spec: CampaignSpec, fleet: int, worker_id: int
) -> tuple[RoundSpec, ...]:
    """The shard one worker owns (see :func:`shard_rounds`)."""
    if not 0 <= worker_id < fleet:
        raise ValueError(
            f"worker_id must be in [0, {fleet}); got {worker_id}"
        )
    return shard_rounds(spec, fleet)[worker_id]


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerEntry:
    """One worker's slot in a fleet manifest.

    ``workdir`` and ``results`` are stored relative to the manifest file
    so the whole fleet directory can be rsync'd between hosts; resolve
    them against :attr:`FleetManifest.root` before use.
    """

    worker_id: int
    workdir: str
    results: str
    round_ids: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "workdir": self.workdir,
            "results": self.results,
            "rounds": list(self.round_ids),
        }


@dataclass(frozen=True)
class FleetManifest:
    """A written description of one sharded campaign.

    The manifest is the hand-off artifact between hosts: it carries the
    full spec (so every worker validates the *same* sweep), the fleet
    size, and each worker's workdir/results layout. Round ids are
    recorded per worker purely as a staleness check — a manifest whose
    stored shards no longer match the spec's expansion must not be
    silently half-run.
    """

    spec: CampaignSpec
    fleet: int
    workers: tuple[WorkerEntry, ...]
    root: Path = field(default_factory=Path)
    version: int = FLEET_MANIFEST_VERSION

    def worker(self, worker_id: int) -> WorkerEntry:
        for entry in self.workers:
            if entry.worker_id == worker_id:
                return entry
        raise ValueError(
            f"no worker {worker_id} in fleet manifest "
            f"(fleet size {self.fleet})"
        )

    def workdir(self, worker_id: int) -> Path:
        return self.root / self.worker(worker_id).workdir

    def results_path(self, worker_id: int) -> Path:
        return self.root / self.worker(worker_id).results

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "name": self.spec.name,
            "fleet": self.fleet,
            "spec": self.spec.to_mapping(),
            "workers": [entry.to_json() for entry in self.workers],
        }

    def write(self, path: Union[str, Path]) -> Path:
        return write_atomic(
            path, json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        )


def plan_fleet(
    spec: CampaignSpec,
    fleet: int,
    root: Union[str, Path] = ".",
) -> FleetManifest:
    """Shard a spec into a manifest rooted at ``root``.

    Layout convention: worker *i* runs in ``worker-<i>/`` and streams to
    ``worker-<i>/rounds.jsonl`` — both relative to the manifest, so the
    fleet directory is relocatable.
    """
    shards = shard_rounds(spec, fleet)
    workers = tuple(
        WorkerEntry(
            worker_id=i,
            workdir=f"worker-{i}",
            results=f"worker-{i}/rounds.jsonl",
            round_ids=tuple(r.round_id for r in shard),
        )
        for i, shard in enumerate(shards)
    )
    return FleetManifest(
        spec=spec, fleet=fleet, workers=workers, root=Path(root)
    )


def load_manifest(path: Union[str, Path]) -> FleetManifest:
    """Read a fleet manifest, retrying transient I/O under the ambient
    :class:`~repro.faults.RetryPolicy`.

    The read is a first-class failure seam (``fleet.manifest``): a
    worker booting on a remote host may race the file landing, so
    transient faults retry instead of killing the shard; a corrupt or
    stale manifest is fatal with one clean message.
    """
    path = Path(path)

    def attempt() -> dict:
        fault_point("fleet.manifest", path=str(path))
        return json.loads(path.read_text())

    policy = RetryPolicy.from_env()
    try:
        data = policy.call(attempt, key=f"fleet.manifest|{path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt fleet manifest {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"fleet manifest {path} must be a JSON object")
    version = int(data.get("version", 0))
    if version > FLEET_MANIFEST_VERSION:
        raise ValueError(
            f"fleet manifest {path} has version {version}, newer than "
            f"this reader (supports <= {FLEET_MANIFEST_VERSION})"
        )
    spec = CampaignSpec.from_mapping(data["spec"])
    fleet = int(data["fleet"])
    workers = tuple(
        WorkerEntry(
            worker_id=int(w["worker_id"]),
            workdir=w["workdir"],
            results=w["results"],
            round_ids=tuple(w.get("rounds", ())),
        )
        for w in data.get("workers", ())
    )
    manifest = FleetManifest(
        spec=spec,
        fleet=fleet,
        workers=workers,
        root=path.parent,
        version=version,
    )
    _check_manifest_fresh(manifest, path)
    return manifest


def _check_manifest_fresh(manifest: FleetManifest, path: Path) -> None:
    """A manifest whose shards drifted from the spec expansion is stale.

    Happens when the spec file was edited after ``fleet plan`` — the
    workers would silently run the *old* partition while the merge
    expects the new one. Fail loud instead.
    """
    shards = shard_rounds(manifest.spec, manifest.fleet)
    for entry in manifest.workers:
        if not entry.round_ids:
            continue  # older/minimal manifests may omit the id lists
        want = tuple(r.round_id for r in shards[entry.worker_id])
        if entry.round_ids != want:
            raise ValueError(
                f"stale fleet manifest {path}: worker "
                f"{entry.worker_id}'s recorded shard no longer matches "
                "the spec expansion (re-run 'fleet plan')"
            )


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
def run_worker(
    manifest: FleetManifest,
    worker_id: int,
    *,
    jobs: int = 1,
    resume: bool = False,
    log: Optional[Callable[[str], None]] = None,
    out: Optional[Union[str, Path]] = None,
    **executor_kwargs,
) -> CampaignReport:
    """Run one worker's shard through the ordinary executor.

    The worker chdirs into its workdir for the duration, so a relative
    ``sqlite:`` backend path in the spec lands each worker's archive in
    its own directory while every round id (which contains the backend
    spec *string*) stays identical across the fleet — the property the
    merged report's byte-identity rests on.
    """
    entry = manifest.worker(worker_id)
    shard = worker_rounds(manifest.spec, manifest.fleet, worker_id)
    workdir = manifest.workdir(worker_id)
    workdir.mkdir(parents=True, exist_ok=True)
    results = Path(out) if out is not None else manifest.results_path(
        worker_id
    )
    results = results.resolve()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with obs_span(
            "fleet.shard",
            worker=worker_id,
            fleet=manifest.fleet,
            rounds=len(shard),
        ) as shard_span:
            executor = CampaignExecutor(
                manifest.spec,
                jobs=jobs,
                out=results,
                resume=resume,
                log=log,
                rounds=shard,
                **executor_kwargs,
            )
            report = executor.run()
            shard_span.set(
                completed=len(report.results), errors=report.errors
            )
    finally:
        os.chdir(previous)
    return report


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
@dataclass
class FleetMerge:
    """What one merge produced, and the bookkeeping of how.

    ``report`` is the authoritative merged campaign report. The counters
    describe the raw worker streams: ``corrupt_lines`` counts torn final
    lines, skipped under the :mod:`repro.jsonl` rule (never fatal),
    ``duplicates`` are redundant non-error rows for a round another
    stream already completed, ``superseded`` are error rows replaced by
    a later success, and ``missing_before_heal`` is the gap the heal
    step (``heal=True``) re-ran locally.
    """

    report: CampaignReport
    workers: int = 0
    rows_read: int = 0
    corrupt_lines: int = 0
    duplicates: int = 0
    superseded: int = 0
    stray_rows: int = 0
    missing_before_heal: tuple = ()
    errors_before_heal: int = 0
    healed: bool = False

    @property
    def complete(self) -> bool:
        """Every round of the spec has a non-error result."""
        done = {
            r.round_id for r in self.report.results if r.status != "error"
        }
        return all(
            r.round_id in done for r in self.report.spec.rounds()
        )

    def summary(self) -> dict:
        return {
            "workers": self.workers,
            "rows_read": self.rows_read,
            "corrupt_lines": self.corrupt_lines,
            "duplicates": self.duplicates,
            "superseded": self.superseded,
            "stray_rows": self.stray_rows,
            "missing_before_heal": len(self.missing_before_heal),
            "errors_before_heal": self.errors_before_heal,
            "healed": self.healed,
            "complete": self.complete,
        }


def merge_fleet(
    spec: CampaignSpec,
    streams: Sequence[Union[str, Path]],
    *,
    out: Union[str, Path],
    heal: bool = False,
    jobs: int = 1,
    log: Optional[Callable[[str], None]] = None,
    **executor_kwargs,
) -> FleetMerge:
    """Fold worker JSONL streams into one campaign report.

    The merge is pure bookkeeping plus (optionally) a local resume:

    1. read every stream, counting torn final lines instead of raising;
    2. keep one result per round id — first non-error row wins, later
       successes supersede earlier errors (a healed quarantine row), and
       redundant completions are counted as duplicates;
    3. write the merged stream to ``out``, sorted by round id;
    4. with ``heal=True``, run a standard executor over ``out`` with
       ``resume=True`` — it re-plans exactly the gap (missing rounds and
       error rows), which is how a worker that died mid-shard on another
       host is healed locally.

    Deterministic given the stream order: pass worker streams in worker
    id order. The resulting report's :meth:`~repro.campaign.report.
    CampaignReport.canonical_json` is byte-identical to a single
    ``--jobs 1`` executor run of the same spec once complete.
    """
    out = Path(out)
    with obs_span(
        "fleet.merge", workers=len(streams), campaign=spec.name
    ) as merge_span:

        def attempt():
            fault_point(
                "fleet.merge", workers=len(streams), out=str(out)
            )
            # a missing stream (a worker that died before its first
            # flush) is empty: that is the gap the heal step is for
            return [load_results_counted(stream) for stream in streams]

        policy = RetryPolicy.from_env()
        read = policy.call(attempt, key=f"fleet.merge|{out}")
        loaded = [results for results, _ in read]
        rows_read = sum(len(results) for results in loaded)
        corrupt = sum(torn for _, torn in read)

        wanted = {r.round_id for r in spec.rounds()}
        final: dict[str, RoundResult] = {}
        duplicates = superseded = stray = 0
        for results in loaded:
            for result in results:
                if result.round_id not in wanted:
                    stray += 1
                    continue
                current = final.get(result.round_id)
                if current is None:
                    final[result.round_id] = result
                elif (
                    current.status == "error"
                    and result.status != "error"
                ):
                    final[result.round_id] = result
                    superseded += 1
                else:
                    duplicates += 1

        merged = sorted(final.values(), key=lambda r: r.round_id)
        write_atomic(
            out, "".join(json.dumps(r.to_dict()) + "\n" for r in merged)
        )

        completed = {
            r.round_id for r in merged if r.status != "error"
        }
        missing = tuple(
            r.round_id
            for r in spec.rounds()
            if r.round_id not in completed
        )
        errors_before = sum(1 for r in merged if r.status == "error")

        healed = False
        if heal and missing:
            if log is not None:
                log(
                    f"[{spec.name}] fleet merge: healing "
                    f"{len(missing)} round(s) missing or errored "
                    f"across {len(streams)} worker stream(s)"
                )
            executor = CampaignExecutor(
                spec,
                jobs=jobs,
                out=out,
                resume=True,
                log=log,
                **executor_kwargs,
            )
            report = executor.run()
            healed = True
        else:
            report = CampaignReport.build(
                spec, merged, jobs=jobs, cancelled=False
            )
        merge_span.set(
            rows=rows_read,
            merged=len(merged),
            missing=len(missing),
            healed=healed,
        )
    return FleetMerge(
        report=report,
        workers=len(streams),
        rows_read=rows_read,
        corrupt_lines=corrupt,
        duplicates=duplicates,
        superseded=superseded,
        stray_rows=stray,
        missing_before_heal=missing,
        errors_before_heal=errors_before,
        healed=healed,
    )
