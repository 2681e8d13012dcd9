"""Executable applications over program plans.

:class:`PlanApp` runs any valid :class:`~repro.fuzz.plan.ProgramPlan` as an
:class:`~repro.bench_apps.base.AppSpec`; :class:`RandomApp` is the original
blind generator, now a thin subclass that derives its plan from a shape
seed. Property tests drive the entire pipeline over these apps:

* observed recordings must always be serializable,
* random weak-isolation runs must satisfy the target level,
* every prediction must pass the graph-side oracles,
* every validation must either validate or surface divergence.

This is the reproduction's analogue of MonkeyDB's role as a testing tool,
turned inward on IsoPredict itself.
"""
from __future__ import annotations

from typing import Optional

from ..bench_apps.base import AppSpec, WorkloadConfig
from ..store.kvstore import DataStore
from .plan import ProgramPlan, random_plan

__all__ = ["PlanApp", "RandomApp", "random_app"]


class PlanApp(AppSpec):
    """An application executing a :class:`ProgramPlan` verbatim.

    The *shape* of every transaction (op kinds, keys, amounts) is the plan
    itself, independent of the scheduler seed, so recording and validation
    replay issue identical intents — the §7.1 determinism contract, with
    the plan as the single source of truth.
    """

    name = "planapp"

    def __init__(
        self,
        plan: ProgramPlan,
        config: Optional[WorkloadConfig] = None,
    ):
        self.ddl = ()
        super().__init__(config or WorkloadConfig.tiny())
        problems = plan.problems()
        if problems:
            raise ValueError(
                f"plan is not executable: {'; '.join(problems[:3])}"
            )
        self.plan = plan
        self.keys = list(plan.keys)

    # ------------------------------------------------------------------
    def initial_state(self) -> dict[str, object]:
        return {k: 0 for k in self.keys}

    def programs(self):
        out = {}
        for index, session_plan in enumerate(self.plan.sessions):
            session = f"s{index + 1}"

            def program(client, rng, txns=session_plan):
                for ops in txns:
                    aborted = False
                    for op in ops:
                        kind, key, arg = op
                        if kind == "read":
                            client.get(key)
                        elif kind == "write":
                            client.put(key, arg)
                        elif kind == "rmw":
                            value = client.get(key) or 0
                            client.put(key, value + arg)
                        elif kind == "guard":
                            value = client.get(key) or 0
                            if value >= arg:
                                client.rollback()
                                aborted = True
                                break
                    if not aborted:
                        client.commit()
                    yield

            out[session] = program
        return out

    def check_assertions(self, store: DataStore) -> list[str]:
        return []  # plan apps carry no invariants


class RandomApp(PlanApp):
    """A randomly generated transactional application (the blind generator).

    The plan is a deterministic function of ``shape_seed`` alone —
    byte-compatible with the original single-module ``repro.fuzz`` — so two
    instances with the same shape seed issue identical intents.
    """

    name = "randomapp"

    def __init__(
        self,
        shape_seed: int,
        config: Optional[WorkloadConfig] = None,
        n_keys: int = 3,
        ops_per_txn: tuple[int, int] = (1, 4),
        abort_probability: float = 0.15,
    ):
        config = config or WorkloadConfig.tiny()
        super().__init__(
            random_plan(
                shape_seed,
                config,
                n_keys=n_keys,
                ops_per_txn=ops_per_txn,
                abort_probability=abort_probability,
            ),
            config,
        )
        self.shape_seed = shape_seed

    @property
    def _plans(self) -> dict[int, list[list[tuple]]]:
        """The pre-package plan attribute, kept for compatibility."""
        return {
            i: [list(txn) for txn in session]
            for i, session in enumerate(self.plan.sessions)
        }


def random_app(
    shape_seed: int, config: Optional[WorkloadConfig] = None, **kwargs
) -> RandomApp:
    """Convenience constructor mirroring the benchmark app classes."""
    return RandomApp(shape_seed, config, **kwargs)
