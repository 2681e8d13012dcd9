"""ASCII rendering of execution histories."""
from __future__ import annotations

from ..history.events import ReadEvent
from ..history.model import History
from ..isolation.axioms import edges_cycle, pco_edges

__all__ = ["history_to_text"]


def history_to_text(history: History, include_pco: bool = False) -> str:
    """A column-per-session textual rendering with a wr summary.

    With ``include_pco``, appends the derived ww/rw edges and a witnessing
    cycle when the history is unserializable.
    """
    lines: list[str] = []
    initial = ", ".join(
        f"{k}={v!r}" for k, v in sorted(history.initial_values.items())
    )
    lines.append(f"initial state (t0): {initial or '(empty)'}")
    for session, txns in sorted(history.sessions().items()):
        lines.append(f"session {session}:")
        for txn in txns:
            lines.append(f"  {txn.tid}:")
            for event in sorted(txn.events, key=lambda e: e.pos):
                if isinstance(event, ReadEvent):
                    lines.append(
                        f"    read({event.key})  <- {event.writer}"
                        + (
                            f"  [= {event.value!r}]"
                            if event.value is not None
                            else ""
                        )
                    )
                else:
                    lines.append(
                        f"    write({event.key})"
                        + (
                            f"  [= {event.value!r}]"
                            if event.value is not None
                            else ""
                        )
                    )
            lines.append("    commit")
    if include_pco:
        derived = pco_edges(history)
        for kind in ("ww", "rw"):
            edges = ", ".join(f"{a}->{b}" for a, b in sorted(derived[kind]))
            if edges:
                lines.append(f"{kind} edges: {edges}")
        cycle = edges_cycle(history, derived)
        if cycle:
            lines.append(
                "UNSERIALIZABLE: pco cycle " + " < ".join(cycle)
            )
    return "\n".join(lines)
