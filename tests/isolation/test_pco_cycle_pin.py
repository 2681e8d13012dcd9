"""Pin which cycle ``pco_cycle`` returns, not only whether it finds one.

Corpus fingerprints and ``watch`` finding keys are derived from the
returned cycle, so a change of graph search must hand back the same walk.
``pco_cycle_pin.json`` holds a sha256 over the cycles of the gallery
histories, the corpus witnesses and 4,000 seeded random histories (at most
8 transactions over 4 sessions and 3 keys), computed when the walk came
from networkx's ``find_cycle``. Regenerate it from the repository root
only for an intended change of cycle choice::

    PYTHONPATH=src python -m tests.isolation.test_pco_cycle_pin \\
        > tests/isolation/pco_cycle_pin.json
"""
import hashlib
import json
import random
from pathlib import Path

from repro import gallery
from repro.fuzz import load_corpus
from repro.history import HistoryBuilder
from repro.isolation import pco_cycle

PIN_PATH = Path(__file__).parent / "pco_cycle_pin.json"
CORPUS_PATH = Path(__file__).parents[1] / "corpus" / "corpus.jsonl"
KEYS = ["x", "y", "z"]


def random_history(rng: random.Random):
    """A structurally valid history whose reads pick any other writer."""
    n_sessions = rng.randint(1, 4)
    plans = []
    for i in range(rng.randint(1, 8)):
        ops = [
            (rng.choice("rw"), rng.choice(KEYS))
            for _ in range(rng.randint(1, 3))
        ]
        plans.append((f"t{i + 1}", f"s{rng.randrange(n_sessions)}", ops))
    writers = {k: ["t0"] for k in KEYS}
    for tid, _, ops in plans:
        for kind, key in ops:
            if kind == "w" and tid not in writers[key]:
                writers[key].append(tid)
    b = HistoryBuilder(initial={k: 0 for k in KEYS})
    for tid, session, ops in plans:
        tb = b.txn(tid, session)
        for kind, key in ops:
            if kind == "w":
                tb.write(key, 1)
            else:
                tb.read(
                    key, writer=rng.choice(
                        [w for w in writers[key] if w != tid]
                    )
                )
    return b.build()


def pinned_histories():
    for name in gallery.__all__:
        made = getattr(gallery, name)()
        if isinstance(made, dict):
            for pair in made.values():
                yield from pair
        else:
            yield made
    for entry in load_corpus(CORPUS_PATH):
        yield entry.witness_history()
    rng = random.Random(0)
    for _ in range(4000):
        yield random_history(rng)


def pin() -> dict:
    cycles = [pco_cycle(history) for history in pinned_histories()]
    digest = hashlib.sha256()
    for cycle in cycles:
        digest.update((json.dumps(cycle) + "\n").encode())
    return {
        "histories": len(cycles),
        "cyclic": sum(1 for cycle in cycles if cycle),
        "sha256": digest.hexdigest(),
    }


def test_pco_cycle_matches_the_pinned_walks():
    assert pin() == json.loads(PIN_PATH.read_text())


if __name__ == "__main__":
    print(json.dumps(pin(), indent=2))
