"""Isolation-level axioms and checkers (paper §2.2–§2.4).

Graph-based polynomial checks for causal and read committed, the sound
pco-cycle unserializability witness of §4.2.2, and serializability decision
procedures (a session-frontier search for real use, brute force as a test
oracle). None of them uses the SMT substrate whose predictions they check.
"""
from .levels import IsolationLevel
from .axioms import (
    pco_cycle,
    pco_edges,
    pco_fixpoint,
    rw_edges,
    ww_causal_pairs,
    ww_rc_pairs,
    ww_read_atomic_pairs,
)
from .checkers import (
    SerializabilityReport,
    is_causal,
    is_read_atomic,
    is_read_committed,
    is_serializable,
    is_serializable_bruteforce,
    is_valid_under,
    pco_unserializable,
)

__all__ = [
    "IsolationLevel",
    "SerializabilityReport",
    "is_causal",
    "is_read_atomic",
    "is_read_committed",
    "is_serializable",
    "is_serializable_bruteforce",
    "is_valid_under",
    "pco_cycle",
    "pco_edges",
    "pco_fixpoint",
    "pco_unserializable",
    "rw_edges",
    "ww_causal_pairs",
    "ww_rc_pairs",
    "ww_read_atomic_pairs",
]
