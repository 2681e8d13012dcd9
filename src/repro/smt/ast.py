"""Expression AST for the SMT substrate.

The fragment implemented here is exactly what IsoPredict's constraint
generation needs (paper §4 and Appendix B):

* Boolean structure: variables, ``And``/``Or``/``Not``/``Implies``.
* Finite-domain variables (``EnumVar``) compared against constants
  (``EnumEq``), used for ``choice(s, i)`` and ``boundary(s)``.
* One-sided order atoms ``x < y`` over integer variables
  (:func:`OneSidedLt`), used for commit-order positions and decided by
  the difference-logic theory.

Expressions are immutable values: two nodes are equal when they have the
same kind and equal arguments, and their hash is computed once, at
construction. Nothing is interned, so a term lives exactly as long as the
encoding or solver that holds it. Sharing does not need identity: the
Tseitin transform in :mod:`repro.smt.cnf` caches one literal per
structurally distinct node, so it still emits each shared subformula once.
Constructors constant-fold aggressively because IsoPredict instantiates
schema constraints over observed relations that are mostly static (e.g.
``phi_so`` is a constant per pair).
"""
from __future__ import annotations

from typing import Iterable

from .errors import SortError

__all__ = [
    "Expr",
    "TRUE",
    "FALSE",
    "Bool",
    "Not",
    "And",
    "Or",
    "Implies",
    "EnumSort",
    "EnumVar",
    "OneSidedLt",
]


class Expr:
    """An immutable expression node, compared by structure.

    ``kind`` is one of ``true``, ``false``, ``var``, ``not``, ``and``, ``or``,
    ``enum_eq``, ``lt``. ``args`` holds children for connectives, or the
    defining payload for atoms. Use the module-level constructors rather than
    instantiating directly; ``TRUE`` and ``FALSE`` are the only constants.
    """

    __slots__ = ("kind", "args", "_hash")

    def __init__(self, kind: str, args: tuple):
        self.kind = kind
        self.args = args
        self._hash = hash((kind, args))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is Expr
            and self._hash == other._hash
            and self.kind == other.kind
            and self.args == other.args
        )

    def __repr__(self) -> str:
        return _render(self)


TRUE = Expr("true", ())
FALSE = Expr("false", ())


def Bool(name: str) -> Expr:
    """A named Boolean variable."""
    return Expr("var", (name,))


def Not(e: Expr) -> Expr:
    if e is TRUE:
        return FALSE
    if e is FALSE:
        return TRUE
    if e.kind == "not":
        return e.args[0]
    return Expr("not", (e,))


def _flatten(kind: str, es: Iterable[Expr]) -> list[Expr]:
    out: list[Expr] = []
    for e in es:
        if not isinstance(e, Expr):
            raise SortError(f"expected Expr, got {type(e).__name__}: {e!r}")
        if e.kind == kind:
            out.extend(e.args)
        else:
            out.append(e)
    return out


def _fold(kind: str, es: Iterable[Expr], unit: Expr, zero: Expr) -> Expr:
    """Flatten, deduplicate and constant-fold an ``and``/``or`` node.

    ``unit`` is dropped and ``zero`` absorbs (``TRUE``/``FALSE`` for And).
    An argument next to its own complement absorbs too. The check is local
    to the arguments: ``negated`` holds ``e`` for every ``Not(e)`` seen so
    far, so no ``Not`` node is built to ask whether one is present.
    """
    seen: dict[Expr, None] = {}
    negated: set[Expr] = set()
    for e in _flatten(kind, es):
        if e is zero:
            return zero
        if e is unit:
            continue
        if e.kind == "not":
            if e.args[0] in seen:
                return zero
            negated.add(e.args[0])
        elif e in negated:
            return zero
        seen[e] = None
    if not seen:
        return unit
    if len(seen) == 1:
        return next(iter(seen))
    return Expr(kind, tuple(seen))


def And(*es: Expr) -> Expr:
    """Conjunction with flattening, deduplication and constant folding."""
    if len(es) == 2:
        # fast path for the dominant binary case (a choice atom and its
        # boundary guard)
        a, b = es
        if (
            type(a) is Expr
            and type(b) is Expr
            and a.kind != "and"
            and b.kind != "and"
            and a is not TRUE
            and a is not FALSE
            and b is not TRUE
            and b is not FALSE
        ):
            if a == b:
                return a
            if (a.kind == "not" and a.args[0] == b) or (
                b.kind == "not" and b.args[0] == a
            ):
                return FALSE
            return Expr("and", (a, b))
    return _fold("and", es, TRUE, FALSE)


def Or(*es: Expr) -> Expr:
    """Disjunction with flattening, deduplication and constant folding."""
    return _fold("or", es, FALSE, TRUE)


def Implies(a: Expr, b: Expr) -> Expr:
    return Or(Not(a), b)


def OneSidedLt(x: str, y: str) -> Expr:
    """The *one-sided* order atom ``x < y`` over integer variables ``x``, ``y``.

    The only integer atom of the fragment: the weak-isolation commit orders
    (paper §4.3) are existential witnesses that occur only as implication
    heads, so asserting the literal true adds the difference constraint
    ``x - y <= -1`` and asserting it false imposes no converse ordering.
    The solver may therefore decide such atoms negatively without touching
    the difference-logic graph.
    """
    if x == y:
        return FALSE
    return Expr("lt", (x, y))


# ---------------------------------------------------------------------------
# Finite-domain (enum) variables
# ---------------------------------------------------------------------------


class EnumSort:
    """A finite sort: a named, ordered collection of Python values."""

    __slots__ = ("name", "values", "_index")

    def __init__(self, name: str, values: Iterable[object]):
        self.name = name
        self.values = tuple(values)
        if len(set(self.values)) != len(self.values):
            raise SortError(f"duplicate values in enum sort {name!r}")
        self._index = {v: i for i, v in enumerate(self.values)}

    def index_of(self, value: object) -> int:
        try:
            return self._index[value]
        except KeyError:
            raise SortError(
                f"{value!r} is not a member of enum sort {self.name!r}"
            ) from None

    def __repr__(self) -> str:
        return f"EnumSort({self.name!r}, {len(self.values)} values)"


class EnumVar:
    """A variable ranging over (a subset of) an :class:`EnumSort`.

    ``var.eq(value)`` produces the atom asserting the variable equals that
    member; the variable holds one atom per member, so they are freed
    with the encoding that owns it. The CNF layer adds exactly-one
    constraints over the variable's candidate members, so a model always
    assigns each EnumVar one value.
    """

    __slots__ = ("name", "sort", "candidates", "_eq")

    def __init__(self, name: str, sort: EnumSort, candidates=None):
        self.name = name
        self.sort = sort
        self.candidates = tuple(
            sort.values if candidates is None else candidates
        )
        if not self.candidates:
            raise SortError(f"enum var {name!r} has an empty domain")
        atoms = [  # index_of rejects a candidate outside the sort
            Expr("enum_eq", (self, sort.index_of(value)))
            for value in self.candidates
        ]
        if len(atoms) == 1:
            atoms = [TRUE]
        self._eq = dict(zip(self.candidates, atoms))

    def eq(self, value: object) -> Expr:
        """Atom: this variable equals ``value``.

        FALSE if ``value`` is not a candidate, TRUE if it is the only one
        (the exactly-one constraint would pin the atom anyway).
        """
        self.sort.index_of(value)  # a non-member is an error, not FALSE
        return self._eq.get(value, FALSE)

    def ne(self, value: object) -> Expr:
        return Not(self.eq(value))

    def __repr__(self) -> str:
        return f"EnumVar({self.name!r}:{self.sort.name})"


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _render(e: Expr, depth: int = 0) -> str:
    if e.kind == "true":
        return "true"
    if e.kind == "false":
        return "false"
    if e.kind == "var":
        return e.args[0]
    if e.kind == "enum_eq":
        var, idx = e.args
        return f"({var.name} = {var.sort.values[idx]!r})"
    if e.kind == "lt":
        x, y = e.args
        return f"({x} < {y})"
    if e.kind == "not":
        return f"(not {_render(e.args[0], depth + 1)})"
    if depth > 4:
        return f"({e.kind} ...{len(e.args)} args)"
    inner = " ".join(_render(a, depth + 1) for a in e.args)
    return f"({e.kind} {inner})"

