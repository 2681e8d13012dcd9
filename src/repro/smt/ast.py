"""Hash-consed expression AST for the SMT substrate.

The fragment implemented here is exactly what IsoPredict's constraint
generation needs (paper §4 and Appendix B):

* Boolean structure: variables, ``And``/``Or``/``Not``/``Implies``.
* Finite-domain variables (``EnumVar``) compared against constants
  (``EnumEq``), used for ``choice(s, i)`` and ``boundary(s)``.
* One-sided order atoms ``x < y`` over integer variables
  (:func:`OneSidedLt`), used for commit-order positions and decided by
  the difference-logic theory.

Expressions are immutable and interned (hash-consed), so structurally equal
subterms are the same object; the Tseitin transform in :mod:`repro.smt.cnf`
exploits this to emit each shared subformula once. Constructors constant-fold
aggressively because IsoPredict instantiates schema constraints over observed
relations that are mostly static (e.g. ``phi_so`` is a constant per pair).
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
    """A hash-consed expression node.

    ``kind`` is one of ``true``, ``false``, ``var``, ``not``, ``and``, ``or``,
    ``enum_eq``, ``lt``. ``args`` holds children for connectives, or the
    defining payload for atoms. Use the module-level constructors rather than
    instantiating directly.
    """

    __slots__ = ("kind", "args", "_hash")

    _table: dict[tuple, "Expr"] = {}

    def __new__(cls, kind: str, args: tuple):
        key = (kind, args)
        found = cls._table.get(key)
        if found is not None:
            return found
        node = super().__new__(cls)
        node.kind = kind
        node.args = args
        node._hash = hash(key)
        cls._table[key] = node
        return node

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other

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


def _complement_of(e: Expr) -> "Expr | None":
    """The interned negation of ``e`` if it already exists, else None.

    Complement checks in And/Or only need to ask "is ¬e among the other
    conjuncts/disjuncts?" — if ¬e was never interned it cannot be, so this
    avoids allocating (and permanently interning) a Not node per argument
    of every connective built.
    """
    if e.kind == "not":
        return e.args[0]
    return Expr._table.get(("not", (e,)))


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
            if a is b:
                return a
            comp = a.args[0] if a.kind == "not" else None
            if comp is b or (b.kind == "not" and b.args[0] is a):
                return FALSE
            return Expr("and", (a, b))
    flat = _flatten("and", es)
    seen: dict[Expr, None] = {}
    for e in flat:
        if e is FALSE:
            return FALSE
        if e is TRUE:
            continue
        comp = _complement_of(e)
        if comp is not None and comp in seen:
            return FALSE
        seen[e] = None
    if not seen:
        return TRUE
    if len(seen) == 1:
        return next(iter(seen))
    return Expr("and", tuple(seen))


def Or(*es: Expr) -> Expr:
    """Disjunction with flattening, deduplication and constant folding."""
    flat = _flatten("or", es)
    seen: dict[Expr, None] = {}
    for e in flat:
        if e is TRUE:
            return TRUE
        if e is FALSE:
            continue
        comp = _complement_of(e)
        if comp is not None and comp in seen:
            return TRUE
        seen[e] = None
    if not seen:
        return FALSE
    if len(seen) == 1:
        return next(iter(seen))
    return Expr("or", tuple(seen))


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
    member. The CNF layer adds exactly-one constraints over the variable's
    candidate members, so a model always assigns each EnumVar one value.
    """

    __slots__ = ("name", "sort", "candidates")

    def __init__(self, name: str, sort: EnumSort, candidates=None):
        self.name = name
        self.sort = sort
        if candidates is None:
            self.candidates = tuple(sort.values)
        else:
            self.candidates = tuple(candidates)
            for value in self.candidates:
                sort.index_of(value)
        if not self.candidates:
            raise SortError(f"enum var {name!r} has an empty domain")

    def eq(self, value: object) -> Expr:
        """Atom: this variable equals ``value``.

        FALSE if ``value`` is not a candidate, TRUE if it is the only one
        (the exactly-one constraint would pin the atom anyway).
        """
        index = self.sort.index_of(value)
        if value not in self.candidates:
            return FALSE
        if len(self.candidates) == 1:
            return TRUE
        return Expr("enum_eq", (self, index))

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

