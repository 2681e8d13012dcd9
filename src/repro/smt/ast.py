"""Hash-consed expression AST for the SMT substrate.

The fragment implemented here is exactly what IsoPredict's constraint
generation needs (paper §4 and Appendix B):

* Boolean structure: variables, ``And``/``Or``/``Not``/``Implies``/``Iff``.
* Finite-domain variables (``EnumVar``) compared against constants
  (``EnumEq``), used for ``choice(s, i)`` and ``boundary(s)``.
* Integer variables under *difference logic*: atoms of the form
  ``x - y <= c``, used for commit-order positions, plus
  ``Distinct`` sugar for pairwise-distinct positions.

Expressions are immutable and interned (hash-consed), so structurally equal
subterms are the same object; the Tseitin transform in :mod:`repro.smt.cnf`
exploits this to emit each shared subformula once. Constructors constant-fold
aggressively because IsoPredict instantiates schema constraints over observed
relations that are mostly static (e.g. ``phi_so`` is a constant per pair).
"""
from __future__ import annotations

from typing import Iterable, Union

from .errors import SortError

__all__ = [
    "Expr",
    "BoolExpr",
    "TRUE",
    "FALSE",
    "Bool",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "ExactlyOne",
    "AtMostOne",
    "Int",
    "IntVar",
    "IntTerm",
    "EnumSort",
    "EnumVar",
    "Distinct",
    "BoolVal",
    "OneSidedLt",
    "simplify_ops",
]


class Expr:
    """A hash-consed expression node.

    ``kind`` is one of ``true``, ``false``, ``var``, ``not``, ``and``, ``or``,
    ``enum_eq``, ``le``. ``args`` holds children for connectives, or the
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

    # -- pretty printing -------------------------------------------------
    def __repr__(self) -> str:
        return _render(self)

    # -- boolean operator sugar -------------------------------------------
    def __invert__(self) -> "Expr":
        return Not(self)

    def __and__(self, other: "Expr") -> "Expr":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return Or(self, other)

    @property
    def is_atom(self) -> bool:
        """True for leaves the SAT core treats as opaque literals."""
        return self.kind in ("var", "enum_eq", "le", "le1")


BoolExpr = Expr

TRUE = Expr("true", ())
FALSE = Expr("false", ())


def BoolVal(value: bool) -> Expr:
    """The constant ``TRUE`` or ``FALSE``."""
    return TRUE if value else FALSE


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


def Iff(a: Expr, b: Expr) -> Expr:
    if a is b:
        return TRUE
    if a is TRUE:
        return b
    if b is TRUE:
        return a
    if a is FALSE:
        return Not(b)
    if b is FALSE:
        return Not(a)
    return And(Or(Not(a), b), Or(Not(b), a))


def AtMostOne(es: list[Expr]) -> Expr:
    """Pairwise at-most-one constraint (domains here are small)."""
    clauses = [
        Or(Not(es[i]), Not(es[j]))
        for i in range(len(es))
        for j in range(i + 1, len(es))
    ]
    return And(*clauses)


def ExactlyOne(es: list[Expr]) -> Expr:
    if not es:
        return FALSE
    return And(Or(*es), AtMostOne(es))


# ---------------------------------------------------------------------------
# Integer difference logic terms
# ---------------------------------------------------------------------------


class IntTerm:
    """An integer variable plus constant offset: ``var + offset``.

    Comparisons between two terms (or a term and an ``int``) yield
    difference-logic atoms. A comparison against a plain ``int`` is encoded
    against the distinguished zero variable ``$zero``, whose value is pinned
    to 0 during model extraction.
    """

    __slots__ = ("name", "offset")

    def __init__(self, name: str, offset: int = 0):
        self.name = name
        self.offset = offset

    def __add__(self, k: int) -> "IntTerm":
        return IntTerm(self.name, self.offset + k)

    def __sub__(self, k: int) -> "IntTerm":
        return IntTerm(self.name, self.offset - k)

    def _coerce(self, other: Union["IntTerm", int]) -> "IntTerm":
        if isinstance(other, IntTerm):
            return other
        if isinstance(other, int):
            return IntTerm(ZERO_NAME, other)
        raise SortError(f"cannot compare IntTerm with {type(other).__name__}")

    # x <= y + c  ===  x - y <= c
    def __le__(self, other: Union["IntTerm", int]) -> Expr:
        rhs = self._coerce(other)
        return _le_atom(self.name, rhs.name, rhs.offset - self.offset)

    def __lt__(self, other: Union["IntTerm", int]) -> Expr:
        rhs = self._coerce(other)
        return _le_atom(self.name, rhs.name, rhs.offset - self.offset - 1)

    def __ge__(self, other: Union["IntTerm", int]) -> Expr:
        rhs = self._coerce(other)
        return rhs.__le__(self)

    def __gt__(self, other: Union["IntTerm", int]) -> Expr:
        rhs = self._coerce(other)
        return rhs.__lt__(self)

    def __repr__(self) -> str:
        if self.offset:
            return f"{self.name}{self.offset:+d}"
        return self.name


ZERO_NAME = "$zero"


def Int(name: str) -> IntTerm:
    """A named integer variable (difference-logic sort)."""
    if name == ZERO_NAME:
        raise SortError(f"{ZERO_NAME!r} is reserved")
    return IntTerm(name)


IntVar = Int


def _le_atom(x: str, y: str, c: int) -> Expr:
    """The atom ``x - y <= c`` with syntactic folding of ``x == y``."""
    if x == y:
        return TRUE if c >= 0 else FALSE
    return Expr("le", (x, y, c))


def OneSidedLt(a: IntTerm, b: IntTerm) -> Expr:
    """The *one-sided* atom ``a < b``: its negation is theory-free.

    Use for auxiliary existential witnesses (the weak-isolation commit
    orders) that occur only as implication heads: asserting the literal false imposes no converse
    ordering, so the solver may freely decide such atoms negatively without
    touching the difference-logic graph. Do NOT use where the negation is
    semantically meaningful (e.g. under ``Distinct``).
    """
    # a < b  ==  a - b <= -1, with offsets folded in
    if a.name == b.name:
        return TRUE if a.offset < b.offset else FALSE
    return Expr("le1", (a.name, b.name, b.offset - a.offset - 1))


def Distinct(terms: list[IntTerm]) -> Expr:
    """Pairwise disequality over integer terms, as ``x < y  or  y < x``."""
    out = []
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            a, b = terms[i], terms[j]
            out.append(Or(a < b, b < a))
    return And(*out)


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
# Rendering and introspection helpers
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
    if e.kind in ("le", "le1"):
        x, y, c = e.args
        suffix = "~" if e.kind == "le1" else ""
        if y == ZERO_NAME:
            return f"({x} <= {c}){suffix}"
        if x == ZERO_NAME:
            return f"({y} >= {-c}){suffix}"
        return f"({x} - {y} <= {c}){suffix}"
    if e.kind == "not":
        return f"(not {_render(e.args[0], depth + 1)})"
    if depth > 4:
        return f"({e.kind} ...{len(e.args)} args)"
    inner = " ".join(_render(a, depth + 1) for a in e.args)
    return f"({e.kind} {inner})"


def simplify_ops() -> int:
    """Number of distinct interned nodes (useful in tests and stats)."""
    return len(Expr._table)
