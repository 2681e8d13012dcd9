"""Tseitin transformation from the expression AST to CNF.

The compiler walks the expression DAG once per structurally distinct node
(its literal cache is keyed by structural equality), emitting:

* a fresh SAT variable per composite node with defining clauses in both
  polarities (plain Tseitin; a subformula shared by many constraints is
  compiled once, which keeps the output small in practice),
* a SAT variable per Boolean atom,
* a SAT variable per ``enum_eq`` atom, together with *exactly-one* clauses
  over each enum variable's candidate domain the first time the variable is
  seen, and
* a SAT variable per one-sided order atom ``x < y``, registered with the
  theory as the difference constraint ``x - y <= -1``.

Top-level assertions are destructured: conjunctions assert each conjunct,
and disjunctions of literals become plain clauses, so no auxiliary variable
is wasted on the outermost structure.
"""
from __future__ import annotations

from .ast import Expr, EnumVar, FALSE, TRUE
from .difference import DifferenceTheory
from .sat import SatSolver

__all__ = ["CnfCompiler"]


class CnfCompiler:
    """Compiles :class:`Expr` assertions into a :class:`SatSolver`.

    One compiler per solver instance; it owns the atom and enum registries
    used later for model extraction. They live as long as the solver does,
    and so do the terms they key.
    """

    def __init__(self, sat: SatSolver, theory: DifferenceTheory):
        self._sat = sat
        self._theory = theory
        self._lit_cache: dict[Expr, int] = {}
        self._enum_vars: dict[EnumVar, dict[int, int]] = {}
        self._bool_vars: dict[str, int] = {}
        self.num_literals = 0  # literal instances emitted (paper's "# Literals")

    # ------------------------------------------------------------------
    def assert_expr(self, e: Expr) -> None:
        """Assert ``e`` at the top level."""
        if e is TRUE:
            return
        if e is FALSE:
            self._sat.add_clause([])  # marks the solver unsat
            return
        if e.kind == "and":
            for arg in e.args:
                self.assert_expr(arg)
            return
        if e.kind == "or":
            cache = self._lit_cache
            lits = [cache.get(arg) or self.literal(arg) for arg in e.args]
            self._emit(lits)
            return
        self._emit([self.literal(e)])

    def _emit(self, lits: list[int]) -> None:
        # compiler-emitted clauses are duplicate- and tautology-free by
        # construction (connectives dedupe and complement-fold their
        # arguments; distinct atoms compile to distinct variables)
        self.num_literals += len(lits)
        self._sat.add_clause_trusted(lits)

    # ------------------------------------------------------------------
    def literal(self, e: Expr) -> int:
        """SAT literal equisatisfiable with ``e`` (defining clauses added).

        Compilation walks the DAG with an explicit worklist rather than
        recursion, so arbitrarily deep expression chains (e.g. the layered
        closure encodings) never touch the interpreter's recursion limit
        and skip the per-node call overhead. The traversal reproduces the
        recursive order exactly: gate variables are allocated pre-order,
        children resolve depth-first left-to-right, and defining clauses
        are emitted post-order — so variable numbering (and therefore
        search behaviour) is byte-for-byte what the recursive compiler
        produced.
        """
        cache = self._lit_cache
        kind = e.kind
        if kind == "not":
            # a compiled child answers without a lookup of the negation
            # itself, which is usually a fresh node equal to a cached one
            inner = cache.get(e.args[0])
            if inner is not None:
                return -inner
        lit = cache.get(e)
        if lit is not None:
            return lit
        if kind != "and" and kind != "or":
            if kind != "not":
                lit = self._atom(e)
                cache[e] = lit
                return lit
        else:
            # fast path: a connective whose children are all compiled
            # already (the common case in layered closure encodings) needs
            # no traversal — allocate the gate and emit, exactly as the
            # worklist's enter/exit pair would
            child_lits = []
            for arg in e.args:
                cl = cache.get(arg)
                if cl is None:
                    break
                child_lits.append(cl)
            else:
                g = self._sat.new_var()
                if kind == "and":
                    for cl in child_lits:
                        self._emit([-g, cl])
                    self._emit([g] + [-cl for cl in child_lits])
                else:
                    for cl in child_lits:
                        self._emit([g, -cl])
                    self._emit([-g] + child_lits)
                cache[e] = g
                return g
        _ENTER, _EXIT = 0, 1
        stack: list[tuple[Expr, int]] = [(e, _ENTER)]
        gates: dict[Expr, int] = {}
        while stack:
            node, phase = stack.pop()
            if phase == _ENTER:
                if node in cache:
                    continue  # shared subterm already compiled
                kind = node.kind
                if kind == "and" or kind == "or":
                    gates[node] = self._sat.new_var()
                    stack.append((node, _EXIT))
                    for arg in reversed(node.args):
                        stack.append((arg, _ENTER))
                elif kind == "not":
                    stack.append((node, _EXIT))
                    stack.append((node.args[0], _ENTER))
                else:
                    cache[node] = self._atom(node)
            else:  # _EXIT: children are compiled, finish this node
                kind = node.kind
                if kind == "not":
                    cache[node] = -cache[node.args[0]]
                    continue
                g = gates.pop(node)
                child_lits = [cache[a] for a in node.args]
                if kind == "and":
                    for cl in child_lits:
                        self._emit([-g, cl])
                    self._emit([g] + [-cl for cl in child_lits])
                else:  # or
                    for cl in child_lits:
                        self._emit([g, -cl])
                    self._emit([-g] + child_lits)
                cache[node] = g
        return cache[e]

    def _atom(self, e: Expr) -> int:
        """Compile a non-connective node to a literal."""
        kind = e.kind
        if kind == "true" or kind == "false":
            # a constant literal: a fresh var pinned by a unit clause
            var = self._sat.new_var()
            self._emit([var if kind == "true" else -var])
            return var if kind == "true" else -var
        if kind == "var":
            name = e.args[0]
            var = self._bool_vars.get(name)
            if var is None:
                var = self._sat.new_var()
                self._bool_vars[name] = var
            return var
        if kind == "enum_eq":
            enum_var, idx = e.args
            return self._enum_literal(enum_var, idx)
        if kind == "lt":
            x, y = e.args
            var = self._sat.new_var()
            self._theory.add_atom(var, x, y, -1)
            return var
        raise AssertionError(f"unknown expression kind {kind!r}")

    # ------------------------------------------------------------------
    def _enum_literal(self, enum_var: EnumVar, value_idx: int) -> int:
        table = self._enum_vars.get(enum_var)
        if table is None:
            table = {
                enum_var.sort.index_of(v): self._sat.new_var()
                for v in enum_var.candidates
            }
            self._enum_vars[enum_var] = table
            sat_vars = list(table.values())
            self._emit(sat_vars)  # at least one
            for i in range(len(sat_vars)):
                for j in range(i + 1, len(sat_vars)):
                    self._emit([-sat_vars[i], -sat_vars[j]])
        lit = table.get(value_idx)
        if lit is None:
            raise AssertionError(
                f"value index {value_idx} not a candidate of {enum_var!r}"
            )
        return lit
