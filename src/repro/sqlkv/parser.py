"""Recursive-descent parser for the SQL subset."""
from __future__ import annotations

from functools import lru_cache

from .ast_nodes import (
    BinaryOp,
    ColumnRef,
    Condition,
    CreateTable,
    Delete,
    Expr,
    Insert,
    Literal,
    Param,
    Select,
    Statement,
    Update,
)
from .errors import SqlParseError
from .lexer import Token, tokenize

__all__ = ["parse"]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._i = 0
        self._param_count = 0

    # -- token plumbing --------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._i]

    def _advance(self) -> Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _expect(self, kind: str, text: str = None) -> Token:
        tok = self._peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise SqlParseError(
                f"expected {want}, found {tok.text or tok.kind!r}",
                tok.position,
            )
        return self._advance()

    def _accept(self, kind: str, text: str = None) -> bool:
        tok = self._peek()
        if tok.kind == kind and (text is None or tok.text == text):
            self._advance()
            return True
        return False

    def _keyword(self, word: str) -> Token:
        return self._expect("KEYWORD", word)

    # -- grammar ----------------------------------------------------------
    def statement(self) -> Statement:
        tok = self._peek()
        if tok.kind != "KEYWORD":
            raise SqlParseError(
                f"expected a statement keyword, found {tok.text!r}",
                tok.position,
            )
        handler = {
            "SELECT": self._select,
            "INSERT": self._insert,
            "UPDATE": self._update,
            "DELETE": self._delete,
            "CREATE": self._create,
        }.get(tok.text)
        if handler is None:
            raise SqlParseError(f"unsupported statement {tok.text}", tok.position)
        stmt = handler()
        self._accept("SEMI")
        self._expect("EOF")
        return stmt

    def _ident(self) -> str:
        return self._expect("IDENT").text

    def _create(self) -> CreateTable:
        self._keyword("CREATE")
        self._keyword("TABLE")
        table = self._ident()
        self._expect("LPAREN")
        columns: list[str] = []
        primary: list[str] = []
        while True:
            col = self._ident()
            columns.append(col)
            if self._accept("KEYWORD", "PRIMARY"):
                self._keyword("KEY")
                primary.append(col)
            if not self._accept("COMMA"):
                break
        self._expect("RPAREN")
        if not primary:
            raise SqlParseError(f"table {table} needs a PRIMARY KEY column")
        return CreateTable(table, tuple(columns), tuple(primary))

    def _select(self) -> Select:
        self._keyword("SELECT")
        columns: list[str] = []
        if not self._accept("STAR"):
            columns.append(self._ident())
            while self._accept("COMMA"):
                columns.append(self._ident())
        self._keyword("FROM")
        table = self._ident()
        where = self._where()
        return Select(table, tuple(columns), where)

    def _insert(self) -> Insert:
        self._keyword("INSERT")
        self._keyword("INTO")
        table = self._ident()
        self._expect("LPAREN")
        columns = [self._ident()]
        while self._accept("COMMA"):
            columns.append(self._ident())
        self._expect("RPAREN")
        self._keyword("VALUES")
        self._expect("LPAREN")
        values = [self._expr()]
        while self._accept("COMMA"):
            values.append(self._expr())
        self._expect("RPAREN")
        if len(columns) != len(values):
            raise SqlParseError(
                f"INSERT lists {len(columns)} columns but {len(values)} values"
            )
        return Insert(table, tuple(columns), tuple(values))

    def _update(self) -> Update:
        self._keyword("UPDATE")
        table = self._ident()
        self._keyword("SET")
        assignments = [self._assignment()]
        while self._accept("COMMA"):
            assignments.append(self._assignment())
        where = self._where()
        return Update(table, tuple(assignments), where)

    def _assignment(self) -> tuple[str, Expr]:
        col = self._ident()
        self._expect("EQ")
        return col, self._expr()

    def _delete(self) -> Delete:
        self._keyword("DELETE")
        self._keyword("FROM")
        table = self._ident()
        where = self._where()
        return Delete(table, where)

    def _where(self) -> tuple[Condition, ...]:
        if not self._accept("KEYWORD", "WHERE"):
            return ()
        conds = [self._condition()]
        while self._accept("KEYWORD", "AND"):
            conds.append(self._condition())
        return tuple(conds)

    def _condition(self) -> Condition:
        col = self._ident()
        self._expect("EQ")
        return Condition(col, self._expr())

    # expression grammar: term (+|- term)*; term: factor (*|/ factor)*
    def _expr(self) -> Expr:
        left = self._term()
        while True:
            if self._accept("PLUS"):
                left = BinaryOp("+", left, self._term())
            elif self._accept("MINUS"):
                left = BinaryOp("-", left, self._term())
            else:
                return left

    def _term(self) -> Expr:
        left = self._factor()
        while True:
            if self._accept("STAR"):
                left = BinaryOp("*", left, self._factor())
            elif self._accept("SLASH"):
                left = BinaryOp("/", left, self._factor())
            else:
                return left

    def _factor(self) -> Expr:
        tok = self._peek()
        if tok.kind == "NUMBER":
            self._advance()
            value = float(tok.text) if "." in tok.text else int(tok.text)
            return Literal(value)
        if tok.kind == "STRING":
            self._advance()
            return Literal(tok.text)
        if tok.kind == "PARAM":
            self._advance()
            param = Param(self._param_count)
            self._param_count += 1
            return param
        if tok.kind == "MINUS":
            self._advance()
            inner = self._factor()
            return BinaryOp("-", Literal(0), inner)
        if tok.kind == "IDENT":
            self._advance()
            return ColumnRef(tok.text)
        if tok.kind == "LPAREN":
            self._advance()
            inner = self._expr()
            self._expect("RPAREN")
            return inner
        raise SqlParseError(
            f"expected an expression, found {tok.text or tok.kind!r}",
            tok.position,
        )


@lru_cache(maxsize=1024)
def parse(sql: str) -> Statement:
    """Parse one SQL statement into its AST.

    Memoised by statement text for the whole process: the AST is frozen
    dataclasses over tuples, so every engine can share one plan. Errors
    are not cached; a malformed statement raises on every call.
    """
    return _Parser(tokenize(sql)).statement()
