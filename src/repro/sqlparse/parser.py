"""Parser for the SQL/HQL subset appearing in application code.

The paper's programs issue queries through ``executeQuery("...")`` in two
styles: HQL-like (``from Board as b where b.rnd_id = 1``, SELECT implied)
and plain SQL (``SELECT ... FROM ... WHERE ...``).  This module parses both
into :mod:`repro.algebra` trees.  Named parameters (``:x``) become
:class:`~repro.algebra.Param` nodes, which the D-IR later resolves to
program variables.
"""

from __future__ import annotations

import re
from dataclasses import fields, replace
from functools import lru_cache

from ..algebra import (
    AggCall,
    AggItem,
    Aggregate,
    Alias,
    BinOp,
    CaseWhen,
    Col,
    Distinct,
    ExistsExpr,
    Func,
    Join,
    Limit,
    Lit,
    OuterApply,
    Param,
    Project,
    ProjectItem,
    RelExpr,
    ScalarExpr,
    ScalarSubquery,
    Select,
    Sort,
    SortKey,
    Table,
    UnOp,
    conjoin,
    map_scalars,
    query_params,
)

_AGG_FUNCS = {"sum", "min", "max", "avg", "count"}

#: Slot parameter prefix: the tokenizer cannot produce it, so no collisions.
SLOT = "$"

#: Template memo bound: beyond this many query shapes the memo resets.
_TEMPLATE_LIMIT = 256

#: ``parse_query`` templates by masked token stream (never a parse error).
_TEMPLATES: dict[tuple[str, ...], RelExpr] = {}


def register_aggregate_name(name: str) -> None:
    """Register a custom aggregate so the parser treats ``name(...)`` as an
    aggregate call (paper Section 5.2: "it is possible to use a custom
    aggregation function ... inside the database")."""
    _AGG_FUNCS.add(name.lower())
    # ``name(x)`` parses differently now: memoised templates are stale.
    _TEMPLATES.clear()

_TOKEN_RE = re.compile(
    r"""
    \s*(
        :[A-Za-z_][A-Za-z0-9_]*   # named parameter
      | [A-Za-z_][A-Za-z0-9_]*    # identifier / keyword
      | \d+\.\d+                  # float
      | \d+                       # int
      | '(?:[^']|'')*'            # string literal
      | <> | <= | >= | != | =     # comparison operators
      | [<>(),.*+\-/?%]           # single-char tokens
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select",
    "distinct",
    "from",
    "where",
    "group",
    "order",
    "by",
    "having",
    "limit",
    "join",
    "inner",
    "left",
    "outer",
    "on",
    "as",
    "and",
    "or",
    "not",
    "asc",
    "desc",
    "null",
    "true",
    "false",
    "is",
    "in",
    "like",
    "exists",
    "case",
    "when",
    "then",
    "end",
    "apply",
    "coalesce",
}


class SqlParseError(Exception):
    """Raised when a query string cannot be parsed."""


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise SqlParseError(f"cannot tokenize query near {text[pos:pos+20]!r}")
            break
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _SqlParser:
    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._tokens):
            return self._tokens[index]
        return ""

    def _peek_kw(self, offset: int = 0) -> str:
        return self._peek(offset).lower()

    def _advance(self) -> str:
        token = self._peek()
        self._pos += 1
        return token

    def _accept_kw(self, *keywords: str) -> bool:
        if self._peek_kw() in keywords:
            self._advance()
            return True
        return False

    def _expect_kw(self, keyword: str) -> None:
        if not self._accept_kw(keyword):
            raise SqlParseError(f"expected {keyword!r}, found {self._peek()!r}")

    def _expect(self, token: str) -> None:
        if self._peek() != token:
            raise SqlParseError(f"expected {token!r}, found {self._peek()!r}")
        self._advance()

    # ------------------------------------------------------------------

    def parse_query(self) -> RelExpr:
        rel = self._parse_query_body()
        if self._pos < len(self._tokens):
            raise SqlParseError(f"trailing tokens: {self._tokens[self._pos:]!r}")
        return rel

    def _parse_query_body(self) -> RelExpr:
        select_items: list[ProjectItem] | None = None
        distinct = False
        if self._accept_kw("select"):
            distinct = self._accept_kw("distinct")
            select_items = self._parse_select_list()
        self._expect_kw("from")
        rel = self._parse_from()
        if self._accept_kw("where"):
            rel = Select(rel, self._parse_expr())

        group_by: list[ScalarExpr] = []
        if self._peek_kw() == "group":
            self._advance()
            self._expect_kw("by")
            group_by.append(self._parse_expr())
            while self._peek() == ",":
                self._advance()
                group_by.append(self._parse_expr())

        having = None
        if self._accept_kw("having"):
            having = self._parse_expr()

        rel = self._apply_projection(rel, select_items, group_by)
        if having is not None:
            rel = Select(rel, having)
        if distinct:
            # DISTINCT applies before ORDER BY / LIMIT.
            rel = Distinct(rel)
            distinct = False

        if self._peek_kw() == "order":
            self._advance()
            self._expect_kw("by")
            keys = [self._parse_sort_key()]
            while self._peek() == ",":
                self._advance()
                keys.append(self._parse_sort_key())
            rel = Sort(rel, tuple(keys))

        if self._accept_kw("limit"):
            count_token = self._advance()
            if not count_token.isdigit():
                raise SqlParseError(f"LIMIT expects an integer, found {count_token!r}")
            rel = Limit(rel, int(count_token))

        if distinct:
            rel = Distinct(rel)
        return rel

    def _apply_projection(
        self,
        rel: RelExpr,
        select_items: list[ProjectItem] | None,
        group_by: list[ScalarExpr],
    ) -> RelExpr:
        if select_items is None:
            return rel  # HQL-style `from T ...` — select the whole entity
        has_agg = any(_contains_agg(item.expr) for item in select_items)
        if group_by or has_agg:
            aggs = []
            plain: list[ProjectItem] = []
            for item in select_items:
                if isinstance(item.expr, AggCall):
                    aggs.append(AggItem(item.expr, item.alias))
                else:
                    plain.append(item)
            agg_rel: RelExpr = Aggregate(rel, tuple(group_by), tuple(aggs))
            if plain and group_by:
                # When the select list is exactly [group columns..., aggs...]
                # in the aggregate's own output order, the γ needs no extra π.
                natural = [
                    g.name if isinstance(g, Col) else str(g) for g in group_by
                ]
                requested = [
                    item.alias
                    or (item.expr.name if isinstance(item.expr, Col) else str(item.expr))
                    for item in plain
                ]
                plain_first = all(
                    isinstance(item.expr, AggCall) for item in select_items[len(plain):]
                ) and not any(
                    isinstance(item.expr, AggCall) for item in select_items[: len(plain)]
                )
                if (
                    plain_first
                    and requested == natural
                    and all(item.alias is None for item in plain)
                ):
                    return agg_rel
                # Otherwise keep a projection on top so names/aliases come
                # out as requested.
                items = tuple(plain) + tuple(
                    ProjectItem(Col(a.output_name), a.alias) for a in aggs
                )
                return Project(agg_rel, items)
            return agg_rel
        if len(select_items) == 1 and _is_star(select_items[0].expr):
            return rel
        return Project(rel, tuple(select_items))

    def _parse_select_list(self) -> list[ProjectItem]:
        items = [self._parse_select_item()]
        while self._peek() == ",":
            self._advance()
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ProjectItem:
        if self._peek() == "*":
            self._advance()
            return ProjectItem(Col("*"))
        expr = self._parse_expr()
        alias = None
        if self._accept_kw("as"):
            alias = self._advance()
        elif (
            self._peek()
            and self._peek_kw() not in _KEYWORDS
            and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self._peek())
        ):
            alias = self._advance()
        return ProjectItem(expr, alias)

    def _parse_from(self) -> RelExpr:
        rel: RelExpr = self._parse_table_ref()
        while True:
            kw = self._peek_kw()
            if self._peek() == ",":
                self._advance()
                right = self._parse_table_ref()
                rel = Join(rel, right, None, "cross")
                continue
            if kw == "outer" and self._peek_kw(1) == "apply":
                self._advance()
                self._advance()
                right = self._parse_table_ref()
                rel = OuterApply(rel, right)
                continue
            if kw in ("join", "inner", "left"):
                kind = "inner"
                if self._peek_kw() == "left" and self._peek_kw(1) == "outer" and self._peek_kw(2) == "apply":
                    # `left outer apply` is accepted as a synonym.
                    self._advance()
                    self._advance()
                    self._advance()
                    right = self._parse_table_ref()
                    rel = OuterApply(rel, right)
                    continue
                if self._accept_kw("left"):
                    self._accept_kw("outer")
                    kind = "left"
                else:
                    self._accept_kw("inner")
                self._expect_kw("join")
                right = self._parse_table_ref()
                pred = None
                if self._accept_kw("on"):
                    pred = self._parse_expr()
                rel = Join(rel, right, pred, kind)
                continue
            return rel

    def _parse_table_ref(self) -> RelExpr:
        if self._peek() == "(":
            self._advance()
            inner = self._parse_query_body()
            self._expect(")")
            alias = None
            if self._accept_kw("as"):
                alias = self._advance()
            elif (
                self._peek()
                and self._peek_kw() not in _KEYWORDS
                and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self._peek())
            ):
                alias = self._advance()
            if alias is not None:
                return Alias(inner, alias)
            return inner
        name = self._advance()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise SqlParseError(f"expected table name, found {name!r}")
        alias = None
        if self._accept_kw("as"):
            alias = self._advance()
        elif (
            self._peek()
            and self._peek_kw() not in _KEYWORDS
            and self._peek() not in (",", "(", ")")
            and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self._peek())
        ):
            alias = self._advance()
        return Table(name, alias)

    def _parse_sort_key(self) -> SortKey:
        expr = self._parse_expr()
        ascending = True
        if self._accept_kw("desc"):
            ascending = False
        else:
            self._accept_kw("asc")
        return SortKey(expr, ascending)

    # ------------------------------------------------------------------
    # Expressions

    def _parse_expr(self) -> ScalarExpr:
        return self._parse_or()

    def _parse_or(self) -> ScalarExpr:
        expr = self._parse_and()
        while self._peek_kw() == "or":
            self._advance()
            expr = BinOp("OR", expr, self._parse_and())
        return expr

    def _parse_and(self) -> ScalarExpr:
        expr = self._parse_not()
        while self._peek_kw() == "and":
            self._advance()
            expr = BinOp("AND", expr, self._parse_not())
        return expr

    def _parse_not(self) -> ScalarExpr:
        if self._peek_kw() == "not":
            self._advance()
            return UnOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ScalarExpr:
        left = self._parse_additive()
        op = self._peek()
        if op in ("=", "<>", "!=", "<", ">", "<=", ">="):
            self._advance()
            normalized = {"<>": "!=", "=": "="}.get(op, op)
            return BinOp(normalized, left, self._parse_additive())
        if self._peek_kw() == "is":
            self._advance()
            negated = self._accept_kw("not")
            self._expect_kw("null")
            result: ScalarExpr = Func("ISNULL", (left,))
            if negated:
                result = UnOp("NOT", result)
            return result
        if self._peek_kw() == "like":
            self._advance()
            return BinOp("LIKE", left, self._parse_additive())
        return left

    def _parse_additive(self) -> ScalarExpr:
        expr = self._parse_multiplicative()
        while self._peek() in ("+", "-"):
            op = self._advance()
            expr = BinOp(op, expr, self._parse_multiplicative())
        return expr

    def _parse_multiplicative(self) -> ScalarExpr:
        expr = self._parse_primary()
        while self._peek() in ("*", "/", "%"):
            op = self._advance()
            expr = BinOp(op, expr, self._parse_primary())
        return expr

    def _parse_primary(self) -> ScalarExpr:
        token = self._peek()
        if not token:
            raise SqlParseError("unexpected end of query")
        if token == "(":
            self._advance()
            if self._peek_kw() in ("select", "from"):
                inner = self._parse_query_body()
                self._expect(")")
                return ScalarSubquery(inner)
            expr = self._parse_expr()
            self._expect(")")
            return expr
        if token.lower() == "exists":
            self._advance()
            self._expect("(")
            inner = self._parse_query_body()
            self._expect(")")
            return ExistsExpr(inner)
        if token.lower() == "case":
            return self._parse_case()
        if token.startswith(":"):
            self._advance()
            return Param(token[1:])
        if token == "?":
            self._advance()
            return Param(f"p{self._pos}")
        if token.startswith(SLOT):
            self._advance()
            return Param(token)
        if token.startswith("'"):
            self._advance()
            return Lit(token[1:-1].replace("''", "'"))
        if token == "-":
            # Unary minus: the generator prints Lit(-5) as "-5" and
            # UnOp("-", e) as "-(e)", so both must read back.
            self._advance()
            follower = self._peek()
            if follower and re.fullmatch(r"\d+", follower):
                self._advance()
                return Lit(-int(follower))
            if follower and re.fullmatch(r"\d+\.\d+", follower):
                self._advance()
                return Lit(-float(follower))
            return UnOp("-", self._parse_primary())
        if re.fullmatch(r"\d+", token):
            self._advance()
            return Lit(int(token))
        if re.fullmatch(r"\d+\.\d+", token):
            self._advance()
            return Lit(float(token))
        lowered = token.lower()
        if lowered == "null":
            self._advance()
            return Lit(None)
        if lowered == "true":
            self._advance()
            return Lit(True)
        if lowered == "false":
            self._advance()
            return Lit(False)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            self._advance()
            if self._peek() == "(":
                return self._parse_call(token)
            if self._peek() == ".":
                self._advance()
                member = self._advance()
                return Col(member, token)
            return Col(token)
        raise SqlParseError(f"unexpected token {token!r}")

    def _parse_case(self) -> ScalarExpr:
        """Parse ``CASE WHEN cond THEN a [ELSE b] END`` (single-branch)."""
        self._expect_kw("case")
        self._expect_kw("when")
        cond = self._parse_expr()
        self._expect_kw("then")
        if_true = self._parse_expr()
        if_false: ScalarExpr = Lit(None)
        if self._accept_kw("else"):
            if_false = self._parse_expr()
        self._expect_kw("end")
        return CaseWhen(cond, if_true, if_false)

    def _parse_call(self, name: str) -> ScalarExpr:
        self._expect("(")
        lowered = name.lower()
        if lowered == "count" and self._peek() == "*":
            self._advance()
            self._expect(")")
            return AggCall("count", None)
        distinct = False
        args: list[ScalarExpr] = []
        if self._peek() != ")":
            if self._peek_kw() == "distinct":
                self._advance()
                distinct = True
            args.append(self._parse_expr())
            while self._peek() == ",":
                self._advance()
                args.append(self._parse_expr())
        self._expect(")")
        if lowered in _AGG_FUNCS:
            return AggCall(lowered, args[0] if args else None, distinct)
        return Func(name.upper(), tuple(args))


def _contains_agg(expr: ScalarExpr) -> bool:
    if isinstance(expr, AggCall):
        return True
    return any(_contains_agg(child) for child in expr.children())


def _is_star(expr: ScalarExpr) -> bool:
    return isinstance(expr, Col) and expr.name == "*"


def parse_query(text: str, bindings: dict | None = None) -> RelExpr:
    """Parse an SQL/HQL query string into a relational algebra tree.

    With a ``bindings`` dict, each number or string in a WHERE/ON/HAVING
    predicate becomes a slot ``$0``, ``$1``, ... valued in ``bindings``, and
    texts differing only in those literals share one memoised template.
    Negative numbers, NULL/TRUE/FALSE and literals elsewhere stay literal.
    """
    tokens = _tokenize(text.strip().rstrip(";"))
    if not tokens:
        raise SqlParseError("empty query")
    if bindings is None:
        return _parse(tokens)
    shape, values = _lift_literals(tokens)
    template = _TEMPLATES.get(shape)
    if template is None:
        try:
            template = _parse(list(shape))
        except SqlParseError:
            # Report the error against the text as written (never cached).
            return _parse(tokens)
        if len(_TEMPLATES) >= _TEMPLATE_LIMIT:
            _TEMPLATES.clear()
        _TEMPLATES[shape] = template
    for index, value in enumerate(values):
        bindings[f"{SLOT}{index}"] = value
    return template


@lru_cache(maxsize=_TEMPLATE_LIMIT)
def template_params(query: RelExpr) -> tuple[str, ...]:
    """The named parameters (``:x``) a query needs bound, sorted — computed
    once per template."""
    return tuple(sorted(n for n in query_params(query) if not n.startswith(SLOT)))


def bind_slots(query: RelExpr, bindings: dict) -> RelExpr:
    """The literal tree a template stands for: each slot parameter bound in
    ``bindings`` replaced by its value, inside subqueries too."""

    def fill(expr: ScalarExpr) -> ScalarExpr:
        if isinstance(expr, Param):
            bound = expr.name.startswith(SLOT) and expr.name in bindings
            return Lit(bindings[expr.name]) if bound else expr
        changes = {}
        for f in fields(expr):
            value = getattr(expr, f.name)
            if isinstance(value, ScalarExpr):
                changes[f.name] = fill(value)
            elif isinstance(value, RelExpr):
                changes[f.name] = map_scalars(value, fill)
            elif isinstance(value, tuple):
                changes[f.name] = tuple(fill(v) for v in value)
        return replace(expr, **changes)

    return map_scalars(query, fill)


def _parse(tokens: list[str]) -> RelExpr:
    try:
        return _SqlParser(tokens).parse_query()
    except RecursionError:
        raise SqlParseError("query nested too deeply") from None


#: Keyword → the clause it opens, for finding predicate positions lexically.
_CLAUSES = {"select": "select", "from": "from", "join": "from", "apply": "from",
            "where": "pred", "on": "pred", "having": "pred",
            "group": "by", "order": "by", "limit": "limit"}


def _lift_literals(tokens: list[str]) -> tuple[tuple[str, ...], list]:
    """Mask each number and string in a WHERE/ON/HAVING predicate with a
    slot token; returns the masked stream (memo key and template source)
    and the masked values.  Clauses are tracked per parenthesis depth; a
    number after ``-`` or ``.`` stays (``-5`` is one literal, ``t.5`` a
    column)."""
    shape = list(tokens)
    values = []
    clause = ""
    outer: list[str] = []
    previous = ""
    for index, token in enumerate(tokens):
        head = token[0]
        if head == "(":
            outer.append(clause)
        elif head == ")":
            clause = outer.pop() if outer else clause
        elif head == "'" or head.isdigit():
            if clause == "pred" and previous not in ("-", "."):
                shape[index] = f"{SLOT}{len(values)}"
                if head == "'":
                    values.append(token[1:-1].replace("''", "'"))
                else:
                    values.append(float(token) if "." in token else int(token))
        else:
            clause = _CLAUSES.get(token.lower(), clause)
        previous = token
    return tuple(shape), values


def combine_conjunctive(rel: RelExpr, extra_pred: ScalarExpr) -> RelExpr:
    """Push one more conjunct into the top-level selection of ``rel``."""
    if isinstance(rel, Select):
        return Select(rel.child, conjoin(rel.pred, extra_pred))
    return Select(rel, extra_pred)
