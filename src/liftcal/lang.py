"""Abstract syntax, parser, pretty-printer, and preprocessor for #if-annotated programs.

Concrete program file format:

    features A, B;
    model A | B;
    begin x := 0; #if (A) { x := x + 1 }; #if (B) { x := 1 } end

Statements are sequenced with ';' (folded right-associatively), blocks are
braced, and the expression operators are {+, -, *, <, =} with the usual
precedence (* tightest, comparisons loosest).  Comparisons yield 1/0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import featexp
from .errors import ParseError, SemanticError
from .featexp import FeatExp, FeatureModel, FeatureSpace
from .lexer import Cursor, tokenize

BINOPS = ("+", "-", "*", "<", "=")


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in BINOPS:
            raise SemanticError(f"unknown operator: {self.op}")


# ---------------------------------------------------------------------------
# Statements
#
# Every statement carries a label; parse_program and relabel assign them in
# preorder.  Lub is the analysis-join statement; it serializes as an `if`
# with constant condition 0, which analyzes identically.


class Stmt:
    __slots__ = ()


@dataclass(frozen=True)
class Skip(Stmt):
    label: int = -1


@dataclass(frozen=True)
class Assign(Stmt):
    var: str
    expr: Expr
    label: int = -1


@dataclass(frozen=True)
class Seq(Stmt):
    first: Stmt
    second: Stmt
    label: int = -1


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    orelse: Stmt
    label: int = -1


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: Stmt
    label: int = -1


@dataclass(frozen=True)
class IfDef(Stmt):
    cond: FeatExp
    body: Stmt
    label: int = -1


@dataclass(frozen=True)
class Lub(Stmt):
    left: Stmt
    right: Stmt
    label: int = -1


@dataclass(frozen=True)
class Program:
    feature_model: FeatureModel
    body: Stmt


def children(stmt):
    if isinstance(stmt, Seq):
        return (stmt.first, stmt.second)
    if isinstance(stmt, If):
        return (stmt.then, stmt.orelse)
    if isinstance(stmt, While):
        return (stmt.body,)
    if isinstance(stmt, IfDef):
        return (stmt.body,)
    if isinstance(stmt, Lub):
        return (stmt.left, stmt.right)
    return ()


def with_children(stmt, new_children):
    """stmt with its children (in `children` order) replaced, label kept."""
    if isinstance(stmt, Seq):
        return Seq(*new_children, stmt.label)
    if isinstance(stmt, If):
        return If(stmt.cond, *new_children, stmt.label)
    if isinstance(stmt, While):
        return While(stmt.cond, *new_children, stmt.label)
    if isinstance(stmt, IfDef):
        return IfDef(stmt.cond, *new_children, stmt.label)
    if isinstance(stmt, Lub):
        return Lub(*new_children, stmt.label)
    return stmt


def relabel(stmt):
    """A copy of stmt with labels 0..n-1 assigned in preorder."""
    counter = [0]

    def go(node):
        label = counter[0]
        counter[0] += 1
        node = replace(node, label=label)
        kids = children(node)
        if kids:
            node = with_children(node, tuple(go(kid) for kid in kids))
        return node

    return go(stmt)


def labels_of(stmt):
    """Mapping label -> statement node, in preorder."""
    table = {}

    def go(node):
        table[node.label] = node
        for kid in children(node):
            go(kid)

    go(stmt)
    return table


def strip_labels(stmt):
    """Structural copy with all labels reset, for label-insensitive comparison."""
    node = replace(stmt, label=-1)
    kids = children(node)
    if kids:
        node = with_children(node, tuple(strip_labels(kid) for kid in kids))
    return node


def seq_all(stmts):
    """Right-nested sequence of a statement list (skip when empty)."""
    stmts = list(stmts)
    if not stmts:
        return Skip()
    out = stmts[-1]
    for stmt in reversed(stmts[:-1]):
        out = Seq(stmt, out)
    return out


# ---------------------------------------------------------------------------
# Parsing


def _parse_expr(cur):
    def cmp_level():
        left = add_level()
        while cur.at_sym("<", "="):
            op = cur.advance().text
            left = BinOp(op, left, add_level())
        return left

    def add_level():
        left = mul_level()
        while cur.at_sym("+", "-"):
            op = cur.advance().text
            left = BinOp(op, left, mul_level())
        return left

    def mul_level():
        left = atom_level()
        while cur.at_sym("*"):
            cur.advance()
            left = BinOp("*", left, atom_level())
        return left

    def atom_level():
        if cur.at_sym("("):
            cur.advance()
            inner = cmp_level()
            cur.expect("sym", ")")
            return inner
        if cur.at_sym("-"):
            # unary minus desugars to 0 - e
            cur.advance()
            return BinOp("-", Num(0), atom_level())
        tok = cur.current
        if tok.kind == "num":
            cur.advance()
            try:
                return Num(int(tok.text))
            except ValueError:  # past Python's digit limit, or non-ASCII digits
                raise ParseError(
                    f"cannot read integer literal of {len(tok.text)} digits", tok.line, tok.col
                ) from None
        if tok.kind == "ident":
            cur.advance()
            return Var(tok.text)
        cur.error("expected an expression")

    return cmp_level()


def _parse_block(cur, space):
    cur.expect("sym", "{")
    stmt = _parse_stmt(cur, space)
    cur.expect("sym", "}")
    return stmt


def _parse_simple_stmt(cur, space):
    if cur.at("ident", "skip"):
        cur.advance()
        return Skip()
    if cur.at("ident", "if"):
        cur.advance()
        cur.expect("sym", "(")
        cond = _parse_expr(cur)
        cur.expect("sym", ")")
        then = _parse_block(cur, space)
        cur.expect("ident", "else")
        orelse = _parse_block(cur, space)
        return If(cond, then, orelse)
    if cur.at("ident", "while"):
        cur.advance()
        cur.expect("sym", "(")
        cond = _parse_expr(cur)
        cur.expect("sym", ")")
        body = _parse_block(cur, space)
        return While(cond, body)
    if cur.at_sym("#if"):
        cur.advance()
        cur.expect("sym", "(")
        cond = featexp.parse_featexp_cursor(cur, space)
        cur.expect("sym", ")")
        body = _parse_block(cur, space)
        return IfDef(cond, body)
    tok = cur.current
    if tok.kind == "ident":
        cur.advance()
        cur.expect("sym", ":=")
        return Assign(tok.text, _parse_expr(cur))
    cur.error("expected a statement")


def _parse_stmt(cur, space):
    stmts = [_parse_simple_stmt(cur, space)]
    while cur.at_sym(";"):
        cur.advance()
        stmts.append(_parse_simple_stmt(cur, space))
    return seq_all(stmts)


def parse_program(text):
    """Parse a program file into a fully labeled Program."""
    cur = Cursor(tokenize(text))
    cur.expect("ident", "features")
    names = [cur.expect("ident").text]
    while cur.at_sym(","):
        cur.advance()
        names.append(cur.expect("ident").text)
    cur.expect("sym", ";")
    space = FeatureSpace(tuple(names))
    cur.expect("ident", "model")
    psi = featexp.parse_featexp_cursor(cur, space)
    cur.expect("sym", ";")
    cur.expect("ident", "begin")
    body = _parse_stmt(cur, space)
    cur.expect("ident", "end")
    if not cur.at("eof"):
        tok = cur.current
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return Program(FeatureModel(space, psi), relabel(body))


# ---------------------------------------------------------------------------
# Pretty-printing


def pretty_expr(expr):
    def prec(node):
        if isinstance(node, BinOp):
            if node.op in ("<", "="):
                return 1
            if node.op in ("+", "-"):
                return 2
            return 3
        return 4

    def go(node, minimum):
        if isinstance(node, Num):
            text = str(node.value)
        elif isinstance(node, Var):
            text = node.name
        else:
            level = prec(node)
            text = f"{go(node.left, level)} {node.op} {go(node.right, level + 1)}"
        if prec(node) < minimum:
            return f"({text})"
        return text

    return go(expr, 0)


def pretty_stmt(stmt):
    if isinstance(stmt, Skip):
        return "skip"
    if isinstance(stmt, Assign):
        return f"{stmt.var} := {pretty_expr(stmt.expr)}"
    if isinstance(stmt, Seq):
        return f"{pretty_stmt(stmt.first)}; {pretty_stmt(stmt.second)}"
    if isinstance(stmt, If):
        return (
            f"if ({pretty_expr(stmt.cond)}) {{ {pretty_stmt(stmt.then)} }}"
            f" else {{ {pretty_stmt(stmt.orelse)} }}"
        )
    if isinstance(stmt, While):
        return f"while ({pretty_expr(stmt.cond)}) {{ {pretty_stmt(stmt.body)} }}"
    if isinstance(stmt, IfDef):
        return f"#if ({featexp.render(stmt.cond)}) {{ {pretty_stmt(stmt.body)} }}"
    if isinstance(stmt, Lub):
        # the analysis ignores if-conditions, so this encoding is analysis-exact
        return f"if (0) {{ {pretty_stmt(stmt.left)} }} else {{ {pretty_stmt(stmt.right)} }}"
    raise TypeError(f"not a statement: {stmt!r}")


def pretty(program):
    """Program text that parses back to a structurally equal Program (modulo labels)."""
    fm = program.feature_model
    lines = []
    if fm.space.features:
        lines.append("features " + ", ".join(fm.space.features) + ";")
    else:
        raise SemanticError("cannot serialize a program with an empty feature space")
    lines.append("model " + featexp.render(fm.psi) + ";")
    body = pretty_stmt(program.body)
    lines.append("begin")
    lines.append("  " + body)
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Stage-one semantics: variant derivation


def preprocess(program, config):
    """Resolve every #if under a valid configuration; the result has no IfDef."""
    psi = program.feature_model.psi
    if not featexp.eval_featexp(psi, config.as_dict()):
        raise SemanticError("configuration does not satisfy the feature model")
    return relabel(resolve_ifdefs(program.body, config.as_dict()))


def resolve_ifdefs(stmt, assignment):
    """stmt with each `#if (theta) s` replaced by the resolved s when the
    assignment satisfies theta, and by skip otherwise."""

    def go(node):
        if isinstance(node, IfDef):
            if featexp.eval_featexp(node.cond, assignment):
                return go(node.body)
            return Skip()
        kids = children(node)
        if kids:
            return with_children(node, tuple(go(kid) for kid in kids))
        return node

    return go(stmt)


def stmt_vars(stmt):
    """Variable identifiers occurring in a statement, in first-occurrence order."""
    out = []
    seen = set()

    def add(name):
        if name not in seen:
            seen.add(name)
            out.append(name)

    def go_expr(expr):
        if isinstance(expr, Var):
            add(expr.name)
        elif isinstance(expr, BinOp):
            go_expr(expr.left)
            go_expr(expr.right)

    def go(node):
        if isinstance(node, Assign):
            add(node.var)
            go_expr(node.expr)
        elif isinstance(node, (If, While)):
            go_expr(node.cond)
        for kid in children(node):
            go(kid)

    go(stmt)
    return out


def program_vars(program):
    return stmt_vars(program.body)
