"""Abstract syntax, parser, pretty-printer, and preprocessor for #if-annotated programs.

Concrete program file format:

    features A, B;
    model A | B;
    begin x := 0; #if (A) { x := x + 1 }; #if (B) { x := 1 } end

Statements are sequenced with ';' (folded right-associatively), blocks are
braced, and the expression operators are {+, -, *, <, =} with the usual
precedence (* tightest, comparisons loosest).  Comparisons yield 1/0.

The analysis ignores `if` conditions, so the join of two analyses,
lub(s0, s1), is the statement `if (0) { s0 } else { s1 }` (`lub`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import featexp
from .errors import ParseError, SemanticError
from .featexp import FeatExp, FeatureModel, FeatureSpace
from .lexer import Cursor

BINOPS = ("+", "-", "*", "<", "=")
# binding strength of each operator: comparisons loosest, * tightest
_PRECEDENCE = {"<": 1, "=": 1, "+": 2, "-": 2, "*": 3}


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
# preorder.


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
    return stmt


def preorder(stmt):
    """The nodes of stmt in preorder, walked with an explicit stack."""
    order = []
    stack = [stmt]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        order.append(node)
        # `children`, inlined and pushed last child first: every parse and
        # every data-flow system walks this loop
        kind = type(node)
        if kind is Seq:
            push(node.second)
            push(node.first)
        elif kind is IfDef or kind is While:
            push(node.body)
        elif kind is If:
            push(node.orelse)
            push(node.then)
    return order


def _rebuild(stmt, numbered):
    """A copy of stmt labelled 0..n-1 in preorder if numbered, else all -1.

    Builds in reverse preorder, so each node's children are built before it
    and wait on `done` with the first child on top.
    """
    order = preorder(stmt)
    done = []
    pop, push = done.pop, done.append
    for label in range(len(order) - 1, -1, -1):
        node = order[label]
        if not numbered:
            label = -1
        kind = type(node)
        # arguments evaluate left to right: the first pop is the first child
        if kind is Seq:
            push(Seq(pop(), pop(), label))
        elif kind is Assign:
            push(Assign(node.var, node.expr, label))
        elif kind is IfDef:
            push(IfDef(node.cond, pop(), label))
        elif kind is Skip:
            push(Skip(label))
        elif kind is If:
            push(If(node.cond, pop(), pop(), label))
        elif kind is While:
            push(While(node.cond, pop(), label))
        else:
            raise TypeError(f"not a statement: {node!r}")
    return done[0]


def relabel(stmt):
    """A copy of stmt with labels 0..n-1 assigned in preorder."""
    return _rebuild(stmt, True)


def labels_of(stmt):
    """Mapping label -> statement node, in preorder."""
    return {node.label: node for node in preorder(stmt)}


def strip_labels(stmt):
    """Structural copy with all labels reset, for label-insensitive comparison."""
    return _rebuild(stmt, False)


def lub(left, right):
    """The join of the analyses of left and right, as the `if` it prints."""
    return If(Num(0), left, right)


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


def _parse_expr(cur, minimum=1):
    """An expression whose operators bind at least as tightly as `minimum`,
    by precedence climbing; every operator is left-associative."""
    left = _parse_atom(cur)
    while True:
        op = cur.current[1]
        level = _PRECEDENCE.get(op, 0)
        if level < minimum:
            return left
        cur.advance()
        left = BinOp(op, left, _parse_expr(cur, level + 1))


def _parse_atom(cur):
    tok = cur.advance()
    kind, text, _ = tok
    if kind == "num":
        try:
            return Num(int(text))
        except ValueError:  # past Python's digit limit, or non-ASCII digits
            raise ParseError(
                f"cannot read integer literal of {len(text)} digits", *cur.where(tok)
            ) from None
    if kind == "ident":
        return Var(text)
    if text == "(":
        inner = _parse_expr(cur)
        cur.expect("sym", ")")
        return inner
    if text == "-":
        # unary minus desugars to 0 - e
        return BinOp("-", Num(0), _parse_atom(cur))
    raise ParseError("expected an expression", *cur.where(tok))


def _parse_block(cur, space):
    cur.expect("sym", "{")
    stmt = _parse_stmt(cur, space)
    cur.expect("sym", "}")
    return stmt


def _parse_simple_stmt(cur, space):
    kind, word, _ = cur.current
    if kind == "ident":
        cur.advance()
        if word == "skip":
            return Skip()
        if word == "if":
            cur.expect("sym", "(")
            cond = _parse_expr(cur)
            cur.expect("sym", ")")
            then = _parse_block(cur, space)
            cur.expect("ident", "else")
            orelse = _parse_block(cur, space)
            return If(cond, then, orelse)
        if word == "while":
            cur.expect("sym", "(")
            cond = _parse_expr(cur)
            cur.expect("sym", ")")
            body = _parse_block(cur, space)
            return While(cond, body)
        cur.expect("sym", ":=")
        return Assign(word, _parse_expr(cur))
    if word == "#if":
        cur.advance()
        cur.expect("sym", "(")
        cond = featexp.parse_featexp_cursor(cur, space)
        cur.expect("sym", ")")
        body = _parse_block(cur, space)
        return IfDef(cond, body)
    cur.error("expected a statement")


def _parse_stmt(cur, space):
    stmts = [_parse_simple_stmt(cur, space)]
    while cur.at_sym(";"):
        cur.advance()
        stmts.append(_parse_simple_stmt(cur, space))
    return seq_all(stmts)


def parse_program(text):
    """Parse a program file into a fully labeled Program."""
    cur = Cursor(text)
    cur.expect("ident", "features")
    names = [cur.expect("ident")[1]]
    while cur.at_sym(","):
        cur.advance()
        names.append(cur.expect("ident")[1])
    cur.expect("sym", ";")
    space = FeatureSpace(tuple(names))
    cur.expect("ident", "model")
    psi = featexp.parse_featexp_cursor(cur, space)
    cur.expect("sym", ";")
    cur.expect("ident", "begin")
    body = _parse_stmt(cur, space)
    cur.expect("ident", "end")
    cur.finish()
    return Program(FeatureModel(space, psi), relabel(body))


# ---------------------------------------------------------------------------
# Pretty-printing


def pretty_expr(expr):
    def prec(node):
        return _PRECEDENCE[node.op] if isinstance(node, BinOp) else 4

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
        pieces = []
        while type(stmt) is Seq:  # a right-nested chain prints as one loop
            pieces.append(pretty_stmt(stmt.first))
            stmt = stmt.second
        pieces.append(pretty_stmt(stmt))
        return "; ".join(pieces)
    if isinstance(stmt, If):
        return (
            f"if ({pretty_expr(stmt.cond)}) {{ {pretty_stmt(stmt.then)} }}"
            f" else {{ {pretty_stmt(stmt.orelse)} }}"
        )
    if isinstance(stmt, While):
        return f"while ({pretty_expr(stmt.cond)}) {{ {pretty_stmt(stmt.body)} }}"
    if isinstance(stmt, IfDef):
        return f"#if ({featexp.render(stmt.cond)}) {{ {pretty_stmt(stmt.body)} }}"
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
    out = {}

    def go_expr(expr):
        if isinstance(expr, Var):
            out.setdefault(expr.name)
        elif isinstance(expr, BinOp):
            go_expr(expr.left)
            go_expr(expr.right)

    for node in preorder(stmt):
        if isinstance(node, Assign):
            out.setdefault(node.var)
            go_expr(node.expr)
        elif isinstance(node, (If, While)):
            go_expr(node.cond)
    return list(out)


def program_vars(program):
    return stmt_vars(program.body)
