"""The analysis engine over configuration-indexed stores, and its single-program degenerate.

One engine transforms a tuple of stores, one per component of a configuration
set, analyzing every component simultaneously.  The lifted analysis runs it
on the valid configurations, the abstracted analysis on the components an
abstraction produces.  An `if` (and the derived lub form) joins both branches
and ignores the condition; a `while` accumulates the iterates of its body:

    result = input |_| body(input) |_| body(body(input)) |_| ...

realized as: cur := input; acc := input; repeat { cur := body(cur);
acc := acc join cur } until acc is stable.  This computes the compositional
fixpoint definition itself, which the reconfiguration commutation property
requires; folding the join into cur instead can over-approximate it.

A `#if (theta)` splits three ways per component, comparing the component's
cover with the mask t of the configurations satisfying theta:

    cover & t == 0       -> untouched
    cover & ~t == 0      -> analyzed
    otherwise            -> old joined with analyzed (mixed)

A valid configuration covers one bit, so the lifted analysis never meets the
mixed case.  An empty cover (a join that confounded nothing) counts as
untouched, matching what its never-satisfied rewritten guard does.  Covers
are all the engine reads of a configuration set; it builds no formula.

Stores are shared: every per-component operation (assignment, join, the
`#if` merge) runs once per distinct input store object and returns one
object per distinct result (`lattice.shared`).  Entry stores repeat one
object, so store operations follow the number of distinct stores, and only
the keying and the `#if` case split stay per component: a chain of n `#if`s
over 2^n configurations holds n+1 stores.
"""

from __future__ import annotations

from . import lang
from .errors import SemanticError
from .lattice import LiftedStore, intval, shared

ANALYZED, UNTOUCHED, MIXED = 0, 1, 2


def kleene_accumulate(step, start):
    """Join of all iterates step^i(start), stopping when the join is stable."""
    cur = start
    acc = start
    while True:
        cur = step(cur)
        new = acc.join(cur)
        if new == acc:
            return acc
        acc = new


def eval_expr(expr, store):
    """Expression analysis in a single store."""
    lat = store.lattice
    if isinstance(expr, lang.Num):
        return intval(expr.value)
    if isinstance(expr, lang.Var):
        return store.get(expr.name)
    if isinstance(expr, lang.BinOp):
        return lat.binop(expr.op, eval_expr(expr.left, store), eval_expr(expr.right, store))
    raise TypeError(f"not an expression: {expr!r}")


def ifdef_cases(configs, theta):
    """Per-component case of a `#if (theta)` over a configuration set."""
    t = configs.mask(theta)
    rest = configs.universe.full & ~t
    return [
        UNTOUCHED if not cover & t else ANALYZED if not cover & rest else MIXED
        for cover in configs.covers
    ]


def _merge_case(case, old, new):
    return new if case == ANALYZED else old if case == UNTOUCHED else old.join(new)


def merge_ifdef(cases, before, after):
    """The store after a `#if`: per case, analyzed, untouched or both joined."""
    return before.with_stores(shared(_merge_case, cases, before.stores, after.stores))


def analyze_expr_lifted(expr, store, configs=None):
    """Per-configuration expression values, as a tuple aligned with the configs."""
    if configs is not None and store.configs != configs:
        raise SemanticError("store is not indexed by the given configuration set")
    return tuple(eval_expr(expr, s) for s in store.stores)


def analyze_single(stmt, store):
    """The analysis of a single variant; the statement must contain no #if."""
    if isinstance(stmt, lang.Skip):
        return store
    if isinstance(stmt, lang.Assign):
        return store.set(stmt.var, eval_expr(stmt.expr, store))
    if isinstance(stmt, lang.Seq):
        return analyze_single(stmt.second, analyze_single(stmt.first, store))
    if isinstance(stmt, lang.If):
        return analyze_single(stmt.then, store).join(analyze_single(stmt.orelse, store))
    if isinstance(stmt, lang.Lub):
        return analyze_single(stmt.left, store).join(analyze_single(stmt.right, store))
    if isinstance(stmt, lang.While):
        return kleene_accumulate(lambda s: analyze_single(stmt.body, s), store)
    if isinstance(stmt, lang.IfDef):
        raise SemanticError("single-program analysis does not accept #if statements")
    raise TypeError(f"not a statement: {stmt!r}")


def analyze(stmt, store):
    """The engine: analyze stmt on every component of a lifted store at once."""
    if isinstance(stmt, lang.Skip):
        return store
    if isinstance(stmt, lang.Assign):
        return store.map(lambda s: s.set(stmt.var, eval_expr(stmt.expr, s)))
    if isinstance(stmt, lang.Seq):
        return analyze(stmt.second, analyze(stmt.first, store))
    if isinstance(stmt, lang.If):
        return analyze(stmt.then, store).join(analyze(stmt.orelse, store))
    if isinstance(stmt, lang.Lub):
        return analyze(stmt.left, store).join(analyze(stmt.right, store))
    if isinstance(stmt, lang.While):
        return kleene_accumulate(lambda s: analyze(stmt.body, s), store)
    if isinstance(stmt, lang.IfDef):
        cases = ifdef_cases(store.configs, stmt.cond)
        if all(case == UNTOUCHED for case in cases):
            return store
        return merge_ifdef(cases, store, analyze(stmt.body, store))
    raise TypeError(f"not a statement: {stmt!r}")


def analyze_lifted(stmt, store, configs=None):
    """The lifted analysis over all configurations of the store at once."""
    if configs is not None and store.configs != configs:
        raise SemanticError("store is not indexed by the given configuration set")
    return analyze(stmt, store)


def entry_store(configs, lattice, init="top"):
    if init == "top":
        return LiftedStore.top(configs, lattice)
    if init == "bot":
        return LiftedStore.bot(configs, lattice)
    raise SemanticError(f"unknown initial store: {init!r}")
