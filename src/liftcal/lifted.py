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

A configuration covers one bit, so an int member (one configuration, in a
concrete set or an abstract one) never meets the mixed case: it is analyzed
exactly when its universe bit of t is set, and the int members' cases are
read off t's bits in C, with no cover per member.  Only join members' covers
are compared.  An empty cover (a join that confounded nothing) counts as
untouched, matching what its never-satisfied rewritten guard does.  Covers
and masks are all the engine reads of a configuration set; it builds no
formula.

Lifted stores are dictionary-encoded (`lattice.LiftedStore`): a table of
distinct stores and one index per component.  An assignment runs once per
table entry; a join and the `#if` merge run once per distinct tuple of
positions, with the case list as one more column over the table `CASES`
(`lattice.combine`).  So store operations follow the number of distinct
stores, and only the keying (C-level passes over the int columns) stays per
component: a chain of n `#if`s over 2^n configurations holds n+1 stores.
"""

from __future__ import annotations

from . import lang
from .errors import SemanticError
from .lattice import LiftedStore, combine, intval

UNTOUCHED, ANALYZED, MIXED = 0, 1, 2  # a configuration's case is its bit of the #if's mask
# the table that a column of cases indexes
CASES = (UNTOUCHED, ANALYZED, MIXED)


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
    """Per-component case of a `#if (theta)` over a configuration set, as bytes."""
    t = configs.mask(theta)
    rest = configs.universe.full & ~t
    return configs.bits_of(
        t, lambda i, c: UNTOUCHED if not c & t else ANALYZED if not c & rest else MIXED)


def _merge_case(case, old, new):
    return new if case == ANALYZED else old if case == UNTOUCHED else old.join(new)


def merge_ifdef(cases, before, after):
    """The store after a `#if`: per case, analyzed, untouched or both joined."""
    return combine(
        _merge_case,
        before.configs,
        (CASES, before.table, after.table),
        (cases, before.index, after.index),
    )


def analyze_expr_lifted(expr, store, configs=None):
    """Per-configuration expression values, as a tuple aligned with the configs."""
    if configs is not None and store.configs != configs:
        raise SemanticError("store is not indexed by the given configuration set")
    values = [eval_expr(expr, s) for s in store.table]
    return tuple(map(values.__getitem__, store.index))


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
    # id of an #if -> its case list; every store of one analysis has one
    # configuration set, so a loop does not recompute it per Kleene iteration
    columns = {}

    def run(stmt, store):
        if isinstance(stmt, lang.Skip):
            return store
        if isinstance(stmt, lang.Assign):
            return store.map(lambda s: s.set(stmt.var, eval_expr(stmt.expr, s)))
        if isinstance(stmt, lang.Seq):
            return run(stmt.second, run(stmt.first, store))
        if isinstance(stmt, lang.If):
            return run(stmt.then, store).join(run(stmt.orelse, store))
        if isinstance(stmt, lang.Lub):
            return run(stmt.left, store).join(run(stmt.right, store))
        if isinstance(stmt, lang.While):
            return kleene_accumulate(lambda s: run(stmt.body, s), store)
        if isinstance(stmt, lang.IfDef):
            cases = columns.get(id(stmt))
            if cases is None:
                cases = columns[id(stmt)] = ifdef_cases(store.configs, stmt.cond)
            if cases.count(UNTOUCHED) == len(cases):
                return store
            return merge_ifdef(cases, store, run(stmt.body, store))
        raise TypeError(f"not a statement: {stmt!r}")

    return run(stmt, store)


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
