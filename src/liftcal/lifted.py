"""The analysis engine over configuration-indexed stores, and its single-program degenerate.

One engine, `analyze_lifted`, transforms a tuple of stores, one per component
of a configuration set, analyzing every component simultaneously.  The lifted
analysis runs it on the valid configurations, the abstracted analysis
(`abstracted.analyze_abstracted`, the same function) on the components an
abstraction produces.  An `if` joins both branches and ignores the
condition, so it is also lub(s0, s1), the `if (0) { s0 } else { s1 }` of
`lang.lub`.  A `while` accumulates the iterates of its body:

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

A `#if` that leaves some components untouched and whose body holds an `if`,
a `while` or a `#if` runs its body on the subset of the analyzed and
mixed components only (`ConfigSet.subset`, built once per `#if` and set it
sees in one analysis); the merge reads the body's result back by position,
in one pass over the whole set.  A body of assignments and skips runs on
the whole set: it costs one step per table entry either way.

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

from itertools import compress

from . import lang
from .errors import SemanticError
from .lattice import LiftedStore, combine, intval, tabulate

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


def merge_ifdef(cases, before, after, column=None):
    """The store after a `#if`: per case, analyzed, untouched or both joined.
    `column` is after's index over before's set (after's own by default)."""
    return combine(
        _merge_case,
        before.configs,
        (CASES, before.table, after.table),
        (cases, before.index, after.index if column is None else column),
    )


def _compound(stmt):
    """Whether stmt holds an if, a while or a #if: all but a sequence of
    assignments and skips."""
    work = [stmt]
    while work:
        node = work.pop()
        if type(node) is lang.Seq:
            work += node.first, node.second
        elif type(node) is not lang.Assign and type(node) is not lang.Skip:
            return True
    return False


def _split(stmt, configs):
    """A `#if`'s case column over configs, and the subset its body runs on
    with the positions of its members, or None where the body runs on all."""
    cases = ifdef_cases(configs, stmt.cond)
    if UNTOUCHED not in cases or cases.count(UNTOUCHED) == len(cases) or not _compound(stmt.body):
        return cases, None, None
    kept = list(compress(range(len(cases)), cases))
    return cases, configs.subset(kept), kept


def analyze_expr_lifted(expr, store):
    """Per-configuration expression values, as a tuple aligned with the configs."""
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
    if isinstance(stmt, lang.While):
        return kleene_accumulate(lambda s: analyze_single(stmt.body, s), store)
    if isinstance(stmt, lang.IfDef):
        raise SemanticError("single-program analysis does not accept #if statements")
    raise TypeError(f"not a statement: {stmt!r}")


def analyze_lifted(stmt, store):
    """The engine: analyze stmt on every component of the store's set at once."""
    # (id of an #if, id of the set it sees) -> its split, so a loop does not
    # recompute it per Kleene iteration; one statement object may sit under
    # two #ifs that restrict it to different subsets
    splits = {}

    def run(stmt, store):
        if isinstance(stmt, lang.Skip):
            return store
        if isinstance(stmt, lang.Assign):
            return store.map(lambda s: s.set(stmt.var, eval_expr(stmt.expr, s)))
        if isinstance(stmt, lang.Seq):
            while type(stmt) is lang.Seq:  # a right-nested chain walks as one loop
                store = run(stmt.first, store)
                stmt = stmt.second
            return run(stmt, store)
        if isinstance(stmt, lang.If):
            return run(stmt.then, store).join(run(stmt.orelse, store))
        if isinstance(stmt, lang.While):
            return kleene_accumulate(lambda s: run(stmt.body, s), store)
        if isinstance(stmt, lang.IfDef):
            key = id(stmt), id(store.configs)
            split = splits.get(key)
            if split is None:
                split = splits[key] = _split(stmt, store.configs)
            cases, subset, kept = split
            if subset is None:
                if cases.count(UNTOUCHED) == len(cases):
                    return store
                return merge_ifdef(cases, store, run(stmt.body, store))
            index = store.index
            after = run(stmt.body, tabulate(store.table.__getitem__, subset,
                                            list(map(index.__getitem__, kept))))
            column = [0] * len(index)  # untouched components ignore theirs
            for k, e in zip(kept, after.index):
                column[k] = e
            return merge_ifdef(cases, store, after, column)
        raise TypeError(f"not a statement: {stmt!r}")

    return run(stmt, store)


def entry_store(configs, lattice, init="top"):
    if init == "top":
        return LiftedStore.top(configs, lattice)
    if init == "bot":
        return LiftedStore.bot(configs, lattice)
    raise SemanticError(f"unknown initial store: {init!r}")
