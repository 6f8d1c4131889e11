"""The abstracted analysis and its data-flow equation system.

The abstracted analysis is the engine of `lifted` run on stores indexed by
the components of an abstraction (the meaning view of alpha_apply /
meaning_configs): `analyze_abstracted` is `lifted.analyze_lifted` itself.  A
component's cover is the set of original valid configurations it confounds,
and a `#if` splits on covers three ways per component (see `lifted`):
untouched, analyzed, or old joined with analyzed.

The same transfer functions can be phrased as data-flow equations over
per-label in/out stores; solve_dataflow computes their least solution, which
is an upper bound of the compositional result at every label and equal to it
on loop-free programs.  A structured program's equations nest like its
statements, so it solves them innermost first, walking the statement tree
once: each while iterates its own equation to a least fixpoint, re-solving
its body for each iterate.  By Bekic's theorem (1984) these nested least
fixpoints are exactly the least solution of the whole system, so a loop-free
program takes one sweep and only loops iterate.  A statement entered with the
input it was last solved for returns its recorded out, so a loop does not
re-walk the loops nested in it on a pass that leaves their input unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import featexp, lang
from .errors import SemanticError
from .lattice import Store, combine
from .lifted import (
    CASES, UNTOUCHED, analyze_lifted, eval_expr, ifdef_cases, merge_ifdef
)

# the engine, on a store indexed by an abstract configuration set
analyze_abstracted = analyze_lifted


# ---------------------------------------------------------------------------
# Data-flow equations
#
# Each labeled statement gets an in and an out store.  The equations follow
# the transfer functions: skip copies, assignment updates per component,
# sequence chains, if fans out and joins, while has the back edge
#   in[body] = in[while] join out[body],  out[while] = in[body]
# and #if combines out[body] with in[#if] per component according to the
# three-way case split; in[body] receives in[#if] only on components where
# the condition is satisfiable, the rest stay bottom in the least solution.


@dataclass(frozen=True)
class EquationSystem:
    root: lang.Stmt
    statements: dict  # label -> Stmt
    configs: featexp.ConfigSet
    lattice: object


def build_dataflow(stmt, configs=None, lattice=None):
    """Equation system for a labeled statement over an abstract config set."""
    statements = lang.labels_of(stmt)
    if len(statements) != max(statements) + 1 or min(statements) != 0:
        raise SemanticError("statement labels must be the preorder 0..n-1")
    return EquationSystem(stmt, statements, configs, lattice)


def solve_dataflow(system, entry):
    """Least solution of the equation system with in[root] = entry.

    Returns a mapping label -> (in, out).  The statement tree is walked on
    one explicit stack, recording each label's in and out as it goes: an
    `#if` guards its input and merges its body's out by its case column,
    `if` joins its branches, and a while iterates
    x := in join out(body, x) to its least fixpoint, walking its body for
    each x.  These nested least fixpoints are the least solution of the
    whole system (Bekic 1984).  One rule keeps loop nests polynomial: a
    statement entered with the input it was last solved for returns its
    recorded out without a walk.
    """
    lattice = entry.table[0].lattice if entry.table else system.lattice
    configs = entry.configs
    n = len(system.statements)
    ins, outs = [None] * n, [None] * n
    columns = {}  # label of an #if -> its case list
    bottom_store = Store.bot(lattice)

    def guard(case, store):
        return bottom_store if case == UNTOUCHED else store

    # One generator per open compound statement: it yields (child, in) and
    # is sent the child's out; its return value is its own out.

    def seq(stmt, store):
        spine = [stmt.label]  # a right-nested chain walks as one loop
        while True:
            store = yield stmt.first, store
            stmt = stmt.second
            if type(stmt) is not lang.Seq:
                break
            last = ins[stmt.label]
            if last is not None and last == store:
                break  # solved for this input: the skip rule returns its out
            ins[stmt.label] = store
            spine.append(stmt.label)
        store = yield stmt, store
        for label in spine:
            outs[label] = store
        return store

    def branch(stmt, store):
        out = (yield stmt.then, store).join((yield stmt.orelse, store))
        outs[stmt.label] = out
        return out

    def loop(stmt, store):
        x = store
        while True:
            new = store.join((yield stmt.body, x))
            if new == x:
                outs[stmt.label] = x
                return x
            x = new

    def ifdef(stmt, store):
        cases = columns.get(stmt.label)
        if cases is None:
            cases = columns[stmt.label] = ifdef_cases(configs, stmt.cond)
        guarded = combine(guard, configs, (CASES, store.table), (cases, store.index))
        out = merge_ifdef(cases, store, (yield stmt.body, guarded))
        outs[stmt.label] = out
        return out

    rules = {lang.Seq: seq, lang.If: branch, lang.While: loop, lang.IfDef: ifdef}
    stack = []
    stmt, store = system.root, entry
    while True:
        label = stmt.label
        last = ins[label]
        if last is not None and last == store:
            out = outs[label]
        else:
            ins[label] = store
            kind = type(stmt)
            if kind is lang.Assign:
                out = outs[label] = store.map(lambda s: s.set(stmt.var, eval_expr(stmt.expr, s)))
            elif kind is lang.Skip:
                out = outs[label] = store
            else:
                walk = rules[kind](stmt, store)
                stack.append(walk)
                stmt, store = next(walk)
                continue
        while stack:
            try:
                stmt, store = stack[-1].send(out)
                break
            except StopIteration as done:
                stack.pop()
                out = done.value
        else:
            return {label: (ins[label], outs[label]) for label in system.statements}
