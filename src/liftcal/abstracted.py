"""The abstracted analysis and its data-flow equation system.

The abstracted analysis is the engine of `lifted` run on stores indexed by
the components of an abstraction (the meaning view of alpha_apply /
meaning_configs).  A component's cover is the set of original valid
configurations it confounds, and a `#if` splits on covers three ways per
component (see `lifted`): untouched, analyzed, or old joined with analyzed.

The same transfer functions can be phrased as data-flow equations over
per-label in/out stores; solve_dataflow computes their least solution with a
worklist, which is an upper bound of the compositional result at every label
and equal to it on loop-free programs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import featexp, lang
from .errors import SemanticError
from .lattice import LiftedStore, Store
from .lifted import UNTOUCHED, analyze, eval_expr, ifdef_cases, merge_ifdef


def analyze_expr_abstracted(expr, store):
    """Per-component expression values over an abstracted store."""
    return tuple(eval_expr(expr, s) for s in store.stores)


def analyze_abstracted(stmt, store):
    """The abstracted analysis of a statement on an abstract-indexed store.

    `store.configs` must already be the abstract configuration set (the
    meaning view produced by alpha_apply / meaning_configs).
    """
    return analyze(stmt, store)


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


def build_dataflow(stmt, alpha=None, configs=None, lattice=None):
    """Equation system for a labeled statement over an abstract config set."""
    statements = lang.labels_of(stmt)
    if len(statements) != max(statements) + 1 or min(statements) != 0:
        raise SemanticError("statement labels must be the preorder 0..n-1")
    return EquationSystem(stmt, statements, configs, lattice)


def solve_dataflow(system, entry):
    """Least solution of the equation system with in[root] = entry.

    Returns a mapping label -> (in, out).  Iterates a FIFO worklist over the
    statement tree; termination follows from the finite lattice height.
    """
    lattice = entry.stores[0].lattice if entry.stores else system.lattice
    configs = entry.configs
    bottom = LiftedStore.bot(configs, lattice)
    ins = {label: bottom for label in system.statements}
    outs = {label: bottom for label in system.statements}
    ins[system.root.label] = entry

    parents = {}
    for label, stmt in system.statements.items():
        for kid in lang.children(stmt):
            parents[kid.label] = stmt

    ifdef_cases_by_label = {
        label: ifdef_cases(configs, stmt.cond)
        for label, stmt in system.statements.items()
        if isinstance(stmt, lang.IfDef)
    }

    def compute_in(stmt):
        parent = parents.get(stmt.label)
        if parent is None:
            return entry
        if isinstance(parent, lang.Seq):
            if stmt is parent.first:
                return ins[parent.label]
            return outs[parent.first.label]
        if isinstance(parent, (lang.If, lang.Lub)):
            return ins[parent.label]
        if isinstance(parent, lang.While):
            return ins[parent.label].join(outs[stmt.label])
        if isinstance(parent, lang.IfDef):
            cases = ifdef_cases_by_label[parent.label]
            src = ins[parent.label]
            guarded = [
                src.stores[i] if case != UNTOUCHED else Store.bot(lattice)
                for i, case in enumerate(cases)
            ]
            return src.with_stores(guarded)
        raise TypeError(f"unexpected parent: {parent!r}")

    def compute_out(stmt):
        if isinstance(stmt, lang.Skip):
            return ins[stmt.label]
        if isinstance(stmt, lang.Assign):
            src = ins[stmt.label]
            return src.with_stores(
                s.set(stmt.var, eval_expr(stmt.expr, s)) for s in src.stores
            )
        if isinstance(stmt, lang.Seq):
            return outs[stmt.second.label]
        if isinstance(stmt, (lang.If, lang.Lub)):
            kids = lang.children(stmt)
            return outs[kids[0].label].join(outs[kids[1].label])
        if isinstance(stmt, lang.While):
            return ins[stmt.body.label]
        if isinstance(stmt, lang.IfDef):
            return merge_ifdef(
                ifdef_cases_by_label[stmt.label], ins[stmt.label], outs[stmt.body.label]
            )
        raise TypeError(f"not a statement: {stmt!r}")

    # label dependencies: recompute a statement when its in, a child's out,
    # a preceding sibling's out, or (for while bodies) its own out changes
    dependents = {label: set() for label in system.statements}
    for label, stmt in system.statements.items():
        for kid in lang.children(stmt):
            dependents[kid.label].add(label)
            dependents[label].add(kid.label)
        if isinstance(stmt, lang.Seq):
            dependents[stmt.first.label].add(stmt.second.label)
        if isinstance(stmt, lang.While):
            dependents[stmt.body.label].add(stmt.body.label)

    worklist = sorted(system.statements)
    queued = set(worklist)
    while worklist:
        label = worklist.pop(0)
        queued.discard(label)
        stmt = system.statements[label]
        new_in = compute_in(stmt)
        changed = new_in != ins[label]
        ins[label] = new_in
        new_out = compute_out(stmt)
        changed = changed or new_out != outs[label]
        outs[label] = new_out
        if changed:
            for dep in sorted(dependents[label]):
                if dep not in queued:
                    queued.add(dep)
                    worklist.append(dep)

    return {label: (ins[label], outs[label]) for label in system.statements}
