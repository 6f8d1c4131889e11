"""The abstracted analysis and its data-flow equation system.

The abstracted analysis is the engine of `lifted` run on stores indexed by
the components of an abstraction (the meaning view of alpha_apply /
meaning_configs).  A component's cover is the set of original valid
configurations it confounds, and a `#if` splits on covers three ways per
component (see `lifted`): untouched, analyzed, or old joined with analyzed.

The same transfer functions can be phrased as data-flow equations over
per-label in/out stores; solve_dataflow computes their least solution, which
is an upper bound of the compositional result at every label and equal to it
on loop-free programs.  It keeps one event per label entry and one per label
exit on a heap in Euler-tour order, so a loop-free program is solved in one
sweep and only loops iterate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import featexp, lang
from .errors import SemanticError
from .lattice import LiftedStore, Store, combine
from .lifted import (
    CASES, UNTOUCHED, analyze, analyze_expr_lifted, eval_expr, ifdef_cases, merge_ifdef
)


def analyze_expr_abstracted(expr, store):
    """Per-component expression values over an abstracted store."""
    return analyze_expr_lifted(expr, store)


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

    Returns a mapping label -> (in, out).  Each label has an in and an out
    event, numbered in Euler-tour order and kept on a heap: the smallest
    stale event is evaluated next, and a change re-queues its readers.  Only
    each while's out(body) -> in(body) points backwards, so a loop-free
    program takes one sweep.  The least solution is unique, so the order
    does not change it; termination follows from the finite lattice height.
    """
    lattice = entry.table[0].lattice if entry.table else system.lattice
    configs = entry.configs
    bottom = LiftedStore.bot(configs, lattice)
    ins = {label: bottom for label in system.statements}
    outs = {label: bottom for label in system.statements}

    parents = {}
    for label, stmt in system.statements.items():
        for kid in lang.children(stmt):
            parents[kid.label] = stmt

    ifdef_cases_by_label = {
        label: ifdef_cases(configs, stmt.cond)
        for label, stmt in system.statements.items()
        if isinstance(stmt, lang.IfDef)
    }

    bottom_store = Store.bot(lattice)

    def guard(case, store):
        return bottom_store if case == UNTOUCHED else store

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
            return combine(guard, configs, (CASES, src.table), (cases, src.index))
        raise TypeError(f"unexpected parent: {parent!r}")

    def compute_out(stmt):
        if isinstance(stmt, lang.Skip):
            return ins[stmt.label]
        if isinstance(stmt, lang.Assign):
            return ins[stmt.label].map(lambda s: s.set(stmt.var, eval_expr(stmt.expr, s)))
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

    # events (is_out, stmt) in Euler-tour order
    events, stack = [], [(False, system.root)]
    while stack:
        is_out, stmt = stack.pop()
        events.append((is_out, stmt))
        if not is_out:
            stack.append((True, stmt))
            stack.extend((False, kid) for kid in reversed(lang.children(stmt)))
    number = {(is_out, stmt.label): n for n, (is_out, stmt) in enumerate(events)}

    readers = [[] for _ in events]
    for label, stmt in system.statements.items():
        edges = [((False, label), (True, label))]
        for kid in lang.children(stmt):
            edges.append(((False, label), (False, kid.label)))
            edges.append(((True, kid.label), (True, label)))
        if isinstance(stmt, lang.Seq):
            edges.append(((True, stmt.first.label), (False, stmt.second.label)))
        if isinstance(stmt, lang.While):
            edges.append(((True, stmt.body.label), (False, stmt.body.label)))
            edges.append(((False, stmt.body.label), (True, label)))
        for src, dst in edges:
            readers[number[src]].append(number[dst])

    heap = list(range(len(events)))  # sorted, so already a heap
    queued = set(heap)
    while heap:
        n = heapq.heappop(heap)
        queued.discard(n)
        is_out, stmt = events[n]
        table = outs if is_out else ins
        new = compute_out(stmt) if is_out else compute_in(stmt)
        if new != table[stmt.label]:
            table[stmt.label] = new
            for reader in readers[n]:
                if reader not in queued:
                    queued.add(reader)
                    heapq.heappush(heap, reader)

    return {label: (ins[label], outs[label]) for label in system.statements}
