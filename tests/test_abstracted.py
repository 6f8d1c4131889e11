"""The abstracted analysis engine and the data-flow equation solver."""

import pytest

import liftcal.abstracted
from liftcal import abstraction as ab
from liftcal import featexp as fx
from liftcal import lang, oracle
from liftcal.abstracted import (
    analyze_abstracted,
    analyze_expr_abstracted,
    build_dataflow,
    solve_dataflow,
)
from liftcal.lattice import CONST, CONST_PLUS, GEQ0, TOP, LiftedStore, Store, intval
from liftcal.lifted import analyze_lifted, eval_expr

from conftest import CHAIN_SOURCE


def abstract_top(alpha, space, configs, lattice=CONST):
    meanings = ab.meaning_configs(alpha, space, configs)
    return LiftedStore.top(meanings, lattice)


def values(lifted):
    return [s.get("x") for s in lifted.stores]


def test_expr_lookup(space, configs):
    meanings = ab.meaning_configs(ab.Join(), space, configs)
    store = LiftedStore(meanings, (Store.of(CONST, {"x": intval(1)}),))
    assert analyze_expr_abstracted(lang.Var("x"), store) == (intval(1),)


def test_expr_binop_per_component(space, configs):
    alpha = ab.Proj(fx.Atom("A"))
    meanings = ab.meaning_configs(alpha, space, configs)
    store = LiftedStore(
        meanings, (Store.of(CONST, {"x": intval(0)}), Store.of(CONST, {"x": intval(1)}))
    )
    expr = lang.BinOp("+", lang.Var("x"), lang.Num(1))
    assert analyze_expr_abstracted(expr, store) == (intval(1), intval(2))


def test_expr_constant(space, configs):
    meanings = ab.meaning_configs(ab.Join(), space, configs)
    store = LiftedStore.top(meanings, CONST)
    assert analyze_expr_abstracted(lang.Num(5), store) == (intval(5),)


def test_join_a_on_s1(s1, space, configs):
    alpha = ab.parse_abstraction("proj(A) >> join", space)
    out = analyze_abstracted(s1.body, abstract_top(alpha, space, configs))
    assert values(out) == [intval(1)]


def test_join_a_on_s2_const_loses_value(s2, space, configs):
    alpha = ab.parse_abstraction("proj(A) >> join", space)
    out = analyze_abstracted(s2.body, abstract_top(alpha, space, configs))
    assert values(out) == [TOP]


def test_join_a_on_s2_const_plus_keeps_sign(s2, space, configs):
    alpha = ab.parse_abstraction("proj(A) >> join", space)
    out = analyze_abstracted(
        s2.body, abstract_top(alpha, space, configs, CONST_PLUS)
    )
    assert values(out) == [GEQ0]


def test_degenerate_projection_equals_lifted(s1, s2, space, configs, top_store):
    alpha = ab.Proj(fx.TRUE)
    for program in (s1, s2):
        entry = ab.alpha_apply(alpha, configs, top_store)
        via_abstracted = analyze_abstracted(program.body, entry)
        via_lifted = analyze_lifted(program.body, top_store)
        assert via_abstracted.stores == via_lifted.stores


def test_middle_case_joins_old_and_new(space, configs):
    # single joined component: #if (A) falls between entailed and refuted
    program = lang.parse_program(
        "features A, B; model A | B; begin x := 0; #if (A) { x := 1 } end"
    )
    alpha = ab.Join()
    out = analyze_abstracted(program.body, abstract_top(alpha, space, configs))
    # by hand: 0 join 1 = top in Const
    assert values(out) == [TOP]


# ---------------------------------------------------------------------------
# Data-flow equations


def test_skip_copies(space, configs):
    program = lang.parse_program("features A, B; model A | B; begin skip end")
    meanings = ab.meaning_configs(ab.Join(), space, configs)
    entry = LiftedStore(meanings, (Store.of(CONST, {"x": intval(3)}),))
    system = build_dataflow(program.body, ab.Join(), meanings, CONST)
    solution = solve_dataflow(system, entry)
    in_store, out_store = solution[0]
    assert in_store == entry and out_store == entry


def test_straight_line_equals_compositional(s1, space, configs):
    # loop-free: the least solution is exactly the compositional result
    for text, expected in (("join", TOP), ("proj(A) >> join", intval(1))):
        alpha = ab.parse_abstraction(text, space)
        meanings = ab.meaning_configs(alpha, space, configs)
        entry = LiftedStore.top(meanings, CONST)
        system = build_dataflow(s1.body, alpha, meanings, CONST)
        solution = solve_dataflow(system, entry)
        root_out = solution[s1.body.label][1]
        assert root_out == analyze_abstracted(s1.body, entry)
        assert values(root_out) == [expected]


def test_while_solution_bounds_compositional(space):
    program = lang.parse_program(
        "features A, B; model A | B; begin x := 0; while (x < 3) { x := x + 1 } end"
    )
    configs = fx.valid_configs(program.feature_model)
    alpha = ab.Join()
    meanings = ab.meaning_configs(alpha, space, configs)
    entry = LiftedStore.top(meanings, CONST)
    system = build_dataflow(program.body, alpha, meanings, CONST)
    solution = solve_dataflow(system, entry)
    compositional = analyze_abstracted(program.body, entry)
    root_out = solution[program.body.label][1]
    assert compositional.leq(root_out)
    for label, stmt in system.statements.items():
        in_store, out_store = solution[label]
        assert analyze_abstracted(stmt, in_store).leq(out_store)
    # the while statement has the back-edge shape: out[while] = in[body]
    while_label = next(
        label for label, stmt in system.statements.items() if isinstance(stmt, lang.While)
    )
    while_stmt = system.statements[while_label]
    assert solution[while_label][1] == solution[while_stmt.body.label][0]


def test_ifdef_middle_case_equations(space, configs):
    program = lang.parse_program(
        "features A, B; model A | B; begin #if (A) { x := 1 } end"
    )
    alpha = ab.Join()
    meanings = ab.meaning_configs(alpha, space, configs)
    entry = LiftedStore(meanings, (Store.of(CONST, {"x": intval(0)}),))
    system = build_dataflow(program.body, alpha, meanings, CONST)
    solution = solve_dataflow(system, entry)
    # middle case: out = in join body-out = 0 join 1 = top
    assert values(solution[program.body.label][1]) == [TOP]
    # the body receives the guarded input (A is satisfiable against the join)
    assert values(solution[program.body.body.label][0]) == [intval(0)]


def test_unsat_guard_component_stays_bottom(space, configs):
    program = lang.parse_program(
        "features A, B; model A | B; begin #if (A & !A) { x := 1 } end"
    )
    alpha = ab.Proj(fx.TRUE)
    meanings = ab.meaning_configs(alpha, space, configs)
    entry = LiftedStore.top(meanings, CONST)
    system = build_dataflow(program.body, alpha, meanings, CONST)
    solution = solve_dataflow(system, entry)
    body_in = solution[program.body.body.label][0]
    assert all(s == Store.bot(CONST) for s in body_in.stores)
    assert solution[program.body.label][1] == entry


def test_solver_requires_dense_labels(space):
    not_relabeled = lang.Seq(lang.Skip(label=3), lang.Skip(label=7), label=0)
    from liftcal.errors import SemanticError

    with pytest.raises(SemanticError):
        build_dataflow(not_relabeled)


def test_chain_split_is_solved_in_one_sweep(monkeypatch):
    program = lang.parse_program(CHAIN_SOURCE)
    space = program.feature_model.space
    configs = fx.valid_configs(program.feature_model)
    alpha = ab.parse_abstraction("proj(A1) || join(!A1)", space)
    entry = ab.alpha_apply(alpha, configs, LiftedStore.top(configs, CONST), CONST)
    assert len(entry) == 1025
    merges = []
    merge_ifdef = liftcal.abstracted.merge_ifdef

    def counted(*args):
        merges.append(args)
        return merge_ifdef(*args)

    monkeypatch.setattr(liftcal.abstracted, "merge_ifdef", counted)
    system = build_dataflow(program.body, alpha, entry.configs, CONST)
    root_out = solve_dataflow(system, entry)[program.body.label][1]
    # loop-free: each #if's out event is evaluated exactly once
    assert len(merges) == 11
    assert len({id(s) for s in root_out.stores}) <= 13
    assert root_out == analyze_abstracted(program.body, entry)


def reference_dataflow(stmt, entry, lattice):
    """Round-robin over every in and out equation until none changes.

    Each store is a plain list with one Store per component; nothing is
    shared or scheduled, so it checks solve_dataflow's event heap and its
    shared stores.
    """
    configs = entry.configs
    full = configs.universe.full
    nodes = lang.labels_of(stmt)
    parents = {kid.label: node for node in nodes.values() for kid in lang.children(node)}
    bottom = [Store.bot(lattice)] * len(configs)
    ins = {label: bottom for label in nodes}
    outs = dict(ins)

    def join(xs, ys):
        return [x.join(y) for x, y in zip(xs, ys)]

    def case(cond, cover):
        t = configs.mask(cond)
        if not cover & t:
            return "untouched"
        return "analyzed" if not cover & full & ~t else "mixed"

    def in_of(node):
        parent = parents.get(node.label)
        if parent is None:
            return list(entry.stores)
        if isinstance(parent, lang.Seq) and node is parent.second:
            return outs[parent.first.label]
        if isinstance(parent, lang.While):
            return join(ins[parent.label], outs[node.label])
        if isinstance(parent, lang.IfDef):
            return [
                bottom[0] if case(parent.cond, cover) == "untouched" else s
                for cover, s in zip(configs.covers, ins[parent.label])
            ]
        return ins[parent.label]

    def out_of(node):
        if isinstance(node, lang.Skip):
            return ins[node.label]
        if isinstance(node, lang.Assign):
            return [s.set(node.var, eval_expr(node.expr, s)) for s in ins[node.label]]
        if isinstance(node, lang.Seq):
            return outs[node.second.label]
        if isinstance(node, lang.While):
            return ins[node.body.label]
        if isinstance(node, lang.IfDef):
            merged = []
            for cover, old, new in zip(configs.covers, ins[node.label], outs[node.body.label]):
                kind = case(node.cond, cover)
                if kind == "mixed":
                    new = old.join(new)
                merged.append(old if kind == "untouched" else new)
            return merged
        left, right = lang.children(node)
        return join(outs[left.label], outs[right.label])

    changed = True
    while changed:
        changed = False
        for label, node in nodes.items():
            for table, equation in ((ins, in_of), (outs, out_of)):
                new = equation(node)
                if new != table[label]:
                    table[label] = new
                    changed = True
    return {label: (tuple(ins[label]), tuple(outs[label])) for label in nodes}


def has_while(stmt):
    return any(isinstance(node, lang.While) for node in lang.labels_of(stmt).values())


@pytest.mark.parametrize("lattice", [CONST, CONST_PLUS])
def test_solver_equals_round_robin_reference(lattice):
    gen = oracle.CaseGen(7, max_features=4, lattice=lattice)
    checked = 0
    while checked < 100:
        program = oracle.gen_random_program(gen)
        alpha = oracle.gen_random_abstraction(gen, program.feature_model.space)
        if not has_while(program.body):
            continue
        configs = fx.valid_configs(program.feature_model)
        meanings = ab.meaning_configs(alpha, program.feature_model.space, configs)
        variables = oracle.VAR_NAMES[: gen.max_vars]
        entry = oracle.gen_lifted(gen, meanings, variables)
        system = build_dataflow(program.body, alpha, meanings, lattice)
        solution = solve_dataflow(system, entry)
        expected = reference_dataflow(program.body, entry, lattice)
        assert {
            label: (i.stores, o.stores) for label, (i, o) in solution.items()
        } == expected, lang.pretty(program)
        checked += 1


@pytest.mark.parametrize("spec", ["join", "proj(A1) || join(!A1)", "fignore(A1)"])
def test_abstraction_pipeline_builds_no_configuration_formula(monkeypatch, spec):
    # formulas only render rows: configurations, alpha, the analysis and
    # gamma decide on covers alone
    def refuse(config):
        raise AssertionError("a configuration formula was built")

    monkeypatch.setattr(fx.Config, "formula", refuse)
    program = lang.parse_program(CHAIN_SOURCE)
    configs = fx.valid_configs(program.feature_model)
    alpha = ab.parse_abstraction(spec, program.feature_model.space)
    entry = LiftedStore.top(configs, CONST)
    abstract = ab.alpha_apply(alpha, configs, entry, CONST)
    result = analyze_abstracted(program.body, abstract)
    concrete = ab.gamma_apply(alpha, configs, result, CONST)
    assert len(concrete) == 2048
