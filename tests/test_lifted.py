"""The lifted analysis engine and the single-program analysis."""

import importlib.util
import sys
from pathlib import Path

import pytest

from liftcal import abstraction as ab
from liftcal import featexp as fx
from liftcal import lang, lifted
from liftcal.errors import SemanticError
from liftcal.lattice import CONST, CONST_PLUS, TOP, LiftedStore, Store, intval
from liftcal.lifted import analyze_expr_lifted, analyze_lifted, analyze_single
from liftcal.oracle import brute_force_lifted
from liftcal.reconfig import reconfigure

from conftest import CHAIN_SOURCE


def stores_of(values, configs):
    return LiftedStore(configs, tuple(Store.of(CONST, {"x": v}) for v in values))


def test_expr_constant_in_every_component(configs):
    store = LiftedStore.top(configs, CONST)
    assert analyze_expr_lifted(lang.Num(3), store) == (intval(3),) * 3


def test_expr_variable_lookup(configs):
    store = stores_of((intval(0), intval(1), intval(-1)), configs)
    assert analyze_expr_lifted(lang.Var("x"), store) == (intval(0), intval(1), intval(-1))


def test_expr_binop_component_wise(configs):
    store = stores_of((intval(0), intval(1), intval(-1)), configs)
    expr = lang.BinOp("+", lang.Var("x"), lang.Num(1))
    # per component: 0+1, 1+1, -1+1
    assert analyze_expr_lifted(expr, store) == (intval(1), intval(2), intval(0))


def test_s1_golden(s1, configs, top_store):
    result = analyze_lifted(s1.body, top_store)
    assert [s.get("x") for s in result.stores] == [intval(1)] * 3


def test_s2_golden(s2, configs, top_store):
    result = analyze_lifted(s2.body, top_store)
    assert [s.get("x") for s in result.stores] == [intval(0), intval(1), intval(-1)]


def test_while_accumulates_to_top():
    program = lang.parse_program(
        "features A; model A; begin x := 0; while (x < 5) { x := x + 1 } end"
    )
    configs = fx.valid_configs(program.feature_model)
    result = analyze_lifted(program.body, LiftedStore.top(configs, CONST))
    # hand iteration: 0, then 0 join 1 = top, stable afterwards
    assert result.stores[0].get("x") == TOP


def test_analyze_single_straight_line():
    stmt = lang.parse_program(
        "features A; model true; begin x := 0; x := x + 1 end"
    ).body
    out = analyze_single(stmt, Store.top(CONST))
    assert out.get("x") == intval(1)


def test_analyze_single_if_joins_branches():
    stmt = lang.parse_program(
        "features A; model true; begin if (y) { x := 1 } else { x := 2 } end"
    ).body
    out = analyze_single(stmt, Store.top(CONST))
    assert out.get("x") == TOP


def test_analyze_single_skip_identity():
    store = Store.of(CONST, {"x": intval(5)})
    assert analyze_single(lang.Skip(), store) == store


def test_analyze_single_rejects_ifdef(s1):
    with pytest.raises(SemanticError):
        analyze_single(s1.body, Store.top(CONST))


def test_lub_analyzes_like_if(configs, top_store):
    assign = lang.Assign("x", lang.Num(1))
    lub = lang.relabel(lang.lub(assign, assign))
    out = analyze_lifted(lub, top_store)
    other = analyze_lifted(lang.relabel(assign), top_store)
    assert out == other
    identity = analyze_lifted(lang.relabel(lang.lub(lang.Skip(), lang.Skip())), top_store)
    assert identity == top_store


def test_per_variant_correctness(s1, s2, configs, top_store):
    from liftcal.oracle import brute_force_lifted

    for program in (s1, s2):
        lifted_result = analyze_lifted(program.body, top_store)
        brute = brute_force_lifted(program, top_store)
        assert lifted_result == brute


def test_monotone_on_ordered_inputs(s2, configs):
    low = LiftedStore(
        configs, tuple(Store.of(CONST, {"x": intval(1), "y": intval(0)}) for _ in configs)
    )
    high = LiftedStore.top(configs, CONST)
    out_low = analyze_lifted(s2.body, low)
    out_high = analyze_lifted(s2.body, high)
    assert out_low.leq(out_high)


def test_empty_config_set():
    program = lang.parse_program("features A; model false; begin x := 1 end")
    configs = fx.valid_configs(program.feature_model)
    result = analyze_lifted(program.body, LiftedStore.top(configs, CONST))
    assert len(result) == 0


def test_chain_keeps_one_store_object_per_value():
    program = lang.parse_program(CHAIN_SOURCE)
    configs = fx.valid_configs(program.feature_model)
    result = analyze_lifted(program.body, LiftedStore.top(configs, CONST))
    assert len({id(s) for s in result.stores}) == 12
    for config, store in zip(configs.valuations, result.stores):
        assert store.get("x") == intval(sum(config.values))


def test_case_list_computed_once_per_ifdef(monkeypatch):
    program = lang.parse_program(
        """features A, B;
model true;
begin
  x := 0; y := 0;
  while (x < 5) { #if (A) { x := x + 1 }; #if (B) { y := y + x } }
end
"""
    )
    configs = fx.valid_configs(program.feature_model)
    calls = []

    def counting(configs, theta):
        calls.append(theta)
        return real(configs, theta)

    real = lifted.ifdef_cases
    monkeypatch.setattr(lifted, "ifdef_cases", counting)
    result = analyze_lifted(program.body, LiftedStore.top(configs, CONST))
    assert len(calls) == 2
    # x is top where A holds, so the loop took more than one Kleene iteration,
    # and each iteration visited both #ifs
    assert [s.get("x") for s in result.stores] == [TOP, TOP, intval(0), intval(0)]


def _workloads():
    """The benchmark's family texts (perfbench/workloads.py), loaded once."""
    if "perfbench_workloads" not in sys.modules:  # its dataclasses look their module up
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["perfbench_workloads"]


def _split_rewrite(text):
    """A family rewritten under proj(A1) || join(!A1)."""
    program = lang.parse_program(text)
    alpha = ab.parse_abstraction("proj(A1) || join(!A1)", program.feature_model.space)
    return reconfigure(program, alpha)[0]


def test_shared_body_under_two_restricting_ifdefs_matches_brute_force():
    # one object S sits under #if (A) and #if (C), whose bodies run on
    # different subsets: a case list memoized by S alone answers wrongly
    x = [lang.Assign("x", lang.Num(n)) for n in range(3)]
    shared = lang.IfDef(fx.Atom("B"), lang.If(lang.Num(0), x[1], x[2]))
    body = lang.seq_all([x[0]] + [
        lang.IfDef(fx.Atom(name), lang.If(lang.Num(0), shared, lang.Skip())) for name in "AC"
    ])
    program = lang.Program(fx.FeatureModel(fx.FeatureSpace(("A", "B", "C")), fx.TRUE), body)
    configs = fx.valid_configs(program.feature_model)
    for lattice in (CONST, CONST_PLUS):
        top = LiftedStore.top(configs, lattice)
        assert analyze_lifted(body, top) == brute_force_lifted(program, top)


@pytest.mark.parametrize("family", ["chain8", "loops1", "loops2", "loops3"])
def test_rewritten_split_families_match_brute_force(family):
    workloads = _workloads()
    text = workloads.chain_text(8) if family == "chain8" else workloads.loops_text(int(family[-1]))
    program = _split_rewrite(text)
    configs = fx.valid_configs(program.feature_model)
    assert len(configs) == 129
    for lattice in (CONST, CONST_PLUS):
        top = LiftedStore.top(configs, lattice)
        assert analyze_lifted(program.body, top) == brute_force_lifted(program, top)


def test_rewritten_join_guard_body_runs_on_its_one_component(monkeypatch):
    # `#if (Z1) { if (0) { x := x + 1 } else { skip } }` fires on the joined
    # component only; its if is the only join the analysis makes
    program = _split_rewrite(_workloads().chain_text(8))
    configs = fx.valid_configs(program.feature_model)
    sizes = []
    real = LiftedStore.join

    def counting(self, other):
        sizes.append(len(self))
        return real(self, other)

    monkeypatch.setattr(LiftedStore, "join", counting)
    result = analyze_lifted(program.body, LiftedStore.top(configs, CONST))
    assert len(configs) == 129
    assert sizes == [1] * 7
    # x counts the enabled features on the projected components; the joined
    # component joins 0 with 1 at the first undecided guard
    for config, store in zip(configs.valuations, result.stores):
        on = config.as_dict()
        assert store.get("x") == (TOP if on.pop("Z1") else intval(sum(on.values())))
