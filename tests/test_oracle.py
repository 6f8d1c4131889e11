"""The property-check drivers: generators, shrinking, reports, negative controls."""

from liftcal import abstraction as ab
from liftcal import featexp as fx
from liftcal import lang
from liftcal import oracle
from liftcal.lattice import CONST, LiftedStore, intval
from liftcal.oracle import CaseGen


def test_brute_force_golden(s1, s2, top_store):
    brute1 = oracle.brute_force_lifted(s1, top_store)
    assert [s.get("x") for s in brute1.stores] == [intval(1)] * 3
    brute2 = oracle.brute_force_lifted(s2, top_store)
    assert [s.get("x") for s in brute2.stores] == [intval(0), intval(1), intval(-1)]
    skip_program = lang.parse_program("features A, B; model A | B; begin skip end")
    assert oracle.brute_force_lifted(skip_program, top_store) == top_store


def test_seed_zero_golden_snapshot():
    # frozen so a generator change that would shift every seeded suite shows up
    program = oracle.gen_random_program(CaseGen(0))
    assert lang.pretty(program) == (
        "features A, B;\n"
        "model B | true;\n"
        "begin\n"
        "  if (0) { while (0 - 1) { skip }; #if (A) { x := (0 - 2) * 0 } }"
        " else { #if (true => A | B) { #if (B & B | A & A) { skip } } }\n"
        "end\n"
    )


def test_generators_are_deterministic():
    first = [lang.pretty(oracle.gen_random_program(CaseGen(0))) for _ in range(5)]
    second = [lang.pretty(oracle.gen_random_program(CaseGen(0))) for _ in range(5)]
    assert first == second
    a1 = [
        ab.render_abstraction(
            oracle.gen_random_abstraction(CaseGen(3), fx.FeatureSpace(("A", "B")))
        )
        for _ in range(5)
    ]
    a2 = [
        ab.render_abstraction(
            oracle.gen_random_abstraction(CaseGen(3), fx.FeatureSpace(("A", "B")))
        )
        for _ in range(5)
    ]
    assert a1 == a2


def test_generator_covers_constructors():
    gen = CaseGen(11)
    stmt_kinds = set()
    for _ in range(500):
        program = oracle.gen_random_program(gen)

        def visit(node):
            stmt_kinds.add(type(node).__name__)
            for kid in lang.children(node):
                visit(kid)

        visit(program.body)
        assert len(program.feature_model.space) <= gen.max_features
    assert {"While", "IfDef", "If", "Assign", "Seq"} <= stmt_kinds
    abs_kinds = set()
    space = fx.FeatureSpace(("A", "B", "C"))
    for _ in range(500):
        alpha = oracle.gen_random_abstraction(gen, space)

        def visit_abs(node):
            abs_kinds.add(type(node).__name__)
            if isinstance(node, ab.Compose):
                visit_abs(node.outer)
                visit_abs(node.inner)
            if isinstance(node, ab.Product):
                for part in node.parts:
                    visit_abs(part)

        visit_abs(alpha)
    assert {"Join", "Proj", "JoinPhi", "FIgnore", "FProj", "Compose", "Product"} <= abs_kinds


def test_exact_fragment_covers_constructors():
    gen = CaseGen(17)
    space = fx.FeatureSpace(("A", "B", "C"))
    kinds = set()
    for _ in range(500):
        alpha = oracle.gen_exact_abstraction(gen, space)
        assert oracle.rewrite_exact(alpha)

        def visit(node):
            kinds.add(type(node).__name__)
            if isinstance(node, ab.Compose):
                visit(node.outer)
                visit(node.inner)
            if isinstance(node, ab.Product):
                for part in node.parts:
                    visit(part)

        visit(alpha)
    assert {"Join", "Proj", "JoinPhi", "FIgnore", "FProj", "Compose", "Product"} <= kinds


def test_reports_are_deterministic():
    a = oracle.check_all(seed=5, cases=30)
    b = oracle.check_all(seed=5, cases=30)
    assert a.to_json() == b.to_json()
    assert a.passed


def test_corrupted_gamma_is_reported():
    # negative control: a gamma that concretizes to bottom breaks the adjunction
    space = fx.FeatureSpace(("A", "B"))
    configs = fx.valid_configs(fx.FeatureModel(space, fx.parse_featexp("A | B", space)))
    broken = lambda d: LiftedStore.bot(configs, CONST)
    report = oracle.check_galois(
        CaseGen(2), cases=40, alpha=ab.Join(), space=space, configs=configs, gamma_fn=broken
    )
    assert not report.passed
    assert any("adjunction" in message or "extensive" in message for _, message in report.failures)


def test_shrinking_preserves_failure():
    program = lang.parse_program(
        "features A; model A; begin x := 1; while (x) { y := 2 }; #if (A) { z := 3 } end"
    )

    def fails(p):
        return any(
            isinstance(stmt, lang.Assign) and stmt.var == "z"
            for stmt in lang.labels_of(p.body).values()
        )

    small = oracle.shrink_program(program, fails)
    assert fails(small)
    # everything except the failing assignment is gone
    kinds = [type(s).__name__ for s in lang.labels_of(small.body).values()]
    assert "While" not in kinds


def test_all_properties_pass_small_run():
    report = oracle.check_all(seed=123, cases=60)
    assert report.passed, report.render_text()


def test_check_instance_targeted(s1, space):
    alpha = ab.parse_abstraction("proj(A) >> join", space)
    report = oracle.check_instance(s1, alpha, seed=4, cases=20)
    assert report.passed


def test_check_instance_reconfigures_once(monkeypatch, s1, space):
    # the rewritten family does not depend on the case
    calls = []
    reconfigure = oracle.reconfigure
    monkeypatch.setattr(
        oracle, "reconfigure", lambda *args: calls.append(args) or reconfigure(*args)
    )
    alpha = ab.parse_abstraction("proj(A) || join(!A)", space)
    report = oracle.check_instance(s1, alpha, seed=4, cases=5)
    assert len(calls) == 1
    assert report.render_text() == (
        "soundness: pass (5 cases)\ncommutation: pass (5 cases)\nall properties passed\n"
    )


def test_report_text_format():
    report = oracle.check_all(seed=6, cases=10)
    text = report.render_text()
    assert "oracle-equivalence: pass" in text
    assert text.endswith("all properties passed\n")
