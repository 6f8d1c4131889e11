"""The property-check drivers: generators, shrinking, reports, negative controls."""

import os
import threading
import time

import pytest

from liftcal import abstraction as ab
from liftcal import featexp as fx
from liftcal import lang
from liftcal import cli, oracle
from liftcal.errors import SemanticError
from liftcal.lattice import CONST, CONST_PLUS, LiftedStore, Store, intval
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
        CaseGen(2), cases=40, alpha=ab.Join(), configs=configs, gamma_fn=broken
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
    # one enumeration of the family and one application of alpha feed the
    # soundness side, the named view, the rewritten family and every alpha
    enumerated, applied = [], []
    valid_configs, apply = fx.valid_configs, ab.apply

    def counted_valid_configs(fm):
        enumerated.append(fm)
        return valid_configs(fm)

    monkeypatch.setattr(oracle, "valid_configs", counted_valid_configs)
    monkeypatch.setattr(fx, "valid_configs", counted_valid_configs)
    monkeypatch.setattr(ab, "apply", lambda *args: applied.append(args) or apply(*args))
    alpha = ab.parse_abstraction("proj(A) || join(!A)", space)
    report = oracle.check_instance(s1, alpha, seed=4, cases=5)
    assert enumerated.count(s1.feature_model) == 1
    assert len(applied) == 1
    assert report.render_text() == (
        "soundness: pass (5 cases)\ncommutation: pass (5 cases)\nall properties passed\n"
    )
    # the suite applies once per case and enumerates the family and its
    # rewrite once each, also while shrinking a failure
    enumerated.clear()
    applied.clear()
    report = oracle.check_commutation(CaseGen(3), cases=20)
    assert report.passed
    assert (len(applied), len(enumerated)) == (20, 40)
    broken = Store.of(CONST, {"_": intval(7)})
    monkeypatch.setattr(oracle, "analyze_lifted", lambda body, entry: entry.map(lambda _: broken))
    enumerated.clear()
    applied.clear()
    report = oracle.check_commutation(CaseGen(3), cases=20)
    assert len(report.failures) > 10  # each one shrunk through many candidates
    assert (len(applied), len(enumerated)) == (20, 40)


def test_report_text_format():
    report = oracle.check_all(seed=6, cases=10)
    text = report.render_text()
    assert "oracle-equivalence: pass" in text
    assert text.endswith("all properties passed\n")


def test_brute_force_answers_on_a_long_conjunctive_model():
    # the 5,000-clause model that `liftcal analyze --abs join` answers on
    # parses as a left-deep chain of `&`, which each variant evaluates
    clauses = " & ".join(f"(!A{k % 20 + 1} | A{(k + 1) % 20 + 1})" for k in range(5000))
    features = ", ".join(f"A{i}" for i in range(1, 21))
    program = lang.parse_program(f"features {features};\nmodel {clauses};\n"
                                 "begin x := 0; #if (A1) { x := x + 1 } end")
    configs = fx.valid_configs(program.feature_model)
    brute = oracle.brute_force_lifted(program, LiftedStore.top(configs, CONST))
    assert [s.get("x") for s in brute.stores] == [intval(1), intval(0)]


# ---------------------------------------------------------------------------
# check_all's workers


def usable_cpus(monkeypatch, cpus):
    """Make check_all see `cpus` usable CPUs, whatever this host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def counted_forks(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def reports_by_cpus(monkeypatch, seed, cases, lattice):
    """check_all's text and JSON on one, two and seven CPUs and on this
    host's usable CPUs, with the forks each run made."""
    out = []
    for cpus in (1, 2, 7, None):
        with monkeypatch.context() as m:
            if cpus is not None:
                usable_cpus(m, cpus)
            forks = counted_forks(m)
            report = oracle.check_all(seed, cases=cases, lattice=lattice)
        out.append(((report.to_json(), report.render_text()), len(forks)))
    return out


@pytest.mark.parametrize("lattice", [CONST, CONST_PLUS], ids=["const", "constplus"])
def test_workers_give_byte_identical_reports(monkeypatch, lattice):
    for seed in (3, 42):
        (alone, none), (two, one), (seven, six), (host, forked) = reports_by_cpus(
            monkeypatch, seed, 25, lattice
        )
        assert (none, one, six) == (0, 1, 6)
        assert forked == oracle._workers(len(oracle.CHECKS)) - 1
        assert alone == two == seven == host
        assert '"passed": true' in alone[0]


def test_workers_give_byte_identical_failure_reports(monkeypatch):
    # a broken engine: the properties that run it fail in every share, and
    # each failure is shrunk where it ran
    broken = Store.of(CONST, {"_": intval(7)})
    monkeypatch.setattr(oracle, "analyze_lifted", lambda body, entry: entry.map(lambda _: broken))
    (alone, _), (two, _), (seven, _), (host, _) = reports_by_cpus(monkeypatch, 5, 10, CONST)
    assert alone == two == seven == host
    failed = [line.split(":")[0] for line in alone[1].splitlines() if "FAIL" in line]
    # on two CPUs the last two run in the child
    assert failed == ["oracle-equivalence", "soundness", "commutation", "PROPERTY FAILURES"]
    assert "commutation[9]: commutation broken: " in alone[1]


def test_exception_in_a_child_is_raised_and_no_child_is_left(monkeypatch):
    forks = counted_forks(monkeypatch)

    def broken(gen, cases):
        raise ValueError(f"broken property on seed {gen.seed}")

    def later(gen, cases):
        raise TypeError("raised at a later offset")

    names = list(oracle.CHECKS)
    monkeypatch.setitem(oracle.CHECKS, names[3], broken)
    monkeypatch.setitem(oracle.CHECKS, names[4], later)
    # the lowest offset that raised wins, as on one CPU: on two, offset 3
    # raises in the child and offset 4 here
    for cpus, forked in ((1, 0), (2, 1)):
        usable_cpus(monkeypatch, cpus)
        forks.clear()
        with pytest.raises(ValueError, match="^broken property on seed 4$"):
            oracle.check_all(1, cases=5)
        assert len(forks) == forked
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_child_without_a_result_is_a_semantic_error(monkeypatch, capsys):
    usable_cpus(monkeypatch, 2)
    parent = os.getpid()

    def dies(gen, cases):
        if os.getpid() != parent:
            os._exit(1)
        raise AssertionError("ran in the parent")

    monkeypatch.setitem(oracle.CHECKS, list(oracle.CHECKS)[1], dies)
    assert cli.main(["check", "--cases", "3"]) == cli.EXIT_SEMANTIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the worker for galois-laws, soundness, commutation ended without a result\n"
    )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_running_children_are_killed_when_check_all_unwinds(monkeypatch):
    # on three CPUs share 1 ends without a result while share 2 still runs:
    # the error comes at once, and the running child is killed and reaped
    usable_cpus(monkeypatch, 3)
    parent = os.getpid()

    def dies(gen, cases):
        if os.getpid() != parent:
            os._exit(1)

    def sleeps(gen, cases):
        time.sleep(60)

    names = list(oracle.CHECKS)
    monkeypatch.setitem(oracle.CHECKS, names[1], dies)
    monkeypatch.setitem(oracle.CHECKS, names[2], sleeps)
    start = time.monotonic()
    with pytest.raises(SemanticError, match="worker for galois-laws, monotonicity ended"):
        oracle.check_all(1, cases=1)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_nothing_forks_on_one_cpu_beside_a_thread_or_without_fork(monkeypatch):
    want = oracle.check_all(8, cases=5).to_json()

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    usable_cpus(monkeypatch, 2)
    with pytest.raises(AssertionError, match="forked"):  # the patch is live
        oracle.check_all(8, cases=5)
    usable_cpus(monkeypatch, 1)
    assert oracle.check_all(8, cases=5).to_json() == want
    usable_cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert oracle.check_all(8, cases=5).to_json() == want
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "fork")
    assert oracle.check_all(8, cases=5).to_json() == want
