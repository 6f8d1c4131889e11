"""Feature expressions: parsing, evaluation, satisfiability, configurations.

Derived expectations are computed by a small stand-alone enumerator in this
file, independent of the library's own decision procedure.
"""

import random
import sys
import time
from itertools import product as cartesian

import pytest

from liftcal import abstraction as ab
from liftcal import featexp as fx
from liftcal import lang
from liftcal.errors import LiftcalError, ParseError, SemanticError, UndeclaredFeature
from liftcal.oracle import CaseGen, gen_featexp, gen_random_abstraction, gen_random_program
from liftcal.reconfig import reconfigure

from conftest import CHAIN_SOURCE, chain_source

AB = fx.FeatureSpace(("A", "B"))
ABC = fx.FeatureSpace(("A", "B", "C"))


def enumerate_models(phi, names):
    """Independent oracle: all satisfying valuations of phi over names."""
    models = []
    for bits in cartesian((True, False), repeat=len(names)):
        v = dict(zip(names, bits))
        if fx.eval_featexp(phi, v):
            models.append(v)
    return models


# ---------------------------------------------------------------------------
# Parsing


def test_parse_or():
    assert fx.parse_featexp("A | B", AB) == fx.Or(fx.Atom("A"), fx.Atom("B"))


def test_parse_precedence_not_binds_tighter_than_and():
    assert fx.parse_featexp("!A & B", AB) == fx.And(fx.Not(fx.Atom("A")), fx.Atom("B"))


def test_parse_undeclared_feature():
    with pytest.raises(UndeclaredFeature) as exc:
        fx.parse_featexp("A => C", AB)
    assert exc.value.name == "C"


def test_parse_implies_right_associative():
    phi = fx.parse_featexp("A => B => C", ABC)
    assert phi == fx.Implies(fx.Atom("A"), fx.Implies(fx.Atom("B"), fx.Atom("C")))


def test_parse_and_or_precedence():
    phi = fx.parse_featexp("A | B & C", ABC)
    assert phi == fx.Or(fx.Atom("A"), fx.And(fx.Atom("B"), fx.Atom("C")))


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        fx.parse_featexp("A &", AB)
    assert exc.value.line == 1


def test_render_round_trips():
    for text in ("A & !B", "A | B & C", "(A | B) & C", "A => B => C", "!(A | B)", "true", "false"):
        phi = fx.parse_featexp(text, ABC)
        assert fx.parse_featexp(fx.render(phi), ABC) == phi


# ---------------------------------------------------------------------------
# Evaluation, satisfiability, entailment


def test_eval_basics():
    a_or_b = fx.parse_featexp("A | B", AB)
    assert fx.eval_featexp(a_or_b, {"A": True, "B": False}) is True
    not_a_and_b = fx.parse_featexp("!A & B", AB)
    assert fx.eval_featexp(not_a_and_b, {"A": True, "B": True}) is False
    assert fx.eval_featexp(fx.TRUE, {}) is True


def test_sat_basics():
    assert not fx.sat(fx.parse_featexp("A & !A", AB))
    assert fx.sat(fx.parse_featexp("A | B", AB))


def test_sat_derived_case():
    phi = fx.parse_featexp("((A & B) | (A & !B)) & !B", AB)
    # oracle: enumerate all four valuations
    assert enumerate_models(phi, ("A", "B")) == [{"A": True, "B": False}]
    assert fx.sat(phi)


def test_entails():
    assert fx.entails(fx.parse_featexp("A & B", AB), fx.Atom("A"))
    assert not fx.entails(fx.parse_featexp("A | B", AB), fx.Atom("A"))
    phi = fx.parse_featexp("(A & B) | (A & !B)", AB)
    # oracle: every model of phi has A enabled
    assert all(v["A"] for v in enumerate_models(phi, ("A", "B")))
    assert fx.entails(phi, fx.Atom("A"))


def test_equiv():
    assert fx.equiv(fx.parse_featexp("A | B", AB), fx.parse_featexp("B | A", AB))
    assert fx.equiv(fx.Atom("A"), fx.parse_featexp("A & (B | !B)", AB))
    assert not fx.equiv(fx.Atom("A"), fx.parse_featexp("A & B", AB))


def test_entails_matches_enumeration_oracle():
    # spot-check the sat-based definition against brute force on random-ish pairs
    samples = [
        ("A & B", "A"),
        ("A | B", "B"),
        ("A => B", "!A | B"),
        ("!(A & B)", "!A | !B"),
        ("A & (B | C)", "(A & B) | (A & C)"),
    ]
    names = ("A", "B", "C")
    for left_text, right_text in samples:
        left = fx.parse_featexp(left_text, ABC)
        right = fx.parse_featexp(right_text, ABC)
        expected = all(
            fx.eval_featexp(right, v) for v in enumerate_models(left, names)
        )
        assert fx.entails(left, right) == expected


def test_sat_iff_negation_not_valid():
    for text in ("A & !A", "A | B", "A => A", "false", "!A"):
        phi = fx.parse_featexp(text, AB)
        assert fx.sat(phi) == (not fx.valid(fx.Not(phi)))


def test_mask_agrees_with_evaluation():
    space = fx.FeatureSpace(("A", "B", "C"))
    configs = fx.valid_configs(fx.FeatureModel(space, fx.parse_featexp("A | B", space)))
    assert configs.covers == tuple(1 << i for i in range(len(configs)))
    for text in ("A", "!A", "A & !B", "A | C", "A => C", "!(B | C) => A", "true", "false"):
        phi = fx.parse_featexp(text, space)
        expected = sum(
            1 << i
            for i, config in enumerate(configs.valuations)
            if fx.eval_featexp(phi, config.as_dict())
        )
        assert configs.mask(phi) == expected, text
    with pytest.raises(UndeclaredFeature):
        configs.mask(fx.Atom("D"))


def test_sat_has_no_feature_cap(monkeypatch):
    space = fx.FeatureSpace(tuple(f"F{i}" for i in range(25)))
    assert fx.sat(fx.disj_all(fx.Atom(f) for f in space.features))
    # A0, A0 => A1, ..., A38 => A39, !A39: forty features, no model
    names = [f"A{i}" for i in range(40)]
    chain = fx.conj_all(
        [fx.Atom(names[0])]
        + [fx.Implies(fx.Atom(a), fx.Atom(b)) for a, b in zip(names, names[1:])]
        + [fx.Not(fx.Atom(names[-1]))]
    )
    assert fx.sat(chain) is False
    monkeypatch.setattr(fx, "_ENUM_BUDGET", 16)
    with pytest.raises(SemanticError, match="^satisfiability search exceeded its budget$"):
        fx.sat(chain)


def test_sat_and_equiv_on_a_deep_formula():
    # a parsed conjunction is a left-deep chain: 5,000 clauses nest 5,000 deep
    names = [f"F{i}" for i in range(20)]
    text = " & ".join(f"({names[i % 20]} | !{names[(7 * i + 3) % 20]})" for i in range(5000))
    phi = fx.parse_featexp(text)
    assert fx.sat(phi)
    assert fx.equiv(phi, fx.parse_featexp(text))  # equal, but not the same object
    assert not fx.equiv(phi, fx.Atom("F1"))
    assert fx.entails(phi, fx.parse_featexp("F0 | !F3"))  # the first clause


def test_a_formula_and_its_negation_fold_in_the_diagram():
    names = [f"F{i}" for i in range(20)]
    text = " & ".join(f"({names[i % 20]} | !{names[(7 * i + 3) % 20]})" for i in range(5000))
    phi, psi = fx.parse_featexp(text), fx.parse_featexp(text)  # two parses, one node
    a, b, both, either = fx._decide(phi, psi, phi & ~psi, phi | ~psi)
    assert a == b not in (fx._FALSE, fx._TRUE)
    assert (both, either) == (fx._FALSE, fx._TRUE)
    # a search for a model that does not fold them took over a second
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        assert fx.sat(phi & ~psi) is False
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.1


def reference_sat(phi):
    """An enumerating sat, independent of the decision diagram: features forced
    by top-level literal conjuncts are fixed, the rest enumerated."""

    def forced_literals(node, forced):
        if isinstance(node, fx.And):
            return forced_literals(node.left, forced) and forced_literals(node.right, forced)
        if isinstance(node, fx.Atom):
            if forced.get(node.name) is False:
                return False
            forced[node.name] = True
            return True
        if isinstance(node, fx.Not) and isinstance(node.arg, fx.Atom):
            if forced.get(node.arg.name) is True:
                return False
            forced[node.arg.name] = False
            return True
        return not isinstance(node, fx.FalseExp)

    forced = {}
    if not forced_literals(phi, forced):
        return False
    free = [name for name in fx.features_of(phi) if name not in forced]
    for bits in cartesian((True, False), repeat=len(free)):
        if fx.eval_featexp(phi, {**dict(zip(free, bits)), **forced}):
            return True
    return False


def test_decisions_equal_the_enumerating_sat():
    space = fx.FeatureSpace(tuple(f"F{i}" for i in range(10)))
    narrow = fx.FeatureSpace(space.features[:3])
    gen = CaseGen(19)
    answers = []
    while len(answers) < 300:
        phi = gen_featexp(gen, space, depth=6)
        if len(fx.features_of(phi)) < 2:
            continue
        theta = gen_featexp(gen, narrow if len(answers) % 2 else space, depth=4)
        expected_sat = reference_sat(phi)
        expected_entails = not reference_sat(fx.And(phi, fx.Not(theta)))
        expected_equiv = expected_entails and not reference_sat(fx.And(theta, fx.Not(phi)))
        assert fx.sat(phi) == expected_sat, fx.render(phi)
        assert fx.valid(phi) == (not reference_sat(fx.Not(phi))), fx.render(phi)
        assert fx.entails(phi, theta) == expected_entails, (fx.render(phi), fx.render(theta))
        assert fx.equiv(phi, theta) == expected_equiv, (fx.render(phi), fx.render(theta))
        assert fx.equiv(phi, fx.And(phi, fx.TRUE))  # one root
        assert fx.equiv(phi, fx.Not(fx.Not(phi)))  # two roots, no model of their xor
        answers.append((expected_sat, expected_entails, expected_equiv))
    assert all(set(column) == {True, False} for column in zip(*answers))


# ---------------------------------------------------------------------------
# Configurations


def test_valid_configs_paper_example():
    fm = fx.FeatureModel(AB, fx.parse_featexp("A | B", AB))
    configs = fx.valid_configs(fm)
    assert [fx.render(f) for f in configs.formulas] == ["A & B", "A & !B", "!A & B"]
    assert configs.is_concrete
    assert configs.hint == fm.psi


def test_valid_configs_unsat_model():
    fm = fx.FeatureModel(fx.FeatureSpace(("A",)), fx.FALSE)
    assert len(fx.valid_configs(fm)) == 0


def test_valid_configs_prunes_wide_spaces():
    # thirty features, three valid configurations: enumeration must not
    # walk the full assignment tree
    names = tuple(f"F{i}" for i in range(30))
    space = fx.FeatureSpace(names)
    members = [
        fx.conj_all(
            fx.Atom(n) if i == j else fx.Not(fx.Atom(n))
            for j, n in enumerate(names)
        )
        for i in range(3)
    ]
    fm = fx.FeatureModel(space, fx.disj_all(members))
    configs = fx.valid_configs(fm)
    assert len(configs) == 3
    assert [sum(c.values) for c in configs.valuations] == [1, 1, 1]


def test_valid_configs_full_space_canonical_order():
    fm = fx.FeatureModel(ABC, fx.TRUE)
    configs = fx.valid_configs(fm)
    # oracle: canonical order is the lexicographic product, true before false
    expected = [
        dict(zip(("A", "B", "C"), bits))
        for bits in cartesian((True, False), repeat=3)
    ]
    assert len(configs) == 8
    assert [c.as_dict() for c in configs.valuations] == expected


def test_valid_configs_members_entail_model():
    fm = fx.FeatureModel(AB, fx.parse_featexp("A | B", AB))
    configs = fx.valid_configs(fm)
    for member in configs.formulas:
        assert fx.entails(member, fm.psi)
    assert fx.equiv(fx.disj_all(configs.formulas), fm.psi)


def random_formula(rng, names, depth):
    """A random formula over names using every connective and both constants."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return fx.Atom(rng.choice(names))
    if roll < 0.4:
        return fx.TRUE if rng.random() < 0.5 else fx.FALSE
    if roll < 0.55:
        return fx.Not(random_formula(rng, names, depth - 1))
    connective = rng.choice((fx.And, fx.Or, fx.Implies))
    return connective(random_formula(rng, names, depth - 1), random_formula(rng, names, depth - 1))


def equality_models():
    """(kind, model) pairs: random formulas, generated families, and their rewrites."""
    rng = random.Random(12)
    names = tuple(f"F{i}" for i in range(6))
    for _ in range(300):
        space = fx.FeatureSpace(names[: rng.randint(1, 6)])
        phi = random_formula(rng, space.features, rng.randint(0, 5))
        if rng.random() < 0.1:
            phi = fx.And(phi, fx.Not(phi))
        yield "formula", fx.FeatureModel(space, phi)
    gen = CaseGen(12)
    for _ in range(150):
        program = gen_random_program(gen)
        yield "generated", program.feature_model
        alpha = gen_random_abstraction(gen, program.feature_model.space)
        try:
            rewritten, _ = reconfigure(program, alpha)
        except LiftcalError:
            continue
        yield "rewritten", rewritten.feature_model


def test_valid_configs_equals_filtered_product():
    # oracle: the full product in canonical order, filtered by evaluation
    seen = {"formula": 0, "generated": 0, "rewritten": 0, "unsatisfiable": 0}
    for kind, fm in equality_models():
        names = fm.space.features
        expected = [tuple(v[n] for n in names) for v in enumerate_models(fm.psi, names)]
        configs = fx.valid_configs(fm)
        assert [c.values for c in configs.valuations] == expected, fx.render(fm.psi)
        assert configs.hint is fm.psi
        seen[kind] += 1
        seen["unsatisfiable"] += not expected
    assert seen["formula"] + seen["generated"] + seen["rewritten"] >= 500
    assert min(seen.values()) > 0, seen


def test_valid_configs_needs_no_recursion_per_feature():
    # fignore(A1) on the 11-feature chain: one fresh feature per configuration
    program = lang.parse_program(CHAIN_SOURCE)
    alpha = ab.parse_abstraction("fignore(A1)", program.feature_model.space)
    rewritten, _ = reconfigure(program, alpha)
    assert len(rewritten.feature_model.space) == 1024
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        configs = fx.valid_configs(rewritten.feature_model)
    finally:
        sys.setrecursionlimit(limit)
    assert [c.values.count(True) for c in configs.valuations] == [1] * 1024
    assert [c.values.index(True) for c in configs.valuations] == list(range(1024))


def test_the_exactly_one_model_of_a_rewritten_fignore_family_has_a_linear_diagram():
    # fignore(A1) on the n-feature chain names its m = 2^(n-1) components by
    # fresh features, and the rewritten model says exactly one of them is on
    for n in range(5, 10):
        program = lang.parse_program(chain_source(n))
        alpha = ab.parse_abstraction("fignore(A1)", program.feature_model.space)
        model = reconfigure(program, alpha)[0].feature_model
        m = 1 << n - 1
        assert len(model.space) == m
        dag = fx._Diagram("")
        root = dag.build(model.psi, {name: i for i, name in enumerate(model.space.features)})
        reached, work = set(), [root]
        while work:
            node = work.pop()
            if node not in reached and node not in (fx._FALSE, fx._TRUE):
                reached.add(node)
                work += dag.nodes[node][1:]
        assert len(reached) == 2 * m - 1, n


def test_valid_configs_budget():
    space = fx.FeatureSpace(tuple(f"F{i}" for i in range(22)))
    with pytest.raises(SemanticError, match="^configuration enumeration exceeded its budget$"):
        fx.valid_configs(fx.FeatureModel(space, fx.TRUE))


def test_config_formula_is_literal_conjunction():
    config = fx.Config(AB, (True, False))
    assert fx.render(config.formula()) == "A & !B"


def test_duplicate_feature_rejected():
    with pytest.raises(SemanticError):
        fx.FeatureSpace(("A", "A"))


def test_config_sets_are_identified_by_configurations():
    # the hint and the formulas only name a set; its configurations identify it
    a_or_b = fx.valid_configs(fx.FeatureModel(AB, fx.parse_featexp("A | B", AB)))
    b_or_a = fx.valid_configs(fx.FeatureModel(AB, fx.parse_featexp("B | A", AB)))
    assert a_or_b == b_or_a
    only_a = fx.valid_configs(fx.FeatureModel(AB, fx.Atom("A")))
    only_b = fx.valid_configs(fx.FeatureModel(AB, fx.Atom("B")))
    assert only_a.covers == only_b.covers
    assert only_a != only_b


# ---------------------------------------------------------------------------
# Bit-sliced sets against the Config-building enumeration they replaced


def reference_valid_configs(fm):
    """The configurations of the model by brute force: the full product in
    canonical order, filtered by evaluation, built one Config at a time; the
    universe's feature masks and the set's covers come from those Configs.
    The walk is charged to _ENUM_BUDGET as valid_configs charges `model
    true`, a step for the root and one per configuration of the product,
    before any is built.

    Returns (valuations, feature name -> mask, covers).
    """
    space = fm.space
    n = len(space)
    if 1 + (1 << n) > fx._ENUM_BUDGET:
        raise SemanticError("configuration enumeration exceeded its budget")
    configs = [
        fx.Config(space, values)
        for values in cartesian((True, False), repeat=n)
        if fx.eval_featexp(fm.psi, dict(zip(space.features, values)))
    ]
    masks = {
        name: sum(1 << i for i, config in enumerate(configs) if config.values[k])
        for k, name in enumerate(space.features)
    }
    return tuple(configs), masks, tuple(1 << i for i in range(len(configs)))


def sliced_models(seed):
    """Seeded models of 0-12 features: true, unsatisfiable, exactly-one,
    implication chains and random formulas."""
    rng = random.Random(seed)
    for n in range(13):
        space = fx.FeatureSpace(tuple(f"F{i}" for i in range(n)))
        atoms = [fx.Atom(f) for f in space.features]
        yield fx.FeatureModel(space, fx.TRUE)
        yield fx.FeatureModel(space, fx.FALSE)
        yield fx.FeatureModel(space, fx.disj_all(
            fx.conj_all(a if j == i else fx.Not(a) for j, a in enumerate(atoms))
            for i in range(n)
        ))
        yield fx.FeatureModel(space, fx.conj_all(
            fx.Implies(a, b) for a, b in zip(atoms, atoms[1:])
        ))
        for _ in range(3):
            if n:
                yield fx.FeatureModel(space, random_formula(rng, space.features, rng.randint(1, 6)))


def _outcome_of(thunk):
    try:
        return thunk()
    except SemanticError as exc:
        return "error", str(exc)


def test_bit_sliced_sets_equal_the_config_path():
    rng = random.Random(5)
    seen = {"empty": 0, "partial": 0, "full": 0}
    for fm in sliced_models(5):
        names = fm.space.features
        valuations, masks, covers = reference_valid_configs(fm)
        configs = fx.valid_configs(fm)
        assert configs.valuations == valuations, fx.render(fm.psi)
        assert configs.universe.valuations == valuations
        assert configs.covers == covers
        assert {name: configs.universe.feature_mask(name) for name in names} == masks
        assert configs.named == tuple(frozenset(on for on, v in zip(names, c.values) if v)
                                      for c in valuations)
        if len(valuations) <= 64:
            assert configs.formulas == tuple(v.formula() for v in valuations)
        full = (1 << len(valuations)) - 1
        probes = [v.formula() for v in valuations[:3]]
        probes += [random_formula(rng, names, 3) for _ in range(3) if names]
        for phi in probes + [fx.TRUE, fx.FALSE]:
            assert configs.mask(phi) == fx.mask_of(phi, masks.__getitem__, full)
        seen["empty" if not valuations else "full" if len(valuations) == 1 << len(names)
             else "partial"] += 1
    assert min(seen.values()) > 0, seen
    for n in (21, 22):
        space = fx.FeatureSpace(tuple(f"F{i}" for i in range(n)))
        fm = fx.FeatureModel(space, fx.TRUE)
        expected = _outcome_of(lambda: reference_valid_configs(fm))
        assert _outcome_of(lambda: fx.valid_configs(fm)) == expected
        assert expected == ("error", "configuration enumeration exceeded its budget")


def diagram_models():
    """sliced_models, equality_models and seeded random formulas over up to
    eight features (Implies, true, false and forced-unsatisfiable ones)."""
    yield from sliced_models(27)
    yield from (fm for _, fm in equality_models())
    rng = random.Random(27)
    names = tuple(f"F{i}" for i in range(8))
    for _ in range(200):
        space = fx.FeatureSpace(names[: rng.randint(1, 8)])
        phi = random_formula(rng, space.features, rng.randint(1, 7))
        yield fx.FeatureModel(space, fx.And(phi, fx.Not(phi)) if rng.random() < 0.1 else phi)


def product_masks(names):
    """Per feature, the mask of the full product's configurations enabling
    it, bit j standing for the j-th in canonical order (true before false)."""
    n = len(names)
    return {name: int(("0" * (1 << n - 1 - k) + "1" * (1 << n - 1 - k)) * (1 << k), 2)
            for k, name in enumerate(names)}


def test_the_decision_diagram_equals_the_reference():
    rng = random.Random(3)
    seen = {"unsatisfiable": 0, "implies": 0, "true": 0, "false": 0, "equivalent": 0}
    for fm in diagram_models():
        names, phi = fm.space.features, fm.psi
        valuations, masks, covers = reference_valid_configs(fm)
        configs = fx.valid_configs(fm)
        codes = tuple(sum(1 << len(names) - 1 - k for k, on in enumerate(c.values) if on)
                      for c in valuations)
        assert configs.universe.codes == codes, fx.render(phi)
        assert {name: configs.universe.feature_mask(name) for name in names} == masks
        assert configs.covers == covers
        assert configs.hint is phi
        # decisions against the models of each formula over the full product
        product, full = product_masks(names), (1 << (1 << len(names))) - 1

        def models(f):
            return fx.mask_of(f, product.__getitem__, full)

        theta = random_formula(rng, names, 3) if names else fx.TRUE
        absorbed = fx.Or(phi, fx.And(phi, theta))  # equivalent to phi
        assert fx.sat(phi) == (models(phi) != 0) == bool(valuations), fx.render(phi)
        assert fx.valid(phi) == (models(phi) == full)
        for left, right in ((phi, theta), (theta, phi), (phi, absorbed)):
            want = models(left) & ~models(right) == 0
            assert fx.entails(left, right) == want, (fx.render(left), fx.render(right))
            want = models(left) == models(right)
            assert fx.equiv(left, right) == want, (fx.render(left), fx.render(right))
        text = fx.render(phi)
        seen["unsatisfiable"] += not valuations
        seen["implies"] += "=>" in text
        seen["true"] += "true" in text
        seen["false"] += "false" in text
        seen["equivalent"] += fx.equiv(phi, theta)
    assert min(seen.values()) > 0, seen


def test_ifdef_cases_on_concrete_sets_equal_the_per_cover_split():
    from liftcal.lifted import ANALYZED, MIXED, UNTOUCHED, ifdef_cases

    def per_cover(configs, theta):
        t = configs.mask(theta)
        rest = configs.universe.full & ~t
        return [
            UNTOUCHED if not cover & t else ANALYZED if not cover & rest else MIXED
            for cover in configs.covers
        ]

    rng = random.Random(9)
    subsets = 0
    for fm in sliced_models(9):
        names = fm.space.features
        configs = fx.valid_configs(fm)
        sets = [configs]
        if names and len(configs):
            # a projection keeps a concrete subset, members no longer at bit i
            alpha = ab.Proj(random_formula(rng, names, 2))
            sets.append(ab.meaning_configs(alpha, fm.space, configs))
            subsets += 0 < len(sets[-1]) < len(configs)
        for members in sets:
            assert members.is_concrete
            for _ in range(4):
                theta = random_formula(rng, names, 3) if names else fx.TRUE
                cases = ifdef_cases(members, theta)
                assert list(cases) == per_cover(members, theta)
                assert MIXED not in list(cases)
    assert subsets > 10


def test_valid_configs_memory_follows_codes_not_configs():
    import tracemalloc

    space = fx.FeatureSpace(tuple(f"F{i}" for i in range(16)))
    tracemalloc.start()
    try:
        configs = fx.valid_configs(fx.FeatureModel(space, fx.TRUE))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(configs) == 1 << 16
    assert peak < 16 * 2**20, peak
