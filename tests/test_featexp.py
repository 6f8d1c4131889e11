"""Feature expressions: parsing, evaluation, satisfiability, configurations.

Derived expectations are computed by a small stand-alone enumerator in this
file, independent of the library's own decision procedure.
"""

from itertools import product as cartesian

import pytest

from liftcal import featexp as fx
from liftcal.errors import ParseError, SemanticError, UndeclaredFeature

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


def test_enumeration_cap():
    space = fx.FeatureSpace(tuple(f"F{i}" for i in range(25)))
    big = fx.disj_all(fx.Atom(f) for f in space.features)
    with pytest.raises(SemanticError):
        fx.sat(big)
    # literal conjunctions do not hit the cap: the literals are propagated
    assert fx.sat(fx.conj_all(fx.Atom(f) for f in space.features))


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


def test_eval_partial_agrees_with_total():
    phi = fx.parse_featexp("(A => B) & !(C | !A)", ABC)
    from itertools import product
    for bits in product((True, False), repeat=3):
        total = dict(zip(("A", "B", "C"), bits))
        assert fx.eval_partial(phi, total) == fx.eval_featexp(phi, total)
    assert fx.eval_partial(phi, {"A": False}) is False  # !A decides the meet
    assert fx.eval_partial(phi, {"C": True}) is False
    assert fx.eval_partial(phi, {"A": True, "B": True}) is None


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


def test_config_formula_is_literal_conjunction():
    config = fx.Config(AB, (True, False))
    assert fx.render(config.formula()) == "A & !B"


def test_duplicate_feature_rejected():
    with pytest.raises(SemanticError):
        fx.FeatureSpace(("A", "A"))


# ---------------------------------------------------------------------------
# Elimination


def test_eliminate_examples():
    a_and_b = fx.parse_featexp("A & B", AB)
    assert fx.equiv(fx.eliminate(a_and_b, "A"), fx.Atom("B"))
    a_or_b = fx.parse_featexp("A | B", AB)
    assert fx.valid(fx.eliminate(a_or_b, "A"))
    not_a_and_b = fx.parse_featexp("!A & B", AB)
    # oracle: both substitutions, (true->B is false... ) !true&B | !false&B == B
    by_hand = fx.Or(
        fx.And(fx.Not(fx.TRUE), fx.Atom("B")), fx.And(fx.Not(fx.FALSE), fx.Atom("B"))
    )
    assert fx.equiv(fx.eliminate(not_a_and_b, "A"), by_hand)
    assert fx.equiv(fx.eliminate(not_a_and_b, "A"), fx.Atom("B"))


def test_eliminate_is_existential_quantification():
    samples = ("A & B", "A | B", "A => B", "!(A & B) | C", "A & !A")
    for text in samples:
        phi = fx.parse_featexp(text, ABC)
        elim = fx.eliminate(phi, "A")
        assert "A" not in fx.features_of(elim)
        for bits in cartesian((True, False), repeat=2):
            w = dict(zip(("B", "C"), bits))
            expected = any(
                fx.eval_featexp(phi, {**w, "A": b}) for b in (True, False)
            )
            assert fx.eval_featexp(elim, {**w, "A": True}) == expected


def test_config_sets_are_identified_by_configurations():
    # the hint and the formulas only name a set; its configurations identify it
    a_or_b = fx.valid_configs(fx.FeatureModel(AB, fx.parse_featexp("A | B", AB)))
    b_or_a = fx.valid_configs(fx.FeatureModel(AB, fx.parse_featexp("B | A", AB)))
    assert a_or_b == b_or_a
    only_a = fx.valid_configs(fx.FeatureModel(AB, fx.Atom("A")))
    only_b = fx.valid_configs(fx.FeatureModel(AB, fx.Atom("B")))
    assert only_a.covers == only_b.covers
    assert only_a != only_b
