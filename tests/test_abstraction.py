"""The abstraction calculus: construction, alpha/gamma, derived operators."""

from itertools import compress

import pytest

from liftcal import abstraction as ab
from liftcal import featexp as fx
from liftcal import lang
from liftcal.errors import SemanticError
from liftcal.lattice import CONST, TOP, LiftedStore, Store, intval
from liftcal.lifted import analyze_lifted
from liftcal.oracle import CaseGen, gen_lifted, gen_random_abstraction, gen_random_program

from conftest import CHAIN_SOURCE


def store_values(lifted):
    return [s.get("x") for s in lifted.stores]


@pytest.fixture
def a_s1(s1, configs, top_store):
    return analyze_lifted(s1.body, top_store)


@pytest.fixture
def a_s2(s2, configs, top_store):
    return analyze_lifted(s2.body, top_store)


# ---------------------------------------------------------------------------
# DSL parsing


def test_parse_join(space):
    assert ab.parse_abstraction("join", space) == ab.Join()


def test_parse_compose_reads_left_to_right(space):
    alpha = ab.parse_abstraction("proj(A) >> join", space)
    assert alpha == ab.Compose(ab.Join(), ab.Proj(fx.Atom("A")))


def test_parse_product_and_grouping(space):
    alpha = ab.parse_abstraction("(proj(A) >> join) || proj(B)", space)
    assert alpha == ab.Product(
        (ab.Compose(ab.Join(), ab.Proj(fx.Atom("A"))), ab.Proj(fx.Atom("B")))
    )


def test_parse_sugar_forms(space):
    assert ab.parse_abstraction("join(A)", space) == ab.JoinPhi(fx.Atom("A"))
    assert ab.parse_abstraction("fignore(A)", space) == ab.FIgnore("A")
    assert ab.parse_abstraction("fproj(A, B)", space) == ab.FProj(("A", "B"))


def test_parse_compose_binds_tighter_than_product(space):
    alpha = ab.parse_abstraction("proj(A) >> join || proj(B)", space)
    assert isinstance(alpha, ab.Product)
    assert isinstance(alpha.parts[0], ab.Compose)


def test_product_chains_parse_flat(space):
    parts = (ab.Proj(fx.Atom("A")), ab.Join(), ab.JoinPhi(fx.Atom("B")))
    flat = ab.Product(parts)
    for text in (
        "proj(A) || (join || join(B))",
        "(proj(A) || join) || join(B)",
        "proj(A) || join || join(B)",
    ):
        alpha = ab.parse_abstraction(text, space)
        assert alpha == flat
        assert ab.render_abstraction(alpha) == "proj(A) || join || join(B)"
        assert ab.parse_abstraction(ab.render_abstraction(alpha), space) == alpha
    assert ab.product((ab.Product(parts[:2]), parts[2])) == flat
    assert ab.product((parts[0],)) == parts[0]


def test_render_round_trips(space):
    for text in (
        "join",
        "proj(A & B)",
        "proj(A) >> join",
        "(proj(A) >> join) || proj(B)",
        "fignore(A) || join(!B)",
        "fproj(A, B)",
    ):
        alpha = ab.parse_abstraction(text, space)
        assert ab.parse_abstraction(ab.render_abstraction(alpha), space) == alpha


# ---------------------------------------------------------------------------
# Configuration-set abstraction


def test_join_configs(space, configs):
    info = ab.abstract_configs(ab.Join(), space, configs)
    assert info.space.features == ("Z1",)
    assert [fx.render(f) for f in info.configs.formulas] == ["Z1"]
    meaning = info.renames["Z1"]
    assert fx.equiv(meaning, fx.disj_all(configs.formulas))


def test_proj_configs(space, configs):
    info = ab.abstract_configs(ab.Proj(fx.Atom("A")), space, configs)
    assert info.space == space
    assert [fx.render(f) for f in info.configs.formulas] == ["A & B", "A & !B"]
    assert info.renames == {}


def test_product_configs_paper_example(space, configs):
    alpha = ab.parse_abstraction("(proj(A) >> join) || proj(B)", space)
    info = ab.abstract_configs(alpha, space, configs)
    assert info.space.features == ("Z1", "A", "B")
    assert [fx.render(f) for f in info.configs.formulas] == [
        "Z1 & !A & !B",
        "!Z1 & A & B",
        "!Z1 & !A & B",
    ]
    assert fx.equiv(
        info.renames["Z1"], fx.parse_featexp("(A & B) | (A & !B)", space)
    )
    # meanings line up with the named configs
    assert fx.equiv(info.meanings[1], fx.parse_featexp("A & B", space))
    assert fx.equiv(info.meanings[2], fx.parse_featexp("!A & B", space))


def test_named_hint_is_built_only_where_read(monkeypatch, a_s1, space, configs):
    alpha = ab.parse_abstraction("(proj(A) >> join) || proj(B)", space)
    built = []
    merged_named_hint = ab._merged_named_hint
    monkeypatch.setattr(
        ab, "_merged_named_hint", lambda states: built.append(states) or merged_named_hint(states)
    )
    abstracted = ab.alpha_apply(alpha, configs, a_s1)
    ab.gamma_apply(alpha, configs, abstracted)
    ab.meaning_configs(alpha, space, configs)
    assert built == []
    info = ab.abstract_configs(alpha, space, configs)
    assert len(built) == 1
    assert fx.equiv(info.configs.hint, fx.disj_all(info.configs.formulas))


def test_named_hint_is_built_once_per_state(monkeypatch, space, configs):
    # both projections of the outer product read the inner product's hint
    alpha = ab.parse_abstraction("(proj(A) || proj(!A)) >> (proj(B) || proj(!B))", space)
    built = []
    merged_named_hint = ab._merged_named_hint
    monkeypatch.setattr(
        ab, "_merged_named_hint", lambda states: built.append(states) or merged_named_hint(states)
    )
    info = ab.abstract_configs(alpha, space, configs)
    assert len(built) == 2
    assert fx.equiv(info.configs.hint, fx.disj_all(info.configs.formulas))


# ---------------------------------------------------------------------------
# Alpha on stores (paper values)


def test_join_gathers_all(a_s1, a_s2, space, configs):
    assert store_values(ab.alpha_apply(ab.Join(), configs, a_s1)) == [intval(1)]
    assert store_values(ab.alpha_apply(ab.Join(), configs, a_s2)) == [TOP]


def test_proj_keeps_matching_components(a_s2, space, configs):
    proj_a = ab.alpha_apply(ab.Proj(fx.Atom("A")), configs, a_s2)
    assert store_values(proj_a) == [intval(0), intval(1)]
    proj_not_a = ab.alpha_apply(ab.Proj(fx.Not(fx.Atom("A"))), configs, a_s2)
    assert store_values(proj_not_a) == [intval(-1)]


def test_sequential_composition_example(a_s2, space, configs):
    join_a = ab.parse_abstraction("proj(A) >> join", space)
    assert store_values(ab.alpha_apply(join_a, configs, a_s2)) == [TOP]
    join_not_a = ab.parse_abstraction("proj(!A) >> join", space)
    assert store_values(ab.alpha_apply(join_not_a, configs, a_s2)) == [intval(-1)]


def test_fignore_examples(a_s2, space, configs):
    ignored_a = ab.alpha_apply(ab.FIgnore("A"), configs, a_s2)
    assert store_values(ignored_a) == [TOP, intval(1)]
    assert fx.equiv(
        ignored_a.configs.formulas[0], fx.parse_featexp("(A & B) | (!A & B)", space)
    )
    assert fx.equiv(ignored_a.configs.formulas[1], fx.parse_featexp("A & !B", space))
    ignored_b = ab.alpha_apply(ab.FIgnore("B"), configs, a_s2)
    assert store_values(ignored_b) == [TOP, intval(-1)]
    assert fx.equiv(
        ignored_b.configs.formulas[0], fx.parse_featexp("(A & B) | (A & !B)", space)
    )


def test_workshop_product_example(a_s2, space, configs):
    # join(A) || join(B) keeps two components: joins of the A- and B-parts
    alpha = ab.Product((ab.JoinPhi(fx.Atom("A")), ab.JoinPhi(fx.Atom("B"))))
    result = ab.alpha_apply(alpha, configs, a_s2)
    assert store_values(result) == [TOP, TOP]
    # and on a_s1 everything is constant 1
    ones = LiftedStore(configs, tuple(Store.of(CONST, {"x": intval(1)}) for _ in configs))
    assert store_values(ab.alpha_apply(alpha, configs, ones)) == [intval(1), intval(1)]


def test_compose_proj_proj(a_s2, space, configs):
    alpha = ab.parse_abstraction("proj(B) >> proj(A)", space)
    assert store_values(ab.alpha_apply(alpha, configs, a_s2)) == [intval(0)]


# ---------------------------------------------------------------------------
# Gamma (paper equations)


def test_gamma_join_replicates(space, configs):
    meanings = ab.meaning_configs(ab.Join(), space, configs)
    single = LiftedStore(meanings, (Store.of(CONST, {"x": intval(1)}),))
    out = ab.gamma_apply(ab.Join(), configs, single)
    assert store_values(out) == [intval(1)] * 3


def test_gamma_proj_fills_top(space, configs):
    alpha = ab.Proj(fx.Atom("A"))
    meanings = ab.meaning_configs(alpha, space, configs)
    abstract = LiftedStore(
        meanings, (Store.of(CONST, {"x": intval(0)}), Store.of(CONST, {"x": intval(1)}))
    )
    out = ab.gamma_apply(alpha, configs, abstract)
    # derived: phi-components copied in order, the !A component filled with top
    assert store_values(out) == [intval(0), intval(1), TOP]


def test_gamma_product_is_meet_of_sides(space, configs):
    left = ab.JoinPhi(fx.Atom("A"))
    right = ab.JoinPhi(fx.Atom("B"))
    product = ab.Product((left, right))
    meanings = ab.meaning_configs(product, space, configs)
    d = LiftedStore(
        meanings, (Store.of(CONST, {"x": intval(1)}), Store.of(CONST, {"x": intval(2)}))
    )
    out = ab.gamma_apply(product, configs, d)
    # derived: gamma_left fills (1,1,top), gamma_right fills (2,top,2); meet
    left_meanings = ab.meaning_configs(left, space, configs)
    right_meanings = ab.meaning_configs(right, space, configs)
    g_left = ab.gamma_apply(left, configs, LiftedStore(left_meanings, (d.stores[0],)))
    g_right = ab.gamma_apply(right, configs, LiftedStore(right_meanings, (d.stores[1],)))
    assert out == g_left.meet(g_right)


# ---------------------------------------------------------------------------
# fignore expansion (the derived-abstraction theorem)


def test_fignore_expand_structure(space, configs):
    expansion = ab.fignore_expand("A", configs)
    assert isinstance(expansion, ab.Product)
    left, right = expansion.parts
    assert isinstance(left, ab.JoinPhi)
    assert isinstance(right, ab.JoinPhi)
    assert fx.equiv(left.phi, fx.parse_featexp("(A & B) | (!A & B)", space))
    assert fx.equiv(right.phi, fx.parse_featexp("A & !B", space))
    left_b, right_b = ab.fignore_expand("B", configs).parts
    assert fx.equiv(left_b.phi, fx.parse_featexp("(A & B) | (A & !B)", space))
    assert fx.equiv(right_b.phi, fx.parse_featexp("!A & B", space))


def test_fignore_expand_single_group():
    space = fx.FeatureSpace(("A",))
    configs = fx.valid_configs(fx.FeatureModel(space, fx.Atom("A")))
    expansion = ab.fignore_expand("A", configs)
    assert isinstance(expansion, ab.JoinPhi)


def test_fignore_agrees_with_expansion(a_s2, space, configs):
    direct = ab.alpha_apply(ab.FIgnore("A"), configs, a_s2)
    expanded = ab.alpha_apply(ab.fignore_expand("A", configs), configs, a_s2)
    assert direct.stores == expanded.stores
    assert all(
        fx.equiv(f, g)
        for f, g in zip(direct.configs.formulas, expanded.configs.formulas)
    )


# ---------------------------------------------------------------------------
# Structural identities and edge cases


def test_proj_true_is_identity(a_s2, space, configs):
    out = ab.alpha_apply(ab.Proj(fx.TRUE), configs, a_s2)
    assert out.stores == a_s2.stores
    assert list(out.configs.formulas) == list(configs.formulas)


def test_proj_false_maps_to_empty(a_s2, space, configs):
    out = ab.alpha_apply(ab.Proj(fx.FALSE), configs, a_s2)
    assert len(out) == 0
    # and gamma of the empty tuple is all top
    back = ab.gamma_apply(ab.Proj(fx.FALSE), configs, out, CONST)
    assert store_values(back) == [TOP] * 3


def test_join_over_empty_selection(a_s2, space, configs):
    out = ab.alpha_apply(ab.JoinPhi(fx.FALSE), configs, a_s2)
    assert len(out) == 1
    assert not fx.sat(out.configs.formulas[0])
    assert out.stores[0] == Store.bot(CONST)


def test_joinphi_is_join_after_proj(a_s1, a_s2, space, configs):
    for phi_text in ("A", "B", "!A", "A & B", "false", "A | B"):
        phi = fx.parse_featexp(phi_text, space)
        sugar = ab.JoinPhi(phi)
        expanded = ab.Compose(ab.Join(), ab.Proj(phi))
        for store in (a_s1, a_s2):
            left = ab.alpha_apply(sugar, configs, store)
            right = ab.alpha_apply(expanded, configs, store)
            assert left.stores == right.stores
            assert all(
                fx.equiv(f, g)
                for f, g in zip(left.configs.formulas, right.configs.formulas)
            )


def test_fproj_is_nested_fignore(a_s2, space, configs):
    via_fproj = ab.alpha_apply(ab.FProj(("A", "B")), configs, a_s2)
    nested = ab.Compose(ab.FIgnore("A"), ab.FIgnore("B"))
    via_nested = ab.alpha_apply(nested, configs, a_s2)
    matched = set()
    for phi, store in zip(via_fproj.configs.formulas, via_fproj.stores):
        for j, (other, other_store) in enumerate(
            zip(via_nested.configs.formulas, via_nested.stores)
        ):
            if j not in matched and fx.equiv(phi, other) and store == other_store:
                matched.add(j)
                break
        else:
            pytest.fail("no equivalent component in the nested form")


def test_output_configs_match_meaning_view(a_s2, space, configs):
    for text in ("join", "proj(A)", "proj(A) >> join", "fignore(B)", "join(A) || proj(B)"):
        alpha = ab.parse_abstraction(text, space)
        out = ab.alpha_apply(alpha, configs, a_s2)
        meanings = ab.meaning_configs(alpha, space, configs)
        assert len(out.configs) == len(meanings)
        assert all(
            fx.equiv(f, g) for f, g in zip(out.configs.formulas, meanings.formulas)
        )


def test_alpha_requires_concrete_configs(space, configs, a_s2):
    joined = ab.alpha_apply(ab.Join(), configs, a_s2)
    with pytest.raises(SemanticError):
        ab.alpha_apply(ab.Join(), joined.configs, joined)


def test_galois_laws_fixed_instances(space, configs):
    from liftcal.oracle import check_galois

    for text in ("join", "proj(A)", "join(B)", "fignore(A)", "(proj(A) >> join) || proj(B)"):
        alpha = ab.parse_abstraction(text, space)
        report = check_galois(
            CaseGen(7), cases=60, alpha=alpha, space=space, configs=configs
        )
        assert report.passed, report.failures


def test_covers_agree_with_meanings():
    # covers decide everything; the rendered meanings must denote the same sets
    gen = CaseGen(17)
    for _ in range(300):
        program = gen_random_program(gen)
        space = program.feature_model.space
        configs = fx.valid_configs(program.feature_model)
        alpha = gen_random_abstraction(gen, space)
        meanings = ab.meaning_configs(alpha, space, configs)
        store = gen_lifted(gen, configs, ("x", "y"))
        out = ab.alpha_apply(alpha, configs, store)
        for k, meaning in enumerate(meanings.formulas):
            members = [
                i
                for i, config in enumerate(configs.valuations)
                if fx.eval_featexp(meaning, config.as_dict())
            ]
            assert meanings.covers[k] == sum(1 << i for i in members)
            expected = Store.bot(CONST)
            for i in members:
                expected = expected.join(store.stores[i])
            assert out.stores[k] == expected


def test_meaning_views_are_identified_by_covers(space, configs):
    # the same confounded configurations under differently built names
    direct = ab.meaning_configs(ab.Join(), space, configs)
    alpha = ab.parse_abstraction("(join(A) || join(!A)) >> join", space)
    staged = ab.meaning_configs(alpha, space, configs)
    assert [fx.render(f) for f in direct.formulas] != [fx.render(f) for f in staged.formulas]
    assert direct == staged


def test_one_view_reads_by_meaning_and_by_name():
    # an abstraction makes one configuration set: alpha indexes its output by
    # it, and abstract_configs reads the same set by meaning and by name
    gen = CaseGen(17)
    for _ in range(300):
        program = gen_random_program(gen)
        space = program.feature_model.space
        configs = fx.valid_configs(program.feature_model)
        alpha = gen_random_abstraction(gen, space)
        view = ab.meaning_configs(alpha, space, configs)
        out = ab.alpha_apply(alpha, configs, LiftedStore.top(configs, CONST))
        info = ab.abstract_configs(alpha, space, configs)
        assert view == out.configs == info.meaning_view
        assert view.named_space == info.space
        assert list(view.named) == [
            frozenset(compress(info.space.features, config.values))
            for config in info.configs.valuations
        ]
        assert [fx.render(view.named_formula(i)) for i in range(len(view))] == [
            fx.render(phi) for phi in info.configs.formulas
        ]


def test_alpha_joins_each_distinct_store_once(monkeypatch):
    # 2048 configurations hold 12 distinct stores
    program = lang.parse_program(CHAIN_SOURCE)
    configs = fx.valid_configs(program.feature_model)
    lifted = analyze_lifted(program.body, LiftedStore.top(configs, CONST))
    joins = []
    join = Store.join
    monkeypatch.setattr(Store, "join", lambda self, other: joins.append(1) or join(self, other))
    out = ab.alpha_apply(ab.Join(), configs, lifted)
    assert len(joins) <= 12
    assert store_values(out) == [TOP]
