"""The source-to-source reconfigurator and its commutation with the analysis."""

import random
from functools import partial

import pytest

from liftcal import abstraction as ab
from liftcal import featexp as fx
from liftcal import lang
from liftcal.abstracted import analyze_abstracted
from liftcal.abstraction import NameAllocator
from liftcal.errors import SemanticError
from liftcal.lattice import CONST, LiftedStore, Store, TOP, intval
from liftcal.lifted import analyze_lifted, analyze_single
from liftcal.oracle import (
    CaseGen,
    gen_random_abstraction,
    gen_random_program,
    match_renamed_configs,
)
from liftcal.reconfig import reconfigure, render_renames


def flat_stmts(stmt):
    if isinstance(stmt, lang.Seq):
        return flat_stmts(stmt.first) + flat_stmts(stmt.second)
    return [stmt]


def test_fresh_feature():
    assert NameAllocator({"A", "B"}).fresh() == "Z1"
    assert NameAllocator({"A", "Z1"}).fresh() == "Z2"
    assert NameAllocator({"Z1", "Z2"}).fresh() == "Z3"
    alloc = NameAllocator({"A", "Z2", "Z4"})
    assert [alloc.fresh() for _ in range(3)] == ["Z1", "Z3", "Z5"]


def test_join_proj_rewrite_golden(s1_prime, space):
    alpha = ab.parse_abstraction("proj(A) >> join", space)
    rewritten, renames = reconfigure(s1_prime, alpha)
    assert rewritten.feature_model.space.features == ("Z1",)
    assert fx.render(rewritten.feature_model.psi) == "Z1"
    stmts = flat_stmts(rewritten.body)
    assert [lang.pretty_stmt(s) for s in stmts] == [
        "#if (Z1) { x := x + 1 }",
        "#if (Z1) { if (0) { x := 1 } else { skip } }",
    ]
    assert fx.equiv(renames["Z1"], fx.parse_featexp("(A & B) | (A & !B)", space))


def test_join_proj_b_rewrite_golden(s1_prime, space):
    alpha = ab.parse_abstraction("proj(B) >> join", space)
    rewritten, renames = reconfigure(s1_prime, alpha)
    stmts = flat_stmts(rewritten.body)
    assert [lang.pretty_stmt(s) for s in stmts] == [
        "#if (Z1) { if (0) { x := x + 1 } else { skip } }",
        "#if (Z1) { x := 1 }",
    ]
    assert fx.equiv(renames["Z1"], fx.parse_featexp("(A & B) | (!A & B)", space))


def test_product_rewrite_golden(s1_prime, space):
    alpha = ab.parse_abstraction("(proj(A) >> join) || proj(B)", space)
    rewritten, renames = reconfigure(s1_prime, alpha)
    assert rewritten.feature_model.space.features == ("Z1", "A", "B")
    stmts = flat_stmts(rewritten.body)
    assert [lang.pretty_stmt(s) for s in stmts] == [
        "#if (Z1 | A) { x := x + 1 }",
        "#if (Z1) { if (0) { x := 1 } else { skip } }",
        "#if (B) { x := 1 }",
    ]
    configs = fx.valid_configs(rewritten.feature_model)
    assert [fx.render(f) for f in configs.formulas] == [
        "Z1 & !A & !B",
        "!Z1 & A & B",
        "!Z1 & !A & B",
    ]


def test_proj_true_is_structural_identity(s1, s1_prime):
    for program in (s1, s1_prime):
        rewritten, renames = reconfigure(program, ab.Proj(fx.TRUE))
        assert renames == {}
        assert lang.pretty(rewritten) == lang.pretty(program)


def test_pure_join_has_single_configuration(s1, space, configs):
    rewritten, renames = reconfigure(s1, ab.Join())
    new_configs = fx.valid_configs(rewritten.feature_model)
    assert len(new_configs) == 1
    # after dropping the statically decided guards it is a single program
    simplified, _ = reconfigure(s1, ab.Join(), simplify=True)
    out = analyze_single(simplified.body, Store.top(CONST))
    entry = LiftedStore.top(new_configs, CONST)
    assert analyze_lifted(rewritten.body, entry).stores[0] == out


def test_simplify_requires_single_config(s1):
    with pytest.raises(SemanticError):
        reconfigure(s1, ab.Proj(fx.Atom("A")), simplify=True)


def test_exp_comm1_trace(s1, space, configs):
    # the lifted analysis over the reconfigured family reaches x = 1
    alpha = ab.parse_abstraction("proj(A) >> join", space)
    rewritten, _ = reconfigure(s1, alpha)
    new_configs = fx.valid_configs(rewritten.feature_model)
    entry = LiftedStore.top(new_configs, CONST)
    stmts = flat_stmts(rewritten.body)
    trace = [entry]
    for stmt in stmts:
        trace.append(analyze_lifted(lang.relabel(stmt), trace[-1]))
    assert [s.stores[0].get("x") for s in trace] == [TOP, intval(0), intval(1), intval(1)]


def test_round_trip_analyzes_identically(s1_prime, space, configs):
    alpha = ab.parse_abstraction("(proj(A) >> join) || proj(B)", space)
    rewritten, _ = reconfigure(s1_prime, alpha)
    reparsed = lang.parse_program(lang.pretty(rewritten))
    new_configs = fx.valid_configs(rewritten.feature_model)
    entry = LiftedStore.top(new_configs, CONST)
    assert analyze_lifted(rewritten.body, entry) == analyze_lifted(reparsed.body, entry)


def test_commutation_on_golden_cases(s1, s2, s1_prime, space, configs):
    for program in (s1, s2, s1_prime):
        for text in ("join", "proj(A) >> join", "proj(B) >> join",
                     "(proj(A) >> join) || proj(B)", "fignore(A)", "proj(!A)"):
            alpha = ab.parse_abstraction(text, space)
            meanings = ab.meaning_configs(alpha, space, configs)
            info = ab.abstract_configs(alpha, space, configs)
            d = LiftedStore.top(meanings, CONST)
            direct = analyze_abstracted(program.body, d)
            rewritten, _ = reconfigure(program, alpha)
            new_configs = fx.valid_configs(rewritten.feature_model)
            mapping = match_renamed_configs(info, new_configs)
            entry = LiftedStore(new_configs, tuple(d.stores[j] for j in mapping))
            via = analyze_lifted(rewritten.body, entry)
            for pos, j in enumerate(mapping):
                assert via.stores[pos] == direct.stores[j], (text, pos)


def test_body_key_erases_labels_and_reads_guards_by_mask(space, configs):
    key = partial(ab._body_key, mask=configs.named_masker())
    body = lang.Seq(lang.Assign("x", lang.Num(1), label=2), lang.Skip(label=3), label=1)
    a = lang.IfDef(fx.parse_featexp("A | B", space), body, label=0)
    b = lang.IfDef(fx.parse_featexp("B | A", space), lang.strip_labels(body), label=7)
    assert key(a) == key(b)
    # under the model A | B, `true` selects the configurations A | B selects
    assert key(lang.IfDef(fx.TRUE, body)) == key(a)
    assert key(lang.IfDef(fx.Atom("A"), body)) != key(a)
    assert key(lang.IfDef(fx.Atom("A"), lang.Skip())) != key(lang.IfDef(fx.Atom("A"), body))


def test_product_classes_bodies_whose_guards_have_equal_masks():
    # fignore(A) under a model that forces A joins each configuration on its
    # own: Z1 = A & B and Z2 = A & !B.  Side Z1 rewrites the inner #if (B) to
    # #if (Z1), side Z2 to #if (!Z2); both select Z1 of the two components,
    # so the two bodies are one class
    program = lang.parse_program(
        "features A, B; model A; begin x := 0; #if (A) { #if (B) { x := x + 1 } } end"
    )
    space = program.feature_model.space
    configs = fx.valid_configs(program.feature_model)
    alpha = ab.parse_abstraction("fignore(A)", space)
    rewritten, renames = reconfigure(program, alpha)
    assert lang.pretty_stmt(rewritten.body) == "x := 0; #if (Z1 | Z2) { #if (Z1) { x := x + 1 } }"
    assert {name: fx.render(phi) for name, phi in renames.items()} == {
        "Z1": "A & B", "Z2": "A & !B"}
    meanings = ab.meaning_configs(alpha, space, configs)
    direct = analyze_abstracted(program.body, LiftedStore.top(meanings, CONST))
    new_configs = fx.valid_configs(rewritten.feature_model)
    mapping = match_renamed_configs(ab.abstract_configs(alpha, space, configs), new_configs)
    via = analyze_lifted(rewritten.body, LiftedStore.top(new_configs, CONST))
    assert [via.stores[pos] for pos in range(len(mapping))] == [direct.stores[j] for j in mapping]
    assert [store.get("x") for store in direct.stores] == [intval(1), intval(0)]


def test_render_renames(space, configs):
    _, renames = reconfigure(
        lang.parse_program("features A, B; model A | B; begin #if (A) { skip } end"),
        ab.parse_abstraction("proj(A) >> join", space),
    )
    text = render_renames(renames)
    assert text.startswith("Z1 = ")
    assert "(A | B) & A" in text


def test_fproj_two_features_on_six_feature_chain():
    # the product has 32 fresh features: a guard decision that enumerated
    # their valuations would not finish
    names = [f"A{i}" for i in range(1, 7)]
    text = (
        f"features {', '.join(names)}; model true; begin x := 0; "
        + "; ".join(f"#if ({name}) {{ x := x + 1 }}" for name in names)
        + " end"
    )
    program = lang.parse_program(text)
    space = program.feature_model.space
    configs = fx.valid_configs(program.feature_model)
    alpha = ab.parse_abstraction("fproj(A1, A2)", space)
    rewritten, _ = reconfigure(program, alpha)
    info = ab.abstract_configs(alpha, space, configs)
    k_new = fx.valid_configs(rewritten.feature_model)
    mapping = match_renamed_configs(info, k_new)
    assert sorted(mapping) == list(range(len(info.configs)))
    meanings = ab.meaning_configs(alpha, space, configs)
    direct = analyze_abstracted(program.body, LiftedStore.top(meanings, CONST))
    via_rewrite = analyze_lifted(rewritten.body, LiftedStore.top(k_new, CONST))
    assert all(
        direct.stores[j].leq(via_rewrite.stores[pos]) for pos, j in enumerate(mapping)
    )


def chain_program(n):
    names = [f"A{i}" for i in range(1, n + 1)]
    body = "; ".join(["x := 0"] + [f"#if ({name}) {{ x := x + 1 }}" for name in names])
    return lang.parse_program(f"features {', '.join(names)}; model true; begin {body} end")


def test_wide_product_is_flat_and_commutes():
    # a product wider than the interpreter's default recursion limit
    program = chain_program(4)
    space = program.feature_model.space
    configs = fx.valid_configs(program.feature_model)
    sides = ["join(A1)"] + [f"proj(A{2 + i % 3})" for i in range(1099)]
    alpha = ab.parse_abstraction(" || ".join(sides), space)
    entry = LiftedStore.top(configs, CONST)
    abstract = ab.alpha_apply(alpha, configs, entry, CONST)
    direct = analyze_abstracted(program.body, abstract)
    concrete = ab.gamma_apply(alpha, configs, direct, CONST)
    assert analyze_lifted(program.body, entry).leq(concrete)
    rewritten, renames = reconfigure(program, alpha)
    assert list(renames) == ["Z1"]
    info = ab.abstract_configs(alpha, space, configs)
    k_new = fx.valid_configs(rewritten.feature_model)
    mapping = match_renamed_configs(info, k_new)
    assert sorted(mapping) == list(range(len(info.configs)))
    via_rewrite = analyze_lifted(
        rewritten.body, LiftedStore(k_new, tuple(abstract.stores[j] for j in mapping))
    )
    assert all(via_rewrite.stores[pos] == direct.stores[j] for pos, j in enumerate(mapping))
    assert len(alpha.parts) == 1100


def test_fignore_on_eleven_feature_chain():
    # one join per group of configurations agreeing off A1: a 1024-sided product
    program = chain_program(11)
    space = program.feature_model.space
    configs = fx.valid_configs(program.feature_model)
    alpha = ab.FIgnore("A1")
    entry = LiftedStore.top(configs, CONST)
    abstract = ab.alpha_apply(alpha, configs, entry, CONST)
    assert len(abstract) == 1024
    direct = analyze_abstracted(program.body, abstract)
    concrete = ab.gamma_apply(alpha, configs, direct, CONST)
    assert analyze_lifted(program.body, entry).leq(concrete)
    rewritten, renames = reconfigure(program, alpha)
    assert len(renames) == 1024
    # one #if per #if of the program, each guarded by an or of fresh features
    stmts = flat_stmts(rewritten.body)
    guards = [fx.features_of(s.cond) for s in stmts if isinstance(s, lang.IfDef)]
    assert len(guards) == 11 and all(set(g) <= set(renames) for g in guards)
    assert "&" not in "".join(
        fx.render(s.cond) for s in stmts if isinstance(s, lang.IfDef)
    )


def test_renames_and_model_agree_with_abstract_configs():
    # one application names the joins for both; a join of no component means false
    cases = 0
    for seed in (1, 2):
        gen = CaseGen(seed, max_features=4, max_abs_depth=4)
        for _ in range(200):
            program = gen_random_program(gen)
            space = program.feature_model.space
            alpha = gen_random_abstraction(gen, space)
            info = ab.abstract_configs(alpha, space, fx.valid_configs(program.feature_model))
            rewritten, renames = reconfigure(program, alpha)
            assert renames == info.renames, ab.render_abstraction(alpha)
            psi = info.configs.hint
            if psi is None:
                psi = fx.disj_all(info.configs.formulas)
            assert rewritten.feature_model == fx.FeatureModel(info.space, psi)
            cases += 1
    assert cases == 400


def _holds_nested_ifdef(stmt):
    return any(isinstance(node, lang.IfDef) and node is not outer
               for outer in lang.preorder(stmt) if isinstance(outer, lang.IfDef)
               for node in lang.preorder(outer.body))


def test_fignore_rewrites_as_its_expansion_into_joins():
    # fignore(f) against fignore_expand's product of join(phi)s, one per
    # group: the same program text, and renames equivalent name by name
    cases = nested = 0
    for seed in (3, 4):
        gen = CaseGen(seed, max_features=4, max_depth=6)
        for _ in range(100):
            program = gen_random_program(gen)
            configs = fx.valid_configs(program.feature_model)
            if not len(configs):
                continue
            nested += _holds_nested_ifdef(program.body)
            for feature in program.feature_model.space.features:
                got, got_renames = reconfigure(program, ab.FIgnore(feature))
                want, want_renames = reconfigure(program, ab.fignore_expand(feature, configs))
                assert lang.pretty(got) == lang.pretty(want), (lang.pretty(program), feature)
                assert list(got_renames) == list(want_renames)
                assert all(fx.equiv(got_renames[name], want_renames[name]) for name in got_renames)
                cases += 1
    assert cases > 400 and nested > 20


def test_fignore_rewrite_builds_ifdefs_in_proportion_to_its_output(monkeypatch):
    # fignore(A1) on the 6-feature chain keeps 32 groups; each #if of the
    # program becomes one #if, and rewriting it builds no #if per group
    program = chain_program(6)
    _, rewrite = ab.apply(ab.FIgnore("A1"), fx.valid_configs(program.feature_model))
    built = []
    init = lang.IfDef.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(lang.IfDef, "__init__", counting_init)
    out = rewrite(program.body)
    monkeypatch.undo()
    assert sum(isinstance(s, lang.IfDef) for s in flat_stmts(out)) == 6
    assert len(built) <= 2 * 6


def reference_match(abstracted_info, rewritten_configs):
    """The match by Config valuations that match_renamed_configs replaced."""
    valuations = abstracted_info.configs.valuations
    position = {}
    for i, config in enumerate(valuations):
        position.setdefault(frozenset(config.as_dict().items()), i)
    try:
        mapping = [position[frozenset(c.as_dict().items())] for c in rewritten_configs.valuations]
    except KeyError:
        raise SemanticError("rewritten configuration has no abstract counterpart") from None
    if len(set(mapping)) != len(valuations):
        raise SemanticError("rewritten configurations do not cover the abstract set")
    return mapping


def named_set(names, text):
    space = fx.FeatureSpace(tuple(names))
    configs = fx.valid_configs(fx.FeatureModel(space, fx.parse_featexp(text, space)))
    return ab.AbstractedConfigs(space=space, configs=configs, meaning_view=configs)


def match_outcome(match, info, configs):
    try:
        return match(info, configs)
    except SemanticError as exc:
        return str(exc)


def test_match_of_spaces_with_other_features_or_uncovered_sets():
    info = named_set("AB", "A | B")
    other = named_set("AC", "A | C").configs
    assert match_outcome(match_renamed_configs, info, other) == (
        "rewritten configuration has no abstract counterpart")
    empty = named_set("AC", "false").configs
    assert match_outcome(match_renamed_configs, info, empty) == (
        "rewritten configurations do not cover the abstract set")
    uncovered = named_set("BA", "A & B").configs
    assert match_outcome(match_renamed_configs, info, uncovered) == (
        "rewritten configurations do not cover the abstract set")
    # the same features in another order: keyed by enabled features, not bits
    assert match_renamed_configs(info, named_set("BA", "A | B").configs) == [0, 2, 1]


def test_match_equals_the_match_by_valuations():
    rng = random.Random(4)
    names = "ABCD"
    seen = set()
    for _ in range(400):
        texts = [rng.choice(["true", "false", "A | B", "!A", "A & !C", "B => C", "C | D",
                             "A & B & C", "!(B | D)"]) for _ in range(2)]
        spaces = []
        for text in texts:
            needed = [f for f in names if f in text]
            extra = [f for f in names if f not in needed and rng.random() < 0.4]
            space = needed + extra
            rng.shuffle(space)
            spaces.append(space)
        info, configs = named_set(spaces[0], texts[0]), named_set(spaces[1], texts[1]).configs
        want = match_outcome(reference_match, info, configs)
        assert match_outcome(match_renamed_configs, info, configs) == want, (spaces, texts)
        seen.add(want if type(want) is str else "match")
    assert len(seen) == 3, seen
