"""Configuration sets against a per-configuration reference with explicit covers.

The reference applies an abstraction to a universe's configurations the
plain way: every member, a configuration or a join, holds its cover as one
int, a configuration's being `1 << i`.  Each reading of a set that the
analyses and abstractions make (covers, `#if` cases, selections, named
masks, alpha, gamma, equality and hash) is compared with the same reading
made cover by cover.
"""

import pytest

from liftcal import abstraction as ab
from liftcal import featexp as fx
from liftcal import lang
from liftcal.errors import SemanticError
from liftcal.lattice import CONST, LiftedStore, Store, intval
from liftcal.lifted import ANALYZED, MIXED, UNTOUCHED, ifdef_cases
from liftcal.oracle import (
    CaseGen,
    gen_featexp,
    gen_lifted,
    gen_random_abstraction,
    gen_random_program,
)

from conftest import CHAIN_SOURCE

_MASKED_FAMILY = """features A1, A2, A3, A4, A5;
model (A1 | A2) & (A3 => !A4);
begin skip end
"""
_SPECS = [None, "proj(A1 | !A3)", "proj(A1) || join(!A1)", "fignore(A1)", "fproj(A1, A2)",
          "join >> join", "(proj(A1) || join(!A1)) >> proj(A2)"]


def _bit_indices(mask):
    return [b for b, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def reference_apply(alpha, universe):
    """(members, covers) of the set alpha makes of the universe's configurations,
    built cover by cover; joins are named as `ab.apply` names them."""
    alloc = ab.NameAllocator(universe.space.features)
    full = universe.full

    def inside(covers, phi):  # members whose every configuration satisfies phi
        rest = full & ~universe.mask(phi)
        return [i for i, cover in enumerate(covers) if not cover & rest]

    def join(members, covers, indices):
        cover = 0
        for i in indices:
            cover |= covers[i]
        return [frozenset((alloc.fresh(),))], [cover]

    def groups(covers, feature):
        names, codes = universe.space.features, universe.codes
        keep = sum(1 << len(names) - 1 - k for k, f in enumerate(names) if f != feature)
        out = {}
        for i, cover in enumerate(covers):
            key = frozenset(codes[b] & keep for b in _bit_indices(cover))
            out.setdefault(key, []).append(i)
        return list(out.values())

    def go(alpha, members, covers):
        if isinstance(alpha, ab.Join):
            return join(members, covers, range(len(members)))
        if isinstance(alpha, ab.JoinPhi):
            indices = range(len(members)) if alpha.phi == fx.TRUE else inside(covers, alpha.phi)
            return join(members, covers, indices)
        if isinstance(alpha, ab.Proj):
            kept = inside(covers, alpha.phi)
            return [members[i] for i in kept], [covers[i] for i in kept]
        if isinstance(alpha, ab.Compose):
            return go(alpha.outer, *go(alpha.inner, members, covers))
        if isinstance(alpha, ab.Product):
            merged = {}
            for part in alpha.parts:
                for member, cover in zip(*go(part, members, covers)):
                    merged.setdefault(member, cover)
            return list(merged), list(merged.values())
        if isinstance(alpha, ab.FIgnore):
            if alpha.feature not in universe.space:
                raise SemanticError(f"cannot ignore undeclared feature {alpha.feature}")
            # one join per group, named in group order
            joins = [join(members, covers, g) for g in groups(covers, alpha.feature)]
            return [named[0] for named, _ in joins], [cover[0] for _, cover in joins]
        if isinstance(alpha, ab.FProj):  # the last feature is ignored first
            for feature in reversed(alpha.features):
                members, covers = go(ab.FIgnore(feature), members, covers)
            return members, covers
        raise TypeError(alpha)

    n = len(universe.codes)
    return go(alpha, list(range(n)), [1 << i for i in range(n)])


def _named(universe, members):
    names = universe.space.features
    return [frozenset(f for f, v in zip(names, universe.values(m)) if v) if type(m) is int else m
            for m in members]


def _reference_masker(named):
    masks = {}

    def feature_mask(name):
        if name not in masks:
            masks[name] = fx.mask_from_bits([name in on for on in named])
        return masks[name]

    return lambda phi: fx.mask_of(phi, feature_mask, (1 << len(named)) - 1)


def _reference_alpha(store, covers, lattice):
    out, stores = [], store.stores
    for cover in covers:
        joined = Store.bot(lattice)
        for b in _bit_indices(cover):
            joined = joined.join(stores[b])
        out.append(joined)
    return out


def _reference_gamma(abstract, covers, n, lattice):
    out = [None] * n
    for cover, s in zip(covers, abstract.stores):
        for b in _bit_indices(cover):
            out[b] = s if out[b] is None else out[b].meet(s)
    return [Store.top(lattice) if met is None else met for met in out]


def _compare(program, alpha, gen, probes):
    """Every reading of the set alpha makes of program's configurations
    against the reference; returns (the set, its reference covers)."""
    space = program.feature_model.space
    configs = fx.valid_configs(program.feature_model)
    universe = configs.universe
    out = configs if alpha is None else ab.apply(alpha, configs)[0]
    members, covers = reference_apply(alpha or ab.Proj(fx.TRUE), universe)
    shown = "lifted" if alpha is None else ab.render_abstraction(alpha)
    assert list(out.members) == members, shown
    assert list(out.covers) == covers, shown
    named = _named(universe, members)
    assert list(out.named) == named, shown
    mask, reference = out.named_masker(), _reference_masker(named)
    names = fx.FeatureSpace(tuple(dict.fromkeys((*out.named_space, *space, "Z1", "Q"))))
    full = universe.full
    for _ in range(probes):
        theta = gen_featexp(gen, space, depth=3)
        t = universe.mask(theta)
        rest = full & ~t
        assert list(ifdef_cases(out, theta)) == [
            UNTOUCHED if not c & t else ANALYZED if not c & rest else MIXED for c in covers
        ], (shown, fx.render(theta))
        assert list(ab._select(out, t)) == [i for i, c in enumerate(covers) if not c & rest]
        phi = gen_featexp(gen, names, depth=3)
        assert mask(phi) == reference(phi), (shown, fx.render(phi))
    lattice = gen.lattice
    variables = lang.program_vars(program) or ["x"]
    lifted = gen_lifted(gen, configs, variables)
    if alpha is not None:
        abstract = ab.alpha_over(out, configs, lifted, lattice)
        assert list(abstract.stores) == _reference_alpha(lifted, covers, lattice), shown
        entry = gen_lifted(gen, out, variables)
        gamma = ab.gamma_apply(alpha, configs, entry, lattice)
        assert list(gamma.stores) == _reference_gamma(entry, covers, len(configs), lattice), shown
    return out, covers


def _check_identity(sets):
    """Sets over one universe are equal exactly when their covers are, and
    equal sets hash alike."""
    for a, covers_a in sets:
        for b, covers_b in sets:
            same = a.space == b.space and covers_a == covers_b
            assert (a == b) == same
            if same:
                assert hash(a) == hash(b)


@pytest.mark.parametrize("source", [_MASKED_FAMILY, CHAIN_SOURCE], ids=["model", "chain"])
def test_sets_equal_the_per_configuration_reference(source):
    program = lang.parse_program(source)
    space = program.feature_model.space
    gen = CaseGen(seed=21)
    sets = [_compare(program, None if spec is None else ab.parse_abstraction(spec, space), gen, 12)
            for spec in _SPECS]
    # the same configurations built two ways
    sets.append(_compare(program, ab.parse_abstraction("proj(A1) || proj(!A1)", space), gen, 2))
    sets.append(_compare(program, ab.parse_abstraction("(join(A1) || join(!A1)) >> join", space),
                         gen, 2))
    sets.append(_compare(program, ab.parse_abstraction("join", space), gen, 2))
    _check_identity(sets)


def test_generated_sets_equal_the_per_configuration_reference():
    gen = CaseGen(seed=22, max_features=4, max_abs_depth=4)
    for _ in range(200):
        program = gen_random_program(gen)
        space = program.feature_model.space
        alpha = gen_random_abstraction(gen, space)
        try:
            found = _compare(program, alpha, gen, 3)
        except SemanticError:
            with pytest.raises(SemanticError):
                reference_apply(alpha, fx.valid_configs(program.feature_model).universe)
            continue
        _check_identity([found, _compare(program, None, gen, 0)])


@pytest.mark.parametrize("spec", ["join", "proj(A1) || join(!A1)", "fignore(A2)"])
def test_alpha_and_gamma_over_hundreds_of_distinct_stores(spec):
    # more table entries than one byte can number, and each configuration
    # its own store
    names = [f"A{i}" for i in range(1, 10)]
    program = lang.parse_program(f"features {', '.join(names)}; model true; begin skip end")
    configs = fx.valid_configs(program.feature_model)
    lifted = LiftedStore(configs, [Store.of(CONST, {"x": intval(i)}) for i in range(len(configs))])
    assert len(lifted.table) == 512
    alpha = ab.parse_abstraction(spec, program.feature_model.space)
    members, covers = reference_apply(alpha, configs.universe)
    abstract = ab.alpha_apply(alpha, configs, lifted, CONST)
    assert list(abstract.stores) == _reference_alpha(lifted, covers, CONST)
    gamma = ab.gamma_apply(alpha, configs, abstract, CONST)
    assert list(gamma.stores) == _reference_gamma(abstract, covers, len(configs), CONST)
