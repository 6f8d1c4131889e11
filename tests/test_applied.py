"""One application of an abstraction read by alpha, the named view and the rewrite.

alpha_apply, abstract_configs and reconfigure apply the abstraction and then
read the result; each reader over a given application must give what the
composed function gives, on generated cases of every constructor.
"""

import pytest

from liftcal import abstraction as ab
from liftcal import featexp as fx
from liftcal import lang, oracle
from liftcal.errors import LiftcalError, SemanticError
from liftcal.lattice import CONST, CONST_PLUS, LiftedStore
from liftcal.oracle import CaseGen
from liftcal.reconfig import reconfigure, rewrite_family

from conftest import CHAIN_SOURCE

CASES = 300


def _outcome(thunk):
    """The value of thunk(), or the type and text of the liftcal error it raises."""
    try:
        return thunk()
    except LiftcalError as exc:
        return type(exc).__name__, str(exc)


def _index(configs):
    return configs, configs.named, configs.named_space


def _named(info):
    return (
        info.space,
        info.configs,
        [fx.render(f) for f in info.configs.formulas],
        None if info.configs.hint is None else fx.render(info.configs.hint),
        [fx.render(f) for f in info.meanings],
        {name: fx.render(f) for name, f in info.renames.items()},
        _index(info.meaning_view),
    )


def _family(result):
    rewritten, renames = result
    return lang.pretty(rewritten), {name: fx.render(f) for name, f in renames.items()}


@pytest.mark.parametrize("lattice", [CONST, CONST_PLUS], ids=["const", "constplus"])
def test_readers_of_one_application_equal_the_composed_functions(lattice):
    gen = CaseGen(11, max_features=4, max_abs_depth=4, lattice=lattice)
    seen = set()
    for _ in range(CASES):
        program = oracle.gen_random_program(gen)
        space = program.feature_model.space
        alpha = oracle.gen_random_abstraction(gen, space)
        configs = fx.valid_configs(program.feature_model)
        store = oracle.gen_lifted(gen, configs, oracle.VAR_NAMES[: gen.max_vars])
        applied = ab.apply(alpha, configs)
        out = applied[0]

        composed = ab.alpha_apply(alpha, configs, store, lattice)
        over = ab.alpha_over(out, configs, store, lattice)
        assert over.stores == composed.stores
        assert _index(over.configs) == _index(composed.configs)

        assert _named(ab.named_view(out)) == _named(ab.abstract_configs(alpha, space, configs))

        simplify = [False, True] if len(out) == 1 else [False]
        for flag in simplify:
            direct = _outcome(lambda: _family(rewrite_family(program, applied, flag)))
            assert direct == _outcome(lambda: _family(reconfigure(program, alpha, flag)))

        seen.update(_kinds(alpha))
        seen.add("exact" if oracle.rewrite_exact(alpha) else "not exact")
    assert {"FIgnore", "FProj", "not exact", "exact"} <= seen


def _kinds(alpha):
    yield type(alpha).__name__
    if isinstance(alpha, ab.Compose):
        yield from _kinds(alpha.outer)
        yield from _kinds(alpha.inner)
    if isinstance(alpha, ab.Product):
        for part in alpha.parts:
            yield from _kinds(part)


def test_alpha_over_rejects_a_store_over_another_universe(configs):
    other = fx.valid_configs(lang.parse_program(CHAIN_SOURCE).feature_model)
    store = LiftedStore.top(other, CONST)
    alpha = ab.Join()
    out, _ = ab.apply(alpha, configs)
    with pytest.raises(SemanticError) as composed:
        ab.alpha_apply(alpha, configs, store, CONST)
    with pytest.raises(SemanticError) as over:
        ab.alpha_over(out, configs, store, CONST)
    assert str(over.value) == str(composed.value)
    assert str(over.value) == "store is not indexed by the given configuration set"
