"""The dictionary-encoded LiftedStore against aligned tuples of stores.

The reference is the per-component path the encoding replaced: `shared`
runs a function over aligned tuples, once per distinct tuple of input
objects.  Every lifted operation must give the same aligned stores, compare
equal to the store built from them, and keep one object per distinct value.
"""

import random

import pytest

from liftcal import abstraction as ab
from liftcal import featexp as fx
from liftcal import lang, oracle
from liftcal.lattice import CONST, CONST_PLUS, TOP, LiftedStore, Store, combine, intval
from liftcal.lifted import (
    ANALYZED,
    CASES,
    UNTOUCHED,
    analyze_lifted,
    ifdef_cases,
    merge_ifdef,
)

from conftest import CHAIN_SOURCE

CASES_PER_LATTICE = 300


def shared(fn, *columns):
    """fn over aligned sequences, once per distinct tuple of input objects;
    equal results come back as one object."""
    keys = list(zip(*[map(id, column) for column in columns]))
    firsts = dict(zip(keys, zip(*columns)))
    canon, results = {}, {}
    for key, args in firsts.items():
        result = fn(*args)
        results[key] = canon.setdefault(result, result)
    return tuple(map(results.__getitem__, keys))


def reference_merge(case, old, new):
    return new if case == ANALYZED else old if case == UNTOUCHED else old.join(new)


def aligned_stores(gen, rng, n, variables):
    """n stores drawn from a small pool, with equal copies that are distinct objects."""
    pool = [oracle.gen_store(gen, variables) for _ in range(rng.randint(1, 4))]
    out = []
    for _ in range(n):
        s = rng.choice(pool)
        out.append(Store(s.lattice, s.values, s.default) if rng.random() < 0.3 else s)
    return tuple(out)


def assert_agrees(lifted, reference):
    view = lifted.stores
    assert view == reference
    assert lifted == LiftedStore(lifted.configs, reference)
    assert hash(lifted) == hash(LiftedStore(lifted.configs, reference))
    # one object per distinct value, and a canonical table and index
    assert len({id(s) for s in view}) == len(set(view)) == len(lifted.table)
    assert list(dict.fromkeys(lifted.index)) == list(range(len(lifted.table)))


def generated_cases(lattice):
    gen = oracle.CaseGen(7, max_features=4, max_abs_depth=4, lattice=lattice)
    rng = random.Random(11)
    for _ in range(CASES_PER_LATTICE):
        program = oracle.gen_random_program(gen)
        space = program.feature_model.space
        configs = fx.valid_configs(program.feature_model)
        alpha = oracle.gen_random_abstraction(gen, space)
        theta = oracle.gen_featexp(gen, space)
        for members in (configs, ab.meaning_configs(alpha, space, configs)):
            yield gen, rng, members, theta


@pytest.mark.parametrize("lattice", [CONST, CONST_PLUS], ids=["const", "constplus"])
def test_operations_agree_with_aligned_tuples(lattice):
    variables = ["x", "y"]
    bottom = Store.bot(lattice)
    seen = {"abstract": 0, "mixed": 0, "merged": 0}

    def guard(case, store):
        return bottom if case == UNTOUCHED else store

    def bump(s):
        return s.set("x", lattice.binop("+", s.get("x"), intval(1)))

    def forget(s):
        return s.set("y", TOP)

    for gen, rng, configs, theta in generated_cases(lattice):
        seen["abstract"] += not configs.is_concrete
        a_stores = aligned_stores(gen, rng, len(configs), variables)
        b_stores = aligned_stores(gen, rng, len(configs), variables)
        a, b = LiftedStore(configs, a_stores), LiftedStore(configs, b_stores)
        assert_agrees(a, a_stores)
        for fn in (bump, forget):
            out = a.map(fn)
            seen["merged"] += len(out.table) < len(a.table)
            assert_agrees(out, shared(fn, a_stores))
        assert_agrees(a.join(b), shared(Store.join, a_stores, b_stores))
        assert_agrees(a.meet(b), shared(Store.meet, a_stores, b_stores))
        assert_agrees(a.join(a.map(forget)), shared(Store.join, a_stores, shared(forget, a_stores)))
        assert a.leq(b) == all(shared(Store.leq, a_stores, b_stores))
        assert a.leq(a.join(b)) and a.meet(b).leq(b)
        cases = ifdef_cases(configs, theta)
        seen["mixed"] += cases.count(2) > 0
        assert_agrees(merge_ifdef(cases, a, b), shared(reference_merge, cases, a_stores, b_stores))
        guarded = combine(guard, configs, (CASES, a.table), (cases, a.index))
        assert_agrees(guarded, shared(guard, cases, a_stores))
    # the cases reach abstract sets, the mixed #if case and merging maps
    assert seen["abstract"] >= CASES_PER_LATTICE // 2
    assert seen["mixed"] > 0 and seen["merged"] > 0


def test_map_runs_once_per_distinct_store(configs):
    a, b = Store.of(CONST, {"x": intval(1)}), Store.of(CONST, {"x": intval(2)})
    equal_to_a = Store.of(CONST, {"x": intval(1)})
    calls = []

    def forget_x(store):
        calls.append(store)
        return store.set("x", TOP)

    out = LiftedStore(configs, (a, b, equal_to_a)).map(forget_x)
    assert calls == [a, b]
    # equal results from distinct inputs come back as one object
    assert out.stores == (Store.top(CONST),) * 3
    assert all(s is out.stores[0] for s in out.stores)
    assert out == LiftedStore.top(configs, CONST)


def test_map_over_the_chain_runs_once_per_distinct_store():
    program = lang.parse_program(CHAIN_SOURCE)
    configs = fx.valid_configs(program.feature_model)
    result = analyze_lifted(program.body, LiftedStore.top(configs, CONST))
    calls = []

    def forget_x(store):
        calls.append(store)
        return store.set("x", TOP)

    out = result.map(forget_x)
    assert len(configs) == 2048
    assert len(calls) == 12
    assert out == LiftedStore.top(configs, CONST)
