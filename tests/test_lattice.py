"""Lattice laws for Const and Const+, the abstract operator, and stores."""

import random

import pytest

from liftcal import featexp as fx
from liftcal.errors import SemanticError
from liftcal.lattice import (
    BOT,
    CONST,
    CONST_PLUS,
    GEQ0,
    LEQ0,
    MAX_INT_BITS,
    TOP,
    LiftedStore,
    Store,
    intval,
    parse_value,
    render_value,
)

CONST_CARRIER = [BOT, TOP] + [intval(n) for n in range(-3, 4)]
PLUS_CARRIER = CONST_CARRIER + [LEQ0, GEQ0]


@pytest.mark.parametrize(
    "lattice,carrier", [(CONST, CONST_CARRIER), (CONST_PLUS, PLUS_CARRIER)]
)
def test_lattice_laws(lattice, carrier):
    for a in carrier:
        assert lattice.join(a, a) == a
        assert lattice.meet(a, a) == a
        assert lattice.leq(BOT, a) and lattice.leq(a, TOP)
        for b in carrier:
            assert lattice.join(a, b) == lattice.join(b, a)
            assert lattice.meet(a, b) == lattice.meet(b, a)
            # absorption
            assert lattice.join(a, lattice.meet(a, b)) == a
            assert lattice.meet(a, lattice.join(a, b)) == a
            # the order is the join-induced one
            assert lattice.leq(a, b) == (lattice.join(a, b) == b)
            for c in carrier:
                assert lattice.join(lattice.join(a, b), c) == lattice.join(
                    a, lattice.join(b, c)
                )
                assert lattice.meet(lattice.meet(a, b), c) == lattice.meet(
                    a, lattice.meet(b, c)
                )


@pytest.mark.parametrize(
    "lattice,carrier", [(CONST, CONST_CARRIER), (CONST_PLUS, PLUS_CARRIER)]
)
def test_join_is_least_upper_bound(lattice, carrier):
    for a in carrier:
        for b in carrier:
            j = lattice.join(a, b)
            assert lattice.leq(a, j) and lattice.leq(b, j)
            for c in carrier:
                if lattice.leq(a, c) and lattice.leq(b, c):
                    assert lattice.leq(j, c)
            m = lattice.meet(a, b)
            assert lattice.leq(m, a) and lattice.leq(m, b)
            for c in carrier:
                if lattice.leq(c, a) and lattice.leq(c, b):
                    assert lattice.leq(c, m)


def test_const_join_golden():
    assert CONST.join(BOT, intval(1)) == intval(1)
    assert CONST.join(intval(0), intval(1)) == TOP
    assert CONST_PLUS.join(intval(0), intval(1)) == GEQ0
    assert CONST_PLUS.join(intval(0), intval(-1)) == LEQ0
    assert CONST_PLUS.join(LEQ0, GEQ0) == TOP


def test_const_plus_meet():
    assert CONST_PLUS.meet(LEQ0, GEQ0) == intval(0)
    assert CONST_PLUS.meet(LEQ0, intval(5)) == BOT
    assert CONST_PLUS.meet(LEQ0, intval(-5)) == intval(-5)
    assert CONST_PLUS.meet(TOP, intval(1)) == intval(1)


def test_const_plus_order():
    assert CONST_PLUS.leq(intval(-2), LEQ0)
    assert CONST_PLUS.leq(intval(0), LEQ0)
    assert CONST_PLUS.leq(intval(0), GEQ0)
    assert not CONST_PLUS.leq(intval(1), LEQ0)
    assert CONST_PLUS.leq(LEQ0, TOP)


def test_const_rejects_sign_values():
    for sign in (LEQ0, GEQ0):
        for op in (CONST.leq, CONST.join, CONST.meet, lambda a, b: CONST.binop("+", a, b)):
            for a, b in ((sign, intval(1)), (intval(1), sign), (sign, sign)):
                with pytest.raises(SemanticError, match="is not a const value"):
                    op(a, b)


def test_hat_binop_golden():
    assert CONST.binop("+", intval(2), intval(3)) == intval(5)
    assert CONST.binop("+", BOT, intval(7)) == BOT
    assert CONST.binop("*", TOP, intval(0)) == TOP
    assert CONST.binop("<", intval(1), intval(2)) == intval(1)
    assert CONST.binop("=", intval(1), intval(2)) == intval(0)
    # Const+ stays strict: sign operands go to top
    assert CONST_PLUS.binop("-", GEQ0, intval(1)) == TOP


@pytest.mark.parametrize(
    "lattice,carrier", [(CONST, CONST_CARRIER), (CONST_PLUS, PLUS_CARRIER)]
)
def test_hat_binop_monotone(lattice, carrier):
    pairs = [
        (a, b) for a in carrier for b in carrier if lattice.leq(a, b)
    ]
    for op in ("+", "-", "*", "<", "="):
        for a, a2 in pairs:
            for b, b2 in pairs:
                low = lattice.binop(op, a, b)
                high = lattice.binop(op, a2, b2)
                assert lattice.leq(low, high), (op, a, a2, b, b2)


def test_const_plus_refines_const():
    # the evident embedding preserves joins whose result stays representable
    for a in CONST_CARRIER:
        for b in CONST_CARRIER:
            j = CONST.join(a, b)
            if j != TOP:
                assert CONST_PLUS.join(a, b) == j
            assert CONST_PLUS.leq(CONST_PLUS.join(a, b), j) or j == TOP


def test_value_literals_round_trip():
    for v in PLUS_CARRIER:
        assert parse_value(render_value(v), CONST_PLUS) == v
    with pytest.raises(SemanticError):
        parse_value("<=0", CONST)
    with pytest.raises(SemanticError):
        parse_value("junk", CONST)


# ---------------------------------------------------------------------------
# Stores


def test_store_default_top():
    store = Store.top(CONST)
    assert store.get("x") == TOP
    updated = store.set("x", intval(3))
    assert updated.get("x") == intval(3)
    assert updated.get("y") == TOP


def test_store_equality_ignores_explicit_defaults():
    a = Store.of(CONST, {"x": TOP, "y": intval(1)})
    b = Store.of(CONST, {"y": intval(1)})
    assert a == b


def test_store_join_meet_leq():
    a = Store.of(CONST, {"x": intval(0), "y": intval(2)})
    b = Store.of(CONST, {"x": intval(1)})
    joined = a.join(b)
    assert joined.get("x") == TOP
    assert joined.get("y") == TOP  # b has default top for y
    met = a.meet(b)
    assert met.get("x") == BOT
    assert met.get("y") == intval(2)
    assert a.leq(a.join(b))
    assert Store.bot(CONST).leq(a)


def test_store_ops_raise_on_a_sign_value_in_const():
    store = Store.of(CONST, {"x": LEQ0})
    for op in (store.join, store.meet, store.leq):
        with pytest.raises(SemanticError, match="<=0 is not a const value"):
            op(store)


def test_store_repr_and_hash_are_those_of_its_fields():
    store = Store.of(CONST_PLUS, {"y": GEQ0, "x": intval(-2)}, BOT)
    assert repr(store) == (
        "Store(lattice=Lattice(constplus), values=(('x', -2), ('y', >=0)), default=bot)"
    )
    assert hash(store) == hash((CONST_PLUS, (("x", intval(-2)), ("y", GEQ0)), BOT))
    assert repr(intval(3)) == str(intval(3)) == "3" and repr(LEQ0) == "<=0"


# The store operations as they were before the one-pass merge: walk the sorted
# union of bound names and look each one up in both stores.


def _ref_of(lattice, mapping, default):
    return Store(lattice, tuple(sorted((x, v) for x, v in mapping.items() if v != default)), default)


def _ref_domain_with(a, b):
    return sorted({x for x, _ in a.values} | {x for x, _ in b.values})


def _ref_leq(a, b):
    lat = a.lattice
    if not lat.leq(a.default, b.default):
        return False
    return all(lat.leq(a.get(x), b.get(x)) for x in _ref_domain_with(a, b))


def _ref_join(a, b):
    lat = a.lattice
    mapping = {x: lat.join(a.get(x), b.get(x)) for x in _ref_domain_with(a, b)}
    return _ref_of(lat, mapping, lat.join(a.default, b.default))


def _ref_meet(a, b):
    lat = a.lattice
    mapping = {x: lat.meet(a.get(x), b.get(x)) for x in _ref_domain_with(a, b)}
    return _ref_of(lat, mapping, lat.meet(a.default, b.default))


def _ref_set(a, var, value):
    kept = tuple(item for item in a.values if item[0] != var)
    items = kept if value == a.default else tuple(sorted(kept + ((var, value),)))
    return Store(a.lattice, items, a.default)


def _random_store(rng, lattice, carrier, default):
    names = rng.sample("wxyz", rng.randint(0, 4))
    return Store.of(lattice, {x: rng.choice(carrier) for x in names}, default)


def _outcome(op, *args):
    """op's result with its hash and repr, or the message of the error it raises."""
    try:
        result = op(*args)
    except SemanticError as exc:
        return str(exc)
    return result, hash(result), repr(result)


# the const lattice over the Const+ carrier is ill-formed on purpose: sign values
# must raise, and raise the same error, whatever shortcut the operations take
@pytest.mark.parametrize(
    "lattice,carrier",
    [(CONST, CONST_CARRIER), (CONST_PLUS, PLUS_CARRIER), (CONST, PLUS_CARRIER)],
)
def test_store_ops_equal_the_reference(lattice, carrier):
    rng = random.Random(16)
    for default_a in carrier:
        for default_b in carrier:
            for _ in range(12):
                a = _random_store(rng, lattice, carrier, default_a)
                b = _random_store(rng, lattice, carrier, default_b)
                var, value = rng.choice("vwxyz"), rng.choice(carrier)
                for op, ref, args in [
                    (Store.leq, _ref_leq, (a, b)),
                    (Store.join, _ref_join, (a, b)),
                    (Store.meet, _ref_meet, (a, b)),
                    (Store.set, _ref_set, (a, var, value)),
                ]:
                    assert _outcome(op, *args) == _outcome(ref, *args)


def test_lifted_component_wise(configs):
    a = LiftedStore(
        configs,
        tuple(Store.of(CONST, {"x": v}) for v in (intval(0), intval(1), intval(-1))),
    )
    b = LiftedStore.top(configs, CONST)
    assert a.leq(b)
    assert LiftedStore.bot(configs, CONST).leq(a)
    joined = a.join(a)
    assert joined == a
    single = a.join(LiftedStore(configs, tuple(Store.of(CONST, {"x": intval(1)}) for _ in configs)))
    assert [s.get("x") for s in single.stores] == [TOP, intval(1), TOP]


def test_lifted_mismatch_rejected(configs):
    other = fx.valid_configs(
        fx.FeatureModel(configs.space, fx.Atom("A"))
    )
    a = LiftedStore.top(configs, CONST)
    b = LiftedStore.top(other, CONST)
    with pytest.raises(SemanticError):
        a.join(b)


def test_lifted_top_and_bot_share_one_store(configs):
    for lifted in (LiftedStore.top(configs, CONST), LiftedStore.bot(configs, CONST)):
        assert len(lifted) == 3
        assert all(s is lifted.stores[0] for s in lifted.stores)


def test_integers_wider_than_the_cap_widen_to_top():
    widest = (1 << MAX_INT_BITS) - 1
    assert intval(widest).n == widest
    assert intval(-widest).n == -widest
    assert intval(widest + 1) == TOP
    assert intval(-widest - 1) == TOP
    for lattice in (CONST, CONST_PLUS):
        assert lattice.binop("*", intval(widest), intval(widest)) == TOP
        assert lattice.binop("-", intval(-widest), intval(widest)) == TOP
