"""Lattice laws for Const and Const+, the abstract operator, and stores."""

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
    shared,
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
    with pytest.raises(SemanticError):
        CONST.join(LEQ0, intval(1))


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


def test_value_op_wrappers():
    from liftcal.lattice import hat_binop, value_join, value_leq, value_meet

    assert value_join(CONST, BOT, intval(1)) == intval(1)
    assert value_meet(CONST_PLUS, LEQ0, GEQ0) == intval(0)
    assert value_leq(CONST, intval(2), TOP)
    assert hat_binop(CONST, "+", intval(2), intval(3)) == intval(5)


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


def test_pi_selects_by_equivalent_formula(s2, configs):
    from liftcal.lattice import LiftedStore
    from liftcal.lifted import analyze_lifted

    result = analyze_lifted(s2.body, LiftedStore.top(configs, CONST))
    component = result.pi(fx.parse_featexp("!B & A", configs.space))
    assert component.get("x") == intval(1)


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


def test_shared_computes_once_per_distinct_input():
    a, b = Store.of(CONST, {"x": intval(1)}), Store.of(CONST, {"x": intval(2)})
    calls = []

    def forget_x(store):
        calls.append(store)
        return store.set("x", TOP)

    out = shared(forget_x, (a, b, a, b, a))
    assert calls == [a, b]
    # equal results from distinct inputs come back as one object
    assert out == (Store.top(CONST),) * 5
    assert all(s is out[0] for s in out)


def test_pi_selects_by_configurations(s2, configs):
    from liftcal.lattice import LiftedStore
    from liftcal.lifted import analyze_lifted

    # under the model A | B, !A holds in !A & B alone
    result = analyze_lifted(s2.body, LiftedStore.top(configs, CONST))
    component = result.pi(fx.parse_featexp("!A", configs.space))
    assert component == result.pi(fx.parse_featexp("!A & B", configs.space))
    assert component.get("x") == intval(-1)
    with pytest.raises(SemanticError):
        result.pi(fx.parse_featexp("A", configs.space))


def test_integers_wider_than_the_cap_widen_to_top():
    widest = (1 << MAX_INT_BITS) - 1
    assert intval(widest).n == widest
    assert intval(-widest).n == -widest
    assert intval(widest + 1) == TOP
    assert intval(-widest - 1) == TOP
    for lattice in (CONST, CONST_PLUS):
        assert lattice.binop("*", intval(widest), intval(widest)) == TOP
        assert lattice.binop("-", intval(-widest), intval(widest)) == TOP
