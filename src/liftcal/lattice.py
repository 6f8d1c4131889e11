"""The Const and Const+ value lattices, per-variable stores, and lifted stores.

Const is the flat constant-propagation lattice (bot, integers, top).  Const+
additionally has the two sign values <=0 and >=0 sitting between the integers
and top.  The abstract binary operator is exact on integer pairs, strict in
bot, and top otherwise; in particular it is not sign-aware on Const+, where
precision comes from joins rather than from arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SemanticError
from .featexp import ConfigSet

_BOT, _INT, _LEQ0, _GEQ0, _TOP = "bot", "int", "<=0", ">=0", "top"


@dataclass(frozen=True)
class Val:
    kind: str
    n: int | None = None

    def __repr__(self):
        return render_value(self)


BOT = Val(_BOT)
TOP = Val(_TOP)
LEQ0 = Val(_LEQ0)
GEQ0 = Val(_GEQ0)


# Integers wider than this widen to top.  That is sound, keeps arithmetic on
# repeated squaring bounded, and keeps every integer printable.
MAX_INT_BITS = 4096


def intval(n):
    """The constant n, or top when n needs more than MAX_INT_BITS bits."""
    return Val(_INT, n) if n.bit_length() <= MAX_INT_BITS else TOP


def render_value(v):
    if v.kind == _INT:
        return str(v.n)
    return v.kind


def parse_value(text, lattice):
    text = text.strip()
    for v in (BOT, TOP, LEQ0, GEQ0):
        if text == v.kind:
            lattice.check(v)
            return v
    try:
        return intval(int(text))
    except ValueError:
        raise SemanticError(f"not a value literal: {text!r}") from None


class Lattice:
    """A finite-height complete lattice of abstract values."""

    def __init__(self, name, signed):
        self.name = name
        self.signed = signed

    def __repr__(self):
        return f"Lattice({self.name})"

    @property
    def top(self):
        return TOP

    @property
    def bot(self):
        return BOT

    def check(self, v):
        if v.kind in (_LEQ0, _GEQ0) and not self.signed:
            raise SemanticError(f"{render_value(v)} is not a {self.name} value")
        return v

    def leq(self, a, b):
        self.check(a)
        self.check(b)
        if a.kind == _BOT or b.kind == _TOP:
            return True
        if b.kind == _BOT or a.kind == _TOP:
            return False
        if a.kind == _INT and b.kind == _INT:
            return a.n == b.n
        if a.kind == _INT and b.kind == _LEQ0:
            return a.n <= 0
        if a.kind == _INT and b.kind == _GEQ0:
            return a.n >= 0
        return a.kind == b.kind

    def join(self, a, b):
        self.check(a)
        self.check(b)
        if self.leq(a, b):
            return b
        if self.leq(b, a):
            return a
        if self.signed and a.kind == _INT and b.kind == _INT:
            if a.n >= 0 and b.n >= 0:
                return GEQ0
            if a.n <= 0 and b.n <= 0:
                return LEQ0
        # remaining incomparable pairs (mixed signs, int vs opposite sign) only
        # share top
        return TOP

    def meet(self, a, b):
        self.check(a)
        self.check(b)
        if self.leq(a, b):
            return a
        if self.leq(b, a):
            return b
        if a.kind in (_LEQ0, _GEQ0) and b.kind in (_LEQ0, _GEQ0):
            return intval(0)
        return BOT

    def binop(self, op, a, b):
        """The abstract counterpart of an arithmetic operator.

        Comparisons yield the integers 1/0 so that they fit the same lattice.
        """
        self.check(a)
        self.check(b)
        if a.kind == _BOT or b.kind == _BOT:
            return BOT
        if a.kind == _INT and b.kind == _INT:
            if op == "+":
                return intval(a.n + b.n)
            if op == "-":
                return intval(a.n - b.n)
            if op == "*":
                return intval(a.n * b.n)
            if op == "<":
                return intval(1 if a.n < b.n else 0)
            if op == "=":
                return intval(1 if a.n == b.n else 0)
            raise SemanticError(f"unknown operator: {op}")
        return TOP


CONST = Lattice("const", signed=False)
CONST_PLUS = Lattice("constplus", signed=True)


def lattice_by_name(name):
    if name == "const":
        return CONST
    if name == "constplus":
        return CONST_PLUS
    raise SemanticError(f"unknown lattice: {name}")


# ---------------------------------------------------------------------------
# Stores


@dataclass(frozen=True)
class Store:
    """A total map from variables to lattice values with a default.

    Only bindings different from the default are stored, so structural
    equality coincides with extensional equality over any variable set.
    """

    lattice: Lattice
    values: tuple[tuple[str, Val], ...] = ()
    default: Val = TOP

    @staticmethod
    def of(lattice, mapping=None, default=TOP):
        items = tuple(
            sorted((x, v) for x, v in (mapping or {}).items() if v != default)
        )
        return Store(lattice, items, default)

    @staticmethod
    def top(lattice):
        return Store(lattice, (), TOP)

    @staticmethod
    def bot(lattice):
        return Store(lattice, (), BOT)

    def as_dict(self):
        return dict(self.values)

    def get(self, var):
        for x, v in self.values:
            if x == var:
                return v
        return self.default

    def set(self, var, value):
        kept = tuple(item for item in self.values if item[0] != var)
        if value == self.default:
            items = kept
        else:
            items = tuple(sorted(kept + ((var, value),)))
        return Store(self.lattice, items, self.default)

    def domain_with(self, other):
        names = {x for x, _ in self.values} | {x for x, _ in other.values}
        return sorted(names)

    def leq(self, other):
        lat = self.lattice
        if not lat.leq(self.default, other.default):
            return False
        return all(
            lat.leq(self.get(x), other.get(x)) for x in self.domain_with(other)
        )

    def join(self, other):
        lat = self.lattice
        mapping = {
            x: lat.join(self.get(x), other.get(x)) for x in self.domain_with(other)
        }
        return Store.of(lat, mapping, lat.join(self.default, other.default))

    def meet(self, other):
        lat = self.lattice
        mapping = {
            x: lat.meet(self.get(x), other.get(x)) for x in self.domain_with(other)
        }
        return Store.of(lat, mapping, lat.meet(self.default, other.default))

    def render(self, variables):
        inner = ", ".join(f"{x}={render_value(self.get(x))}" for x in variables)
        return "[" + inner + "]"


# ---------------------------------------------------------------------------
# Lifted stores


def shared(fn, *columns):
    """fn over aligned sequences, computed once per distinct tuple of input objects.

    The inputs are keyed by object identity, which is sound because the
    sequences keep every input alive for the whole call.  Each new result is
    swapped for an equal one already produced, so equal results come back as
    one object and the sharing carries over to the next operation.
    """
    keys = list(zip(*[map(id, column) for column in columns]))
    firsts = dict(zip(keys, zip(*columns)))
    canon, results = {}, {}
    for key, args in firsts.items():
        result = fn(*args)
        results[key] = canon.setdefault(result, result)
    return tuple(map(results.__getitem__, keys))


@dataclass(frozen=True)
class LiftedStore:
    """One store per configuration, ordered like its ConfigSet; equal stores
    are usually one shared object, and operations run once per object."""

    configs: ConfigSet
    stores: tuple[Store, ...]

    def __post_init__(self):
        if len(self.stores) != len(self.configs):
            raise SemanticError("lifted store length must match its configuration set")

    @staticmethod
    def top(configs, lattice):
        return LiftedStore(configs, (Store.top(lattice),) * len(configs))

    @staticmethod
    def bot(configs, lattice):
        return LiftedStore(configs, (Store.bot(lattice),) * len(configs))

    def __len__(self):
        return len(self.stores)

    def _check_match(self, other):
        if self.configs != other.configs:
            raise SemanticError("lifted stores are indexed by different configuration sets")

    def map(self, fn):
        return self.with_stores(shared(fn, self.stores))

    def leq(self, other):
        self._check_match(other)
        return all(shared(Store.leq, self.stores, other.stores))

    def join(self, other):
        self._check_match(other)
        return self.with_stores(shared(Store.join, self.stores, other.stores))

    def meet(self, other):
        self._check_match(other)
        return self.with_stores(shared(Store.meet, self.stores, other.stores))

    def pi(self, phi):
        """The component whose configurations are exactly those satisfying phi."""
        return self.stores[self.configs.index_of(phi)]

    def with_stores(self, stores):
        return LiftedStore(self.configs, tuple(stores))


def value_join(lattice, a, b):
    return lattice.join(a, b)


def value_meet(lattice, a, b):
    return lattice.meet(a, b)


def value_leq(lattice, a, b):
    return lattice.leq(a, b)


def hat_binop(lattice, op, a, b):
    return lattice.binop(op, a, b)
