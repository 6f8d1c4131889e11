"""The Const and Const+ value lattices, per-variable stores, and lifted stores.

Const is the flat constant-propagation lattice (bot, integers, top).  Const+
additionally has the two sign values <=0 and >=0 sitting between the integers
and top.  The abstract binary operator is exact on integer pairs, strict in
bot, and top otherwise; in particular it is not sign-aware on Const+, where
precision comes from joins rather than from arithmetic.

Values and stores are named tuples, so they are hashed, compared and built
in C.  A store keeps its bindings that differ from its default, sorted by
variable: in that canonical form structural equality is extensional.

A lifted store holds one store per configuration as a table of distinct
stores plus a small-int index per component.  Its operations run their
store function once per distinct store, or per distinct tuple of stores
across operands; only the keying and the `#if` case split stay per
component.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem
from typing import NamedTuple

from .errors import SemanticError
from .featexp import ConfigSet

_BOT, _INT, _LEQ0, _GEQ0, _TOP = "bot", "int", "<=0", ">=0", "top"
_SIGNS = (_LEQ0, _GEQ0)


class Val(NamedTuple):
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

    def check(self, v):
        if v.kind in _SIGNS and not self.signed:
            raise SemanticError(f"{render_value(v)} is not a {self.name} value")
        return v

    def _check_pair(self, a, b):
        """Each operation's one check: a sign value on an unsigned lattice raises."""
        if not self.signed and (a.kind in _SIGNS or b.kind in _SIGNS):
            self.check(a)
            self.check(b)

    def leq(self, a, b):
        self._check_pair(a, b)
        return _leq(a, b)

    def join(self, a, b):
        self._check_pair(a, b)
        if a == b or _leq(a, b):
            return b
        if _leq(b, a):
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
        self._check_pair(a, b)
        if a == b or _leq(a, b):
            return a
        if _leq(b, a):
            return b
        if a.kind in _SIGNS and b.kind in _SIGNS:
            return intval(0)
        return BOT

    def binop(self, op, a, b):
        """The abstract counterpart of an arithmetic operator.

        Comparisons yield the integers 1/0 so that they fit the same lattice.
        """
        self._check_pair(a, b)
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


def _leq(a, b):
    """The order on values, whichever lattice holds them."""
    ak, bk = a.kind, b.kind
    if ak == _BOT or bk == _TOP:
        return True
    if bk == _BOT or ak == _TOP:
        return False
    if ak != _INT:
        return ak == bk
    return a.n == b.n if bk == _INT else a.n <= 0 if bk == _LEQ0 else a.n >= 0


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


class Store(NamedTuple):
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

    def get(self, var):
        for x, v in self.values:
            if x == var:
                return v
        return self.default

    def set(self, var, value):
        items = [item for item in self.values if item[0] != var]
        if value != self.default:
            items = sorted(items + [(var, value)])
        return Store(self.lattice, tuple(items), self.default)

    def leq(self, other):
        lat, da, db = self.lattice, self.default, other.default
        a, b = dict(self.values), dict(other.values)
        return lat.leq(da, db) and all(
            lat.leq(a.get(x, da), b.get(x, db)) for x in sorted(a.keys() | b.keys())
        )

    def join(self, other):
        return self._merge(self.lattice.join, other)

    def meet(self, other):
        return self._merge(self.lattice.meet, other)

    def _merge(self, op, other):
        """op on each variable bound in either store, in order, then on the defaults."""
        a, b = dict(self.values), dict(other.values)
        da, db = self.default, other.default
        merged = [(x, op(a.get(x, da), b.get(x, db))) for x in sorted(a.keys() | b.keys())]
        default = op(da, db)
        return Store(self.lattice, tuple([item for item in merged if item[1] != default]), default)

    def render(self, variables):
        inner = ", ".join(f"{x}={render_value(self.get(x))}" for x in variables)
        return "[" + inner + "]"


# ---------------------------------------------------------------------------
# Lifted stores


@dataclass(frozen=True, init=False, repr=False, slots=True)
class LiftedStore:
    """One store per configuration of a ConfigSet, dictionary-encoded.

    `table` holds the distinct stores, by value, in order of first
    occurrence, and `index` gives each component's position in it, so the
    index is dense in first-occurrence order.  The form is canonical: two
    lifted stores are equal exactly when their aligned stores are.  Every
    operation runs its store function once per table entry, or once per
    distinct tuple of positions across its operands; per component, only
    the index columns are walked, by zip and dict in C.
    """

    configs: ConfigSet
    table: tuple[Store, ...]
    index: tuple[int, ...]

    def __init__(self, configs, stores):
        """Encode `stores`, one per member of `configs`, in order."""
        stores = tuple(stores)
        if len(stores) != len(configs):
            raise SemanticError("lifted store length must match its configuration set")
        # keyed by id, a repeated object is hashed once; the tuple keeps every
        # object alive while its id is a key
        ids = list(map(id, stores))
        encoded = tabulate(dict(zip(ids, stores)).__getitem__, configs, ids)
        _put(self, "configs", configs)
        _put(self, "table", encoded.table)
        _put(self, "index", encoded.index)

    def __repr__(self):
        return f"LiftedStore(configs={self.configs!r}, stores={self.stores!r})"

    @staticmethod
    def top(configs, lattice):
        return _uniform(configs, Store.top(lattice))

    @staticmethod
    def bot(configs, lattice):
        return _uniform(configs, Store.bot(lattice))

    @property
    def stores(self):
        """The aligned stores, one per configuration; equal stores are one object."""
        return tuple(map(self.table.__getitem__, self.index))

    def __len__(self):
        return len(self.index)

    def _check_match(self, other):
        if self.configs != other.configs:
            raise SemanticError("lifted stores are indexed by different configuration sets")

    def map(self, fn):
        """fn on every component, called once per distinct store."""
        return _encode(self.configs, list(map(fn, self.table)), self.index)

    def leq(self, other):
        self._check_match(other)
        a, b = self.table, other.table
        return all(a[i].leq(b[j]) for i, j in dict.fromkeys(zip(self.index, other.index)))

    def join(self, other):
        return self._pointwise(Store.join, other)

    def meet(self, other):
        return self._pointwise(Store.meet, other)

    def _pointwise(self, fn, other):
        self._check_match(other)
        return combine(fn, self.configs, (self.table, other.table), (self.index, other.index))

    def with_stores(self, stores):
        return LiftedStore(self.configs, stores)


_put = object.__setattr__  # sets a field of a frozen LiftedStore


def _make(configs, table, index):
    """A lifted store from a table and an index already in canonical form."""
    lifted = object.__new__(LiftedStore)
    _put(lifted, "configs", configs)
    _put(lifted, "table", table)
    _put(lifted, "index", index)
    return lifted


def _uniform(configs, store):
    n = len(configs)
    return _make(configs, (store,) if n else (), (0,) * n)


def _encode(configs, results, index):
    """The lifted store whose component k is results[index[k]].

    `index` is dense in first-occurrence order over `results`; equal results
    merge into one entry, the first, and only then is the index rewritten.
    """
    codes = {}
    merged = [codes.setdefault(r, len(codes)) for r in results]
    if len(codes) < len(merged):
        index = tuple(map(merged.__getitem__, index))
    return _make(configs, tuple(codes), index)


def tabulate(fn, configs, keys):
    """The lifted store over `configs` whose component k is fn(keys[k]).

    The keys are hashable, one per component.  fn runs once per distinct
    key, in order of first occurrence, so the result is canonical, and equal
    results share one entry.
    """
    positions = dict.fromkeys(keys)
    codes = {}
    for key in positions:
        positions[key] = codes.setdefault(fn(key), len(codes))
    return _make(configs, tuple(codes), tuple(map(positions.__getitem__, keys)))


def combine(fn, configs, tables, columns):
    """The lifted store over `configs` whose component k is
    fn(tables[0][columns[0][k]], tables[1][columns[1][k]], ...).

    Each column indexes its table per component, and fn runs once per
    distinct tuple of positions.
    """
    return tabulate(lambda key: fn(*map(getitem, tables, key)), configs, list(zip(*columns)))
