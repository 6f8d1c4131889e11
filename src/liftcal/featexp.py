"""Feature names, propositional feature expressions, valuations, and configuration sets.

A configuration set is decided on by its *covers*: int masks over the valid
configurations of a feature model (its universe), bit i standing for the
i-th.  The universe is bit-sliced, one int code per configuration and one
mask per feature, so formulas become masks by bit algebra and no analysis
queries a solver.  A configuration in a set is its universe position, and
only the components a join made store a cover; covers, valuations and
formulas are built only when read.  One ConfigSet type carries both views an
abstraction has of its output: by meaning over the original features and by
name over the abstract ones.

valid_configs lists a model's valid configurations in canonical order off
its reduced ordered decision diagram (Bryant 1986), built once with the
features in declaration order; _ENUM_BUDGET bounds the diagram's nodes, the
steps and the configurations.  sat, entails and equiv build their formulas
into one diagram: a formula is satisfiable iff its node is not false, and two
are equivalent iff they are one node.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import getitem

from .errors import ParseError, SemanticError, UndeclaredFeature
from .lexer import Cursor


# ---------------------------------------------------------------------------
# Feature spaces


@dataclass(frozen=True)
class FeatureSpace:
    """An ordered set of feature names; declaration order is significant."""

    features: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for name in self.features:
            if not name:
                raise SemanticError("feature names must be non-empty")
            if name in seen:
                raise SemanticError(f"duplicate feature name: {name}")
            seen.add(name)

    def __contains__(self, name):
        return name in self.features

    def __len__(self):
        return len(self.features)

    def __iter__(self):
        return iter(self.features)

    def index(self, name):
        return self.features.index(name)


# ---------------------------------------------------------------------------
# Formulas


class FeatExp:
    """Base class of feature-expression AST nodes."""

    __slots__ = ()

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)


@dataclass(frozen=True)
class Atom(FeatExp):
    name: str


@dataclass(frozen=True)
class Not(FeatExp):
    arg: FeatExp


@dataclass(frozen=True)
class And(FeatExp):
    left: FeatExp
    right: FeatExp


@dataclass(frozen=True)
class Or(FeatExp):
    left: FeatExp
    right: FeatExp


@dataclass(frozen=True)
class Implies(FeatExp):
    left: FeatExp
    right: FeatExp


@dataclass(frozen=True)
class TrueExp(FeatExp):
    pass


@dataclass(frozen=True)
class FalseExp(FeatExp):
    pass


TRUE = TrueExp()
FALSE = FalseExp()


def fold_balanced(parts, combine):
    """Fold a nonempty sequence pairwise, level by level, so it nests log n deep."""
    parts = list(parts)
    while len(parts) > 1:
        parts = [
            combine(parts[i], parts[i + 1]) if i + 1 < len(parts) else parts[i]
            for i in range(0, len(parts), 2)
        ]
    return parts[0]


def conj_all(parts):
    """Conjunction of a sequence, folded balanced so deep nests stay shallow."""
    parts = list(parts)
    return fold_balanced(parts, And) if parts else TRUE


def disj_all(parts):
    """Disjunction of a sequence; empty disjunction is false."""
    parts = list(parts)
    return fold_balanced(parts, Or) if parts else FALSE


def literal_conjunction(on, space):
    """The configuration of space enabling exactly the features in `on`, as a formula."""
    return conj_all(Atom(f) if f in on else Not(Atom(f)) for f in space.features)


def features_of(phi):
    """Feature names occurring in phi, in first-occurrence order."""
    seen, stack = {}, [phi]  # a dict keeps its keys in insertion order
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Atom:
            seen.setdefault(node.name)
        elif kind is Not:
            stack.append(node.arg)
        elif kind in _BINARY:
            stack += (node.right, node.left)
    return list(seen)


def eval_featexp(phi, assignment):
    """Evaluate phi under a total assignment (a mapping from name to bool):
    its mask over the one configuration, by mask_of's explicit stack."""
    return mask_of(phi, assignment.__getitem__, 1) == 1


_BINARY = {And: "and", Or: "or", Implies: "implies"}


def mask_of(phi, feature_mask, full):
    """The configurations satisfying phi, as a bit mask.

    feature_mask(name) is the mask of the configurations that enable a
    feature and full the mask of all of them; connectives are bit operations,
    applied in post-order on an explicit stack.
    """
    if type(phi) is Atom:
        return feature_mask(phi.name)
    made, work = [], [phi]  # the masks of the subformulas finished so far; to do
    while work:
        item = work.pop()
        kind = type(item)
        if kind is Atom:
            made.append(feature_mask(item.name))
        elif kind is str:  # a connective whose operands are on top of `made`
            b = made.pop()
            if item == "not":
                made.append(full & ~b)
            else:
                a = made.pop()
                made.append(a & b if item == "and" else a | b if item == "or" else full & ~a | b)
        elif kind is Not:
            work += ("not", item.arg)
        elif kind in _BINARY:
            work += (_BINARY[kind], item.right, item.left)
        elif kind is TrueExp or kind is FalseExp:
            made.append(full if kind is TrueExp else 0)
        else:
            raise TypeError(f"not a feature expression: {item!r}")
    return made[0]


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def mask_from_bits(bits):
    """The mask with bit i set iff bits[i] is true (a bool or a 0/1 byte), in linear time."""
    return int(bytes(bits)[::-1].translate(_BIT_DIGITS) or b"0", 2)


def render(phi, compact=False):
    """Concrete syntax for phi, with minimal parentheses, built on an explicit stack.

    compact=True drops the spaces around binary operators (result-row style).
    """
    amp, bar, arrow = ("&", "|", "=>") if compact else (" & ", " | ", " => ")
    # per connective: its precedence, the least precedence its left and its
    # right operand keep unparenthesized, and its text; => is right-associative
    binary = {And: (3, 3, 4, amp), Or: (2, 2, 3, bar), Implies: (1, 2, 1, arrow)}
    out, work = [], [(phi, 0)]
    while work:
        item = work.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, minimum = item
        kind = type(node)
        if kind is Atom or kind is TrueExp or kind is FalseExp:
            out.append(node.name if kind is Atom else "true" if kind is TrueExp else "false")
        elif kind is Not:
            work += ((node.arg, 4), "!")
        elif kind in binary:
            prec, left, right, text = binary[kind]
            parts = (node.left, left), text, (node.right, right)
            work += reversed(parts if prec >= minimum else ("(", *parts, ")"))
        else:
            raise TypeError(f"not a feature expression: {node!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Satisfiability, entailment, equivalence


def sat(phi, space=None):
    """True iff some total valuation satisfies phi."""
    if space is not None:
        FeatureModel(space, phi)  # raises UndeclaredFeature
    return _decide(phi)[0] != _FALSE


def valid(phi, space=None):
    return not sat(Not(phi), space)


def entails(phi, theta):
    """phi |= theta, i.e. unsat(phi & !theta)."""
    return not sat(And(phi, Not(theta)))


def equiv(phi1, phi2):
    """Logical equivalence: one node in a decision diagram."""
    a, b = _decide(phi1, phi2)
    return a == b


# ---------------------------------------------------------------------------
# Configurations


@dataclass(frozen=True)
class Config:
    """A total valuation of a feature space."""

    space: FeatureSpace
    values: tuple[bool, ...]

    def __post_init__(self):
        if len(self.values) != len(self.space):
            raise SemanticError("configuration must assign every feature")

    def as_dict(self):
        return dict(zip(self.space.features, self.values))

    def formula(self):
        """The canonical literal-conjunction form, in declaration order."""
        return literal_conjunction(set(compress(self.space.features, self.values)), self.space)


class Universe:
    """The valid configurations of a feature model, bit i standing for the i-th.

    Configuration i is codes[i], bit n-1-k set iff it enables feature k of n.
    Masks over a universe are the covers of every configuration set derived
    from it.  The per-feature masks are built once; `valuations` when read.
    """

    __slots__ = ("space", "codes", "full", "_feature_masks")

    def __init__(self, space, codes, feature_masks=None):
        n = len(space)
        if feature_masks is None:  # transpose the codes' digits, one column per feature
            rows = [bin(c | 1 << n)[3:] for c in codes]
            feature_masks = [int("".join(col)[::-1], 2) for col in zip(*rows)] or [0] * n
        self.space = space
        self.codes = codes
        self.full = (1 << len(codes)) - 1
        self._feature_masks = dict(zip(space.features, feature_masks))

    def values(self, i):
        """Configuration i, one bool per feature."""
        return tuple(map("1".__eq__, bin(self.codes[i] | 1 << len(self.space))[3:]))

    @property
    def valuations(self):
        return tuple(Config(self.space, self.values(i)) for i in range(len(self.codes)))

    def feature_mask(self, name):
        try:
            return self._feature_masks[name]
        except KeyError:
            raise UndeclaredFeature(name) from None

    def mask(self, phi):
        """The configurations of the universe that satisfy phi."""
        return mask_of(phi, self.feature_mask, self.full)

    def bits(self, mask):
        """Per configuration, 1 if it is in mask, else 0, as bytes."""
        return bin(mask | 1 << len(self.codes))[:2:-1].encode().translate(_DIGIT_BITS)


@dataclass(frozen=True, eq=False)
class ConfigSet:
    """An ordered set of configurations, read by meaning and, once abstracted, by name.

    Each member has a cover, the mask of the universe's configurations it
    stands for; covers are all that the analyses and abstractions decide on.
    A member is an int, the universe position of the one configuration it is
    (its cover is that bit), or a frozenset, the fresh named features of a
    component a join made.  Only join members store a cover, in `joins` as
    (index, cover): the int members lie in runs between them, and a reading
    of a set (`per_member`) is one C-level pass per run and a step per join.
    A set without join members is concrete; `covers`, `valuations` and
    `named` are built when read.  A set is identified by its space and, per
    member, the code of the one configuration it covers, else its cover.  A
    member's formula over `space` is built when read, from its named
    valuation and the renames.  The named view is over `named_space` (a
    concrete set's own space): `named` holds each member's enabled features
    of it, all others false.  `hint_of` and `named_hint_of`, when they give a
    formula, give a compact one equivalent to the disjunction of all members
    in that view, so joins never build huge disjunctions (the model).
    """

    space: FeatureSpace
    universe: Universe
    members: tuple | range
    joins: tuple[tuple[int, int], ...] = ()
    renames: dict = field(default_factory=dict)  # name -> () -> formula
    hint_of: Callable[[], FeatExp | None] = lambda: None
    named_space: FeatureSpace | None = None
    named_hint_of: Callable[[], FeatExp | None] = lambda: None

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.formulas)

    def __eq__(self, other):
        return self is other or isinstance(other, ConfigSet) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        codes = self.universe.codes

        def of_join(i, cover):  # a join of one configuration is that configuration
            return codes[cover.bit_length() - 1] if cover and not cover & cover - 1 else (cover,)

        return self.space, tuple(self.per_member(codes, of_join))

    @property
    def is_concrete(self):
        return not self.joins

    @property
    def covers(self):
        joined = dict(self.joins)
        return tuple(joined[i] if i in joined else 1 << m for i, m in enumerate(self.members))

    @property
    def valuations(self):
        """A concrete set's configurations (None for an abstract set)."""
        if self.is_concrete:
            return tuple(Config(self.space, self.universe.values(m)) for m in self.members)

    @property
    def named(self):
        return tuple(map(self.named_at, range(len(self.members))))

    def named_at(self, i):
        member = self.members[i]
        if type(member) is int:  # a configuration is named by its enabled features
            member = frozenset(compress(self.space.features, self.universe.values(member)))
        return member

    @property
    def hint(self):
        return self.hint_of()

    @property
    def formulas(self):
        return tuple(named_meaning(on, self.renames, self.space) for on in self.named)

    def named_formula(self, i):
        """Member i by name, as a literal conjunction over the whole named space."""
        return literal_conjunction(self.named_at(i), self.named_space)

    def mask(self, phi):
        """The configurations of the universe that satisfy phi."""
        return self.universe.mask(phi)

    def subset(self, indices, hint_of=lambda: None, named_hint_of=lambda: None):
        """Members `indices` (ascending) of the set, join members re-indexed,
        with the hints given (unknown by default)."""
        kept = set(indices)
        joins = tuple((bisect_left(indices, i), cover) for i, cover in self.joins if i in kept)
        return ConfigSet(self.space, self.universe, tuple(map(self.members.__getitem__, indices)),
                         joins, self.renames, hint_of, self.named_space, named_hint_of)

    def per_member(self, values, of_join):
        """Per member: values[m] for int member m (a universe position), of_join(i, cover) else."""
        members, joins = self.members, self.joins
        if type(members) is range:  # the universe's whole set: member i is bit i
            return values
        if len(joins) == len(members):  # join members only
            return [of_join(i, cover) for i, cover in joins]
        out, start = [], 0
        for i, cover in joins:
            out += map(getitem, repeat(values), members[start:i])
            out.append(of_join(i, cover))
            start = i + 1
        out += map(getitem, repeat(values), members[start:])
        return out

    def bits_of(self, mask, of_join=lambda i, cover: 0):
        """Per member, as bytes: an int member's bit of mask, of_join(i, cover)
        for join member i (0 unless given)."""
        bits = self.universe.bits(mask) if len(self.members) > len(self.joins) else b""
        return bytes(self.per_member(bits, of_join))

    def named_masker(self):
        """phi over the named space -> the mask of the members whose named
        valuation satisfies phi (other features false), memoized per phi object.
        A feature's mask reads the universe's: as it stands on a universe's whole
        set, else its bit for an int member; join members enable their names,
        read off one name -> members table.
        """
        universe, members = self.universe, self.members
        masks = dict(universe._feature_masks) if members == range(len(universe.codes)) else {}
        memo, full = {}, (1 << len(members)) - 1
        joined = {}  # name -> the mask of the join members enabling it
        for i, _ in self.joins:
            for name in members[i]:
                joined[name] = joined.get(name, 0) | 1 << i

        def feature_mask(name):
            if name not in masks:
                own = universe._feature_masks.get(name, 0)
                masks[name] = joined.get(name, 0) | (own and mask_from_bits(self.bits_of(own)))
            return masks[name]

        def mask(phi):  # by identity, keeping phi alive: deep guards hash slowly
            if id(phi) not in memo:
                memo[id(phi)] = phi, mask_of(phi, feature_mask, full)
            return memo[id(phi)][1]

        return mask


def named_meaning(on, renames, space):
    """The formula over `space` of a member enabling the named features `on`.

    A member enabling a renamed feature (at most one) means that feature's
    formula, which renames[name]() builds; any other means its own literals.
    """
    fresh = [name for name in on if name in renames]
    return renames[fresh[0]]() if fresh else literal_conjunction(on, space)


def concrete_configs(universe, hint=None):
    """The configuration set of a universe, member i at bit i, its own named view."""
    space = universe.space
    return ConfigSet(
        space,
        universe,
        range(len(universe.codes)),
        hint_of=lambda: hint,
        named_space=space,
        named_hint_of=lambda: hint,
    )


@dataclass(frozen=True)
class FeatureModel:
    space: FeatureSpace
    psi: FeatExp

    def __post_init__(self):
        for name in features_of(self.psi):
            if name not in self.space:
                raise UndeclaredFeature(name)


_ENUM_BUDGET = 1 << 21
_FALSE, _TRUE = 0, 1  # the node ids of the constants
_LEAF = 1 << 62  # the level of the constants, past every feature


class _Diagram:
    """A reduced ordered binary decision diagram (Bryant 1986), features
    ordered by index.

    Node k is nodes[k] = (var, hi, lo): it tests feature var and leads to hi
    if it is true, to lo if false; nodes 0 and 1 are false and true.  A
    unique table keeps one node per triple and none has hi == lo, so formulas
    are equivalent iff they build the same node.  `apply` and `negate` are
    memoized and run on explicit stacks.  Making more than _ENUM_BUDGET nodes
    raises SemanticError(message).
    """

    def __init__(self, message):
        self.nodes = [(_LEAF, _FALSE, _FALSE), (_LEAF, _TRUE, _TRUE)]
        self.unique = {}
        self.memo = ({}, {})  # per apply op: (a, b) -> node
        self.negations = {}
        self.message = message

    def node(self, v, hi, lo):
        if hi == lo:
            return hi
        key = (v, hi, lo)
        k = self.unique.get(key)
        if k is None:
            k = self.unique[key] = len(self.nodes)
            if k > _ENUM_BUDGET:
                raise SemanticError(self.message)
            self.nodes.append(key)
        return k

    def apply(self, op, a, b):
        """a & b if op is _FALSE, a | b if op is _TRUE: the constant that absorbs."""
        nodes, unique, memo = self.nodes, self.unique, self.memo[op]
        made, work = [], [(a, b)]
        while work:
            a, b = work.pop()
            if a < 0:  # the results of (~a, b)'s hi and lo pairs are on top of `made`
                lo, hi = made.pop(), made.pop()
                v = min(nodes[~a][0], nodes[b][0])
                k = memo[~a, b] = hi if hi == lo else unique.get((v, hi, lo)) or self.node(v, hi, lo)
                made.append(k)
                continue
            if a > b:
                a, b = b, a
            if a <= _TRUE or a == b:  # a constant absorbs or drops out; a & a = a | a = a
                made.append(op if a == op else b)
            elif (a, b) in memo:
                made.append(memo[a, b])
            else:
                va, a1, a0 = nodes[a]
                vb, b1, b0 = nodes[b]
                if va < vb:
                    b1 = b0 = b
                elif vb < va:
                    a1 = a0 = a
                work += ((~a, b), (a0, b0), (a1, b1))
        return made[0]

    def negate(self, a):
        nodes, memo = self.nodes, self.negations
        made, work = [], [a]
        while work:
            a = work.pop()
            if a < 0:  # the negations of ~a's hi and lo are on top of `made`
                lo, hi = made.pop(), made.pop()
                k = self.node(nodes[~a][0], hi, lo)
                memo[~a], memo[k] = k, ~a
                made.append(k)
            elif a <= _TRUE:
                made.append(_TRUE - a)
            elif a in memo:
                made.append(memo[a])
            else:
                _, hi, lo = nodes[a]
                work += (~a, lo, hi)
        return made[0]

    def build(self, phi, index):
        """The node of phi, feature names numbered by index (extended on first
        sight); connectives applied in post-order, Implies as !a | b."""
        made, work = [], [phi]
        while work:
            item = work.pop()
            kind = type(item)
            if kind is str:  # a connective whose operands are on top of `made`
                b = made.pop()
                if item == "not":
                    made.append(self.negate(b))
                    continue
                a = made.pop()
                if item == "implies":
                    item, a = "or", self.negate(a)
                made.append(self.apply(_TRUE if item == "or" else _FALSE, a, b))
            elif kind is Atom:
                made.append(self.node(index.setdefault(item.name, len(index)), _TRUE, _FALSE))
            elif kind is Not:
                work += ("not", item.arg)
            elif kind in _BINARY:
                work += (_BINARY[kind], item.right, item.left)
            elif kind is TrueExp or kind is FalseExp:
                made.append(_TRUE if kind is TrueExp else _FALSE)
            else:
                raise TypeError(f"not a feature expression: {item!r}")
        return made[0]


def _decide(*phis):
    """The formulas' nodes in one diagram, features in first-occurrence order."""
    dag, index = _Diagram("satisfiability search exceeded its budget"), {}
    return [dag.build(phi, index) for phi in phis]


def valid_configs(fm):
    """All satisfying valuations of the feature model, in canonical order.

    Canonical order: features in declaration order, earlier features more
    significant, true before false.  This reproduces the convention that the
    first component of a lifted store over {A,B} with model A|B belongs to
    A&B, then A&!B, then !A&B: descending order of codes (Universe).

    Enumeration walks the assignment tree depth-first on an explicit stack,
    carrying a node of the model's decision diagram: at depth i a node that
    tests feature i leads to its hi and lo children, any other node to
    itself twice (feature i is free).  False prunes its subtree.  True emits
    its block of completions as a range of codes, charged to _ENUM_BUDGET (as
    is every step and every diagram node) before it is built; overrunning the
    budget raises SemanticError.  A feature's mask is assembled from runs of
    bytes: ones over each subtree in which it is true, and a periodic
    pattern over each block in which it is free.
    """
    space = fm.space
    n = len(space)
    dag = _Diagram("configuration enumeration exceeded its budget")
    root = dag.build(fm.psi, {name: i for i, name in enumerate(space.features)})
    nodes = dag.nodes
    blocks = []  # one descending range of codes per path to true
    runs = [[] for _ in range(n)]  # per feature, (start, bytes) of the configurations enabling it
    size = 0
    # the nodes made and the root's step; a step pays for its children's
    budget = _ENUM_BUDGET - len(nodes) + 1
    # (depth, node, code of the prefix); node -1 ends the subtree in which
    # feature `depth` is true, and holds the position it began at as its code
    stack = [(0, root, 0)] if root != _FALSE else []
    while stack:
        i, node, code = stack.pop()
        if node < 0:
            runs[i].append((code, b"\1" * (size - code)))
            continue
        budget -= (1 << (n - i)) if node == _TRUE else 2
        if budget < 0:
            raise SemanticError("configuration enumeration exceeded its budget")
        if code & 1:  # feature i - 1 is true on every configuration of this subtree
            stack.append((i - 1, -1, size))
        if node == _TRUE:
            free = n - i
            width = 1 << free
            blocks.append(range(((code + 1) << free) - 1, (code << free) - 1, -1))
            for d in range(free):  # feature i + d: true, then false, in runs of h
                h = width >> d + 1
                runs[i + d].append((size, (b"\1" * h + bytes(h)) * (1 << d)))
            size += width
            continue
        v, one, zero = nodes[node]
        if v != i:  # feature i is free here
            one = zero = node
        if zero != _FALSE:
            stack.append((i + 1, zero, code << 1))
        if one != _FALSE:
            stack.append((i + 1, one, code << 1 | 1))
    masks = []
    for pieces in runs:
        column = bytearray(size)
        for start, run in pieces:
            column[start : start + len(run)] = run
        masks.append(mask_from_bits(column))
    universe = Universe(space, tuple(chain.from_iterable(blocks)), masks)
    return concrete_configs(universe, hint=fm.psi)


# ---------------------------------------------------------------------------
# Parsing
#
#   fe := fe "=>" fe | fe "|" fe | fe "&" fe | "!" fe | "(" fe ")"
#       | "true" | "false" | IDENT
#   precedence (loosest to tightest): =>, |, &, ! ; "=>" right-associative,
#   "|" and "&" left-associative.


_OPERATORS = {"=>": (1, Implies), "|": (2, Or), "&": (3, And)}


def parse_featexp_cursor(cur, space, minimum=1):
    """A feature expression whose operators bind at least as tightly as
    `minimum`, by precedence climbing."""
    left = _parse_unary(cur, space)
    while True:
        level, make = _OPERATORS.get(cur.current[1], (0, None))
        if level < minimum:
            return left
        cur.advance()
        if make is Implies:  # right-associative, and nothing follows it
            return Implies(left, parse_featexp_cursor(cur, space))
        left = make(left, parse_featexp_cursor(cur, space, level + 1))


def _parse_unary(cur, space):
    tok = cur.advance()
    kind, text, _ = tok
    if kind == "ident":
        if text == "true":
            return TRUE
        if text == "false":
            return FALSE
        if space is not None and text not in space:
            raise UndeclaredFeature(text, *cur.where(tok))
        return Atom(text)
    if text == "!":
        return Not(_parse_unary(cur, space))
    if text == "(":
        inner = parse_featexp_cursor(cur, space)
        cur.expect("sym", ")")
        return inner
    raise ParseError("expected a feature expression", *cur.where(tok))


def parse_featexp(text, space=None):
    """Parse a feature expression; identifiers must be declared in `space`."""
    cur = Cursor(text)
    phi = parse_featexp_cursor(cur, space)
    cur.finish()
    return phi
