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

valid_configs lists a model's valid configurations in canonical order by
residual enumeration, a top-down BDD construction (Bryant 1986): the model
becomes a hash-consed DAG once, each step takes a memoized cofactor on the
next feature, and _ENUM_BUDGET bounds the steps and configurations.  sat,
entails and equiv search a formula's residuals for a path to true; equiv
first compares the two formulas' roots in one DAG.
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
    out = []
    seen = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            if node.name not in seen:
                seen.add(node.name)
                out.append(node.name)
        elif isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, (And, Or, Implies)):
            stack.append(node.right)
            stack.append(node.left)
    return out


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
        for name in features_of(phi):
            if name not in space:
                raise UndeclaredFeature(name)
    return _search(*_residuals_of(phi))


def valid(phi, space=None):
    return not sat(Not(phi), space)


def entails(phi, theta):
    """phi |= theta, i.e. unsat(phi & !theta)."""
    return not sat(And(phi, Not(theta)))


def equiv(phi1, phi2):
    """Logical equivalence: one root in a residual DAG, or no model of the xor."""
    dag, a, b = _residuals_of(phi1, phi2)
    not_a, not_b = dag.make("not", a, a), dag.make("not", b, b)
    xor = dag.make("or", dag.make("and", a, not_b), dag.make("and", not_a, b))
    return a == b or not _search(dag, xor)


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
        set, else its bit for an int member; join members enable their names.
        """
        universe, members = self.universe, self.members
        masks = dict(universe._feature_masks) if members == range(len(universe.codes)) else {}
        memo, full = {}, (1 << len(members)) - 1

        def feature_mask(name):
            if name not in masks:
                on = self.bits_of(universe._feature_masks.get(name, 0),
                                  lambda i, cover: name in members[i])
                masks[name] = mask_from_bits(on)
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


class _Residuals:
    """A hash-consed formula DAG over features 0..n-1, with memoized cofactors.

    Node k is nodes[k]: ("var", i, i), ("not", a, a) or ("and" | "or", a, b)
    over child ids, and 0 and 1 are false and true.  `make` folds constants,
    equal operands and a node met with its own negation, and looks nodes up
    in a unique table, so residuals that simplify alike are one node.
    least[k] is the least feature index node k mentions (n for a constant):
    a residual over features i.. mentions i iff its least is i.
    """

    def __init__(self, n):
        self.nodes = [("false", 0, 0), ("true", 1, 1)] + [("var", i, i) for i in range(n)]
        self.least = [n, n, *range(n)]
        self.unique = {}
        self.negations = {}  # node -> the node of its negation
        # node -> (node[x := true], node[x := false]), x the least feature it mentions
        self.cofactors = {2 + i: (_TRUE, _FALSE) for i in range(n)}

    def make(self, op, a, b):
        if op == "not":
            if a <= _TRUE:
                return _TRUE - a
        else:
            unit = _TRUE if op == "and" else _FALSE
            if _TRUE - unit in (a, b):
                return _TRUE - unit
            if a == unit or a == b:
                return b
            if b == unit:
                return a
            a, b = min(a, b), max(a, b)
            if self.negations.get(a) == b:  # a negation is made after its operand
                return _TRUE - unit
        key = (op, a, b)
        node = self.unique.get(key)
        if node is None:
            node = self.unique[key] = len(self.nodes)
            self.nodes.append(key)
            self.least.append(min(self.least[a], self.least[b]))
            if op == "not":
                self.negations[a] = node
        return node

    def build(self, phi, index):
        """The node of phi, feature names numbered by index; Implies desugars."""
        made = []  # the nodes of the subformulas finished so far, in post-order
        work = [phi]
        while work:
            item = work.pop()
            kind = type(item)
            if kind is str:  # a connective whose operands are on top of `made`
                b = made.pop()
                a = b if item == "not" else made.pop()
                if item == "implies":
                    item, a = "or", self.make("not", a, a)
                made.append(self.make(item, a, b))
            elif kind is Atom:
                made.append(2 + index[item.name])
            elif kind is Not:
                work += ("not", item.arg)
            elif kind in _BINARY:
                work += (_BINARY[kind], item.right, item.left)
            elif kind in (TrueExp, FalseExp):
                made.append(_TRUE if kind is TrueExp else _FALSE)
            else:
                raise TypeError(f"not a feature expression: {item!r}")
        return made[0]

    def cofactor(self, root):
        """The cofactors of root on its least feature x, visiting only what mentions x."""
        nodes, least, memo = self.nodes, self.least, self.cofactors
        x = least[root]
        work = [root]
        while work:
            node = work.pop()
            if node < 0:  # the cofactors of its children that mention x are built
                op, a, b = nodes[~node]
                a1, a0 = memo[a] if least[a] == x else (a, a)
                b1, b0 = memo[b] if least[b] == x else (b, b)
                memo[~node] = (self.make(op, a1, b1), self.make(op, a0, b0))
            elif node not in memo:
                _, a, b = nodes[node]
                work.append(~node)
                if least[a] == x:
                    work.append(a)
                if b != a and least[b] == x:
                    work.append(b)
        return memo[root]


def _residuals_of(*phis):
    """A residual DAG over the features the formulas mention, and their nodes."""
    names = features_of(fold_balanced(phis, And))
    dag = _Residuals(len(names))
    index = dict(zip(names, range(len(names))))
    return dag, *(dag.build(phi, index) for phi in phis)


def _search(dag, root):
    """True iff some path of cofactors leads from root to true, searched depth
    first, each residual expanded once.  Every expansion and DAG node is
    charged to _ENUM_BUDGET; overrunning it raises SemanticError."""
    memo, seen, stack = dag.cofactors, {_FALSE}, [root]
    while stack:
        node = stack.pop()
        if node == _TRUE:
            return True
        if node not in seen:
            seen.add(node)
            stack += reversed(memo.get(node) or dag.cofactor(node))  # hi on top
            if len(seen) + len(dag.nodes) > _ENUM_BUDGET:
                raise SemanticError("satisfiability search exceeded its budget")
    return False


def valid_configs(fm):
    """All satisfying valuations of the feature model, in canonical order.

    Canonical order: features in declaration order, earlier features more
    significant, true before false.  This reproduces the convention that the
    first component of a lifted store over {A,B} with model A|B belongs to
    A&B, then A&!B, then !A&B: descending order of codes (Universe).

    Enumeration walks the assignment tree depth-first on an explicit stack,
    carrying the residual: the model with the features assigned so far
    substituted and simplified, a node of a hash-consed DAG whose cofactors
    are built once each.  A false residual prunes its subtree.  A true one
    emits its block of completions as a range of codes, charged to
    _ENUM_BUDGET (as is every step) before it is built; overrunning the
    budget raises SemanticError.  A feature's mask is assembled from runs of
    bytes: ones over each subtree in which it is true, and a periodic
    pattern over each block in which it is free.
    """
    space = fm.space
    n = len(space)
    dag = _Residuals(n)
    root = dag.build(fm.psi, {name: i for i, name in enumerate(space.features)})
    least, memo = dag.least, dag.cofactors
    blocks = []  # one descending range of codes per true residual
    runs = [[] for _ in range(n)]  # per feature, (start, bytes) of the configurations enabling it
    size = 0
    budget = _ENUM_BUDGET - 1  # the root's step; a node pays for its children's
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
        hi, lo = (node, node) if least[node] > i else memo.get(node) or dag.cofactor(node)
        if lo != _FALSE:
            stack.append((i + 1, lo, code << 1))
        if hi != _FALSE:
            stack.append((i + 1, hi, code << 1 | 1))
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
