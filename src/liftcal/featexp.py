"""Feature names, propositional feature expressions, valuations, and configuration sets.

A configuration set is decided on by its *covers*: each member is an `int`
mask over the valid configurations of a feature model (its universe), bit i
standing for the i-th valid configuration.  A formula becomes a mask by bit
algebra over per-feature masks, which valid_configs builds once, so the
analyses and abstractions never query a solver.  One ConfigSet type carries
both views an abstraction has of its output: by meaning over the original
features and by name over the abstract ones.  A member's formula only names
it and is built when read; valid_configs builds none.

valid_configs lists a model's valid configurations in canonical order by
residual enumeration, a top-down BDD construction (Bryant 1986): the model
becomes a hash-consed DAG once, each step takes a memoized cofactor on the
next feature, and _ENUM_BUDGET bounds the steps and configurations.

Satisfiability and entailment of free-standing formulas are decided by
brute-force enumeration of valuations over the features that actually occur
in a query.  This is exact, dependency-free, and doubles as the oracle for
the property tests; it is capped at MAX_ENUM_FEATURES features per query.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import compress
from itertools import product as _cartesian

from .errors import ParseError, SemanticError, UndeclaredFeature
from .lexer import Cursor

MAX_ENUM_FEATURES = 20


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
    """Evaluate phi under a total assignment (a mapping from name to bool)."""
    if isinstance(phi, Atom):
        return assignment[phi.name]
    if isinstance(phi, Not):
        return not eval_featexp(phi.arg, assignment)
    if isinstance(phi, And):
        return eval_featexp(phi.left, assignment) and eval_featexp(phi.right, assignment)
    if isinstance(phi, Or):
        return eval_featexp(phi.left, assignment) or eval_featexp(phi.right, assignment)
    if isinstance(phi, Implies):
        return (not eval_featexp(phi.left, assignment)) or eval_featexp(phi.right, assignment)
    if isinstance(phi, TrueExp):
        return True
    if isinstance(phi, FalseExp):
        return False
    raise TypeError(f"not a feature expression: {phi!r}")


def mask_of(phi, feature_mask, full):
    """The configurations satisfying phi, as a bit mask.

    feature_mask(name) is the mask of the configurations that enable a
    feature and full the mask of all of them; connectives are bit operations.
    """
    if isinstance(phi, Atom):
        return feature_mask(phi.name)
    if isinstance(phi, Not):
        return full & ~mask_of(phi.arg, feature_mask, full)
    if isinstance(phi, And):
        return mask_of(phi.left, feature_mask, full) & mask_of(phi.right, feature_mask, full)
    if isinstance(phi, Or):
        return mask_of(phi.left, feature_mask, full) | mask_of(phi.right, feature_mask, full)
    if isinstance(phi, Implies):
        left = mask_of(phi.left, feature_mask, full)
        return (full & ~left) | mask_of(phi.right, feature_mask, full)
    if isinstance(phi, TrueExp):
        return full
    if isinstance(phi, FalseExp):
        return 0
    raise TypeError(f"not a feature expression: {phi!r}")


def mask_from_bits(bits):
    """The mask with bit i set iff bits[i] is true, built in linear time."""
    return int("".join(["1" if bit else "0" for bit in reversed(bits)]) or "0", 2)


def valuations_masker(valuations):
    """phi -> mask of valuations[i] (each the set of its enabled features) satisfying phi.

    The per-feature masks are built once, for every phi.
    """
    masks = {}

    def feature_mask(name):
        if name not in masks:
            masks[name] = mask_from_bits([name in on for on in valuations])
        return masks[name]

    full = (1 << len(valuations)) - 1
    return lambda phi: mask_of(phi, feature_mask, full)


def bit_indices(mask):
    """Positions of the set bits of a mask, ascending, in time linear in its size."""
    if mask.bit_count() > 64:
        return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
    out = []  # sparse: peel off the lowest set bit
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def render(phi, compact=False):
    """Concrete syntax for phi, with minimal parentheses.

    compact=True drops the spaces around binary operators (result-row style).
    """
    amp, bar, arrow = ("&", "|", "=>") if compact else (" & ", " | ", " => ")

    def prec(node):
        if isinstance(node, Implies):
            return 1
        if isinstance(node, Or):
            return 2
        if isinstance(node, And):
            return 3
        return 4

    def go(node, minimum):
        if isinstance(node, Atom):
            text = node.name
        elif isinstance(node, TrueExp):
            text = "true"
        elif isinstance(node, FalseExp):
            text = "false"
        elif isinstance(node, Not):
            text = "!" + go(node.arg, 4)
        elif isinstance(node, And):
            text = go(node.left, 3) + amp + go(node.right, 4)
        elif isinstance(node, Or):
            text = go(node.left, 2) + bar + go(node.right, 3)
        elif isinstance(node, Implies):
            # right-associative
            text = go(node.left, 2) + arrow + go(node.right, 1)
        else:
            raise TypeError(f"not a feature expression: {phi!r}")
        if prec(node) < minimum:
            return "(" + text + ")"
        return text

    return go(phi, 0)


# ---------------------------------------------------------------------------
# Satisfiability, entailment, equivalence


def _forced_literals(phi, forced):
    """Fix features forced by top-level conjunct literals; False on conflict.

    Configuration formulas are mostly literal conjunctions, so this turns the
    exponential enumeration into a single evaluation for them.
    """
    if isinstance(phi, And):
        return _forced_literals(phi.left, forced) and _forced_literals(phi.right, forced)
    if isinstance(phi, Atom):
        if forced.get(phi.name) is False:
            return False
        forced[phi.name] = True
        return True
    if isinstance(phi, Not) and isinstance(phi.arg, Atom):
        if forced.get(phi.arg.name) is True:
            return False
        forced[phi.arg.name] = False
        return True
    if isinstance(phi, FalseExp):
        return False
    return True


def sat(phi, space=None):
    """True iff some total valuation satisfies phi.

    Only features occurring in phi are enumerated (others cannot change the
    answer), and features forced by top-level literal conjuncts are fixed
    up front.
    """
    names = features_of(phi)
    if space is not None:
        for name in names:
            if name not in space:
                raise UndeclaredFeature(name)
    forced = {}
    if not _forced_literals(phi, forced):
        return False
    free = [name for name in names if name not in forced]
    if len(free) > MAX_ENUM_FEATURES:
        raise SemanticError(
            f"satisfiability query over {len(free)} features exceeds the "
            f"enumeration cap of {MAX_ENUM_FEATURES}"
        )
    for bits in _cartesian((True, False), repeat=len(free)):
        assignment = dict(zip(free, bits))
        assignment.update(forced)
        if eval_featexp(phi, assignment):
            return True
    return False


def valid(phi, space=None):
    return not sat(Not(phi), space)


def entails(phi, theta):
    """phi |= theta, i.e. unsat(phi & !theta)."""
    return not sat(And(phi, Not(theta)))


def equiv(phi1, phi2):
    """Logical equivalence (mutual entailment)."""
    if phi1 == phi2:
        return True
    return entails(phi1, phi2) and entails(phi2, phi1)


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

    def __getitem__(self, name):
        return self.values[self.space.index(name)]

    def as_dict(self):
        return dict(zip(self.space.features, self.values))

    def formula(self):
        """The canonical literal-conjunction form, in declaration order."""
        return literal_conjunction(set(compress(self.space.features, self.values)), self.space)


class Universe:
    """The valid configurations of a feature model, bit i standing for the i-th.

    Masks over a universe are the covers of every configuration set derived
    from it.  The per-feature masks are built once, here.
    """

    __slots__ = ("space", "valuations", "full", "_feature_masks")

    def __init__(self, space, valuations):
        self.space = space
        self.valuations = valuations
        self.full = (1 << len(valuations)) - 1
        self._feature_masks = {
            name: mask_from_bits([v.values[k] for v in valuations])
            for k, name in enumerate(space.features)
        }

    def feature_mask(self, name):
        try:
            return self._feature_masks[name]
        except KeyError:
            raise UndeclaredFeature(name) from None

    def mask(self, phi):
        """The configurations of the universe that satisfy phi."""
        return mask_of(phi, self.feature_mask, self.full)


@dataclass(frozen=True)
class ConfigSet:
    """An ordered set of configurations, read by meaning and, once abstracted, by name.

    Each member has a cover, the mask of the universe's configurations it
    stands for; covers are all that the analyses and abstractions decide on,
    and with the space (and a concrete set's valuations) the set's identity.
    Concrete sets carry their valuations and cover one configuration each.
    The meaning view is over `space`, the original features: a member's
    formula is built when read, from its valuation or else from its named
    valuation and the renames.  The named view, which an abstraction adds,
    is over `named_space`: `named` holds each member's enabled features of
    it, all others false.  `hint_of` and `named_hint_of`, when they give a
    formula, give a compact one equivalent to the disjunction of all
    members in that view, so joins never build huge disjunctions
    (valid_configs: the model).
    """

    space: FeatureSpace
    covers: tuple[int, ...]
    universe: Universe = field(compare=False)
    valuations: tuple[Config, ...] | None = None
    named: tuple[frozenset, ...] = field(default=(), compare=False)
    renames: dict = field(default_factory=dict, compare=False)  # name -> () -> formula
    hint_of: Callable[[], FeatExp | None] = field(default=lambda: None, compare=False)
    named_space: FeatureSpace | None = field(default=None, compare=False)
    named_hint_of: Callable[[], FeatExp | None] = field(default=lambda: None, compare=False)

    def __len__(self):
        return len(self.covers)

    def __iter__(self):
        return iter(self.formulas)

    @property
    def is_concrete(self):
        return self.valuations is not None

    @property
    def hint(self):
        return self.hint_of()

    @property
    def formulas(self):
        if self.valuations is not None:
            return tuple(v.formula() for v in self.valuations)
        return tuple(named_meaning(on, self.renames, self.space) for on in self.named)

    def named_formula(self, i):
        """Member i by name, as a literal conjunction over the whole named space."""
        return literal_conjunction(self.named[i], self.named_space)

    def mask(self, phi):
        """The configurations of the universe that satisfy phi."""
        return self.universe.mask(phi)

    def index_of(self, phi):
        """Position of the first member whose cover is the configurations satisfying phi."""
        try:
            return self.covers.index(self.mask(phi))
        except ValueError:
            raise SemanticError(f"no configuration equivalent to {render(phi)}") from None


def named_meaning(on, renames, space):
    """The formula over `space` of a member enabling the named features `on`.

    A member enabling a renamed feature (at most one) means that feature's
    formula, which renames[name]() builds; any other means its own literals.
    """
    fresh = [name for name in on if name in renames]
    return renames[fresh[0]]() if fresh else literal_conjunction(on, space)


def concrete_configs(space, valuations, hint=None):
    """The configuration set of explicit valuations, each its own universe bit."""
    return ConfigSet(
        space,
        tuple(1 << i for i in range(len(valuations))),
        Universe(space, valuations),
        valuations,
        hint_of=lambda: hint,
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
_BINARY = {And: "and", Or: "or", Implies: "implies"}


class _Residuals:
    """A hash-consed formula DAG over features 0..n-1, with memoized cofactors.

    Node k is nodes[k]: ("var", i, i), ("not", a, a) or ("and" | "or", a, b)
    over child ids, and 0 and 1 are false and true.  `make` folds constants
    and looks nodes up in a unique table, so residuals that simplify alike
    are one node.  least[k] is the least feature index node k mentions (n for
    a constant): a residual over features i.. mentions i iff its least is i.
    """

    def __init__(self, n):
        self.nodes = [("false", 0, 0), ("true", 1, 1)] + [("var", i, i) for i in range(n)]
        self.least = [n, n, *range(n)]
        self.unique = {}
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
        key = (op, a, b)
        node = self.unique.get(key)
        if node is None:
            node = self.unique[key] = len(self.nodes)
            self.nodes.append(key)
            self.least.append(min(self.least[a], self.least[b]))
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


def valid_configs(fm):
    """All satisfying valuations of the feature model, in canonical order.

    Canonical order: features in declaration order, earlier features more
    significant, true before false.  This reproduces the convention that the
    first component of a lifted store over {A,B} with model A|B belongs to
    A&B, then A&!B, then !A&B.

    Enumeration walks the assignment tree depth-first on an explicit stack,
    carrying the residual: the model with the features assigned so far
    substituted and simplified, a node of a hash-consed DAG whose cofactors
    are built once each.  A false residual prunes its subtree, and a true one
    emits its completions, charged to _ENUM_BUDGET (as is every step) before
    they are built; overrunning the budget raises SemanticError.
    """
    space = fm.space
    n = len(space)
    dag = _Residuals(n)
    root = dag.build(fm.psi, {name: i for i, name in enumerate(space.features)})
    least, memo = dag.least, dag.cofactors
    configs = []
    budget = _ENUM_BUDGET - 1  # the root's step; a node pays for its children's
    path = [True] * n  # path[:i] assigns the node popped at depth i
    stack = [(0, root, True)] if root != _FALSE else []  # a false node is not pushed
    while stack:
        i, node, value = stack.pop()
        if i:
            path[i - 1] = value
        budget -= (1 << (n - i)) if node == _TRUE else 2
        if budget < 0:
            raise SemanticError("configuration enumeration exceeded its budget")
        if node == _TRUE:
            prefix, rests = tuple(path[:i]), _cartesian((True, False), repeat=n - i)
            configs += [Config(space, prefix + rest) for rest in rests]
            continue
        hi, lo = (node, node) if least[node] > i else memo.get(node) or dag.cofactor(node)
        if lo != _FALSE:
            stack.append((i + 1, lo, False))
        if hi != _FALSE:
            stack.append((i + 1, hi, True))
    return concrete_configs(space, tuple(configs), hint=fm.psi)


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
