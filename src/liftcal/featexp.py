"""Feature names, propositional feature expressions, valuations, and configuration sets.

A configuration set is decided on by its *covers*: each member is an `int`
mask over the valid configurations of a feature model (its universe), bit i
standing for the i-th valid configuration.  A formula becomes a mask by bit
algebra over per-feature masks, which valid_configs builds once, so the
analyses and abstractions never query a solver.  One ConfigSet type carries
both views an abstraction has of its output: by meaning over the original
features and by name over the abstract ones.  A member's formula only names
it and is built when read; valid_configs builds none.

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
from .lexer import Cursor, tokenize

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


def substitute(phi, name, replacement):
    """phi with every occurrence of the feature `name` replaced by a formula."""
    if isinstance(phi, Atom):
        return replacement if phi.name == name else phi
    if isinstance(phi, Not):
        return Not(substitute(phi.arg, name, replacement))
    if isinstance(phi, And):
        return And(substitute(phi.left, name, replacement), substitute(phi.right, name, replacement))
    if isinstance(phi, Or):
        return Or(substitute(phi.left, name, replacement), substitute(phi.right, name, replacement))
    if isinstance(phi, Implies):
        return Implies(substitute(phi.left, name, replacement), substitute(phi.right, name, replacement))
    return phi


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


def eval_partial(phi, partial):
    """Three-valued evaluation under a partial assignment; None if undecided."""
    if isinstance(phi, Atom):
        return partial.get(phi.name)
    if isinstance(phi, Not):
        value = eval_partial(phi.arg, partial)
        return None if value is None else not value
    if isinstance(phi, And):
        left = eval_partial(phi.left, partial)
        if left is False:
            return False
        right = eval_partial(phi.right, partial)
        if right is False:
            return False
        return True if left is True and right is True else None
    if isinstance(phi, Or):
        left = eval_partial(phi.left, partial)
        if left is True:
            return True
        right = eval_partial(phi.right, partial)
        if right is True:
            return True
        return False if left is False and right is False else None
    if isinstance(phi, Implies):
        left = eval_partial(phi.left, partial)
        if left is False:
            return True
        right = eval_partial(phi.right, partial)
        if right is True:
            return True
        return False if left is True and right is False else None
    if isinstance(phi, TrueExp):
        return True
    if isinstance(phi, FalseExp):
        return False
    raise TypeError(f"not a feature expression: {phi!r}")


_ENUM_BUDGET = 1 << 21


def valid_configs(fm):
    """All satisfying valuations of the feature model, in canonical order.

    Canonical order: features in declaration order, earlier features more
    significant, true before false.  This reproduces the convention that the
    first component of a lifted store over {A,B} with model A|B belongs to
    A&B, then A&!B, then !A&B.

    Enumeration walks the assignment tree depth-first, pruning whole subtrees
    as soon as the partial assignment decides the model, so wide feature
    spaces with few valid configurations stay cheap.
    """
    names = fm.space.features
    configs = []
    budget = [_ENUM_BUDGET]

    def spend():
        budget[0] -= 1
        if budget[0] < 0:
            raise SemanticError("configuration enumeration exceeded its budget")

    def emit(bits):
        spend()
        configs.append(Config(fm.space, tuple(bits)))

    def walk(i, bits, partial):
        spend()
        decided = eval_partial(fm.psi, partial)
        if decided is False:
            return
        if decided is True:
            for rest in _cartesian((True, False), repeat=len(names) - i):
                emit(bits + list(rest))
            return
        name = names[i]  # undecided, so some feature is still unassigned
        for value in (True, False):
            partial[name] = value
            walk(i + 1, bits + [value], partial)
            del partial[name]

    walk(0, [], {})
    return concrete_configs(fm.space, tuple(configs), hint=fm.psi)


def eliminate(phi, name):
    """Existential elimination of a feature: phi[name:=true] | phi[name:=false].

    The result is not normalized; callers compare via equiv.
    """
    return Or(substitute(phi, name, TRUE), substitute(phi, name, FALSE))


# ---------------------------------------------------------------------------
# Parsing
#
#   fe := fe "=>" fe | fe "|" fe | fe "&" fe | "!" fe | "(" fe ")"
#       | "true" | "false" | IDENT
#   precedence (loosest to tightest): =>, |, &, ! ; "=>" right-associative,
#   "|" and "&" left-associative.


def parse_featexp_cursor(cur, space):
    def implies_level():
        left = or_level()
        if cur.at_sym("=>"):
            cur.advance()
            return Implies(left, implies_level())
        return left

    def or_level():
        left = and_level()
        while cur.at_sym("|"):
            cur.advance()
            left = Or(left, and_level())
        return left

    def and_level():
        left = unary_level()
        while cur.at_sym("&"):
            cur.advance()
            left = And(left, unary_level())
        return left

    def unary_level():
        if cur.at_sym("!"):
            cur.advance()
            return Not(unary_level())
        if cur.at_sym("("):
            cur.advance()
            inner = implies_level()
            cur.expect("sym", ")")
            return inner
        tok = cur.current
        if tok.kind == "ident":
            cur.advance()
            if tok.text == "true":
                return TRUE
            if tok.text == "false":
                return FALSE
            if space is not None and tok.text not in space:
                raise UndeclaredFeature(tok.text, tok.line, tok.col)
            return Atom(tok.text)
        cur.error("expected a feature expression")

    return implies_level()


def parse_featexp(text, space=None):
    """Parse a feature expression; identifiers must be declared in `space`."""
    cur = Cursor(tokenize(text))
    phi = parse_featexp_cursor(cur, space)
    if not cur.at("eof"):
        tok = cur.current
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return phi
