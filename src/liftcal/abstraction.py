"""The calculus of variability abstractions over configuration-indexed stores.

An abstraction shrinks the configuration dimension of a lifted store:

    join            confound every configuration into one component
    proj(phi)       keep only components whose configuration satisfies phi
    a >> b          sequential composition, read left to right (b after a)
    a || b || ...   parallel composition (direct product), n-ary and flat
    join(phi)       sugar: proj(phi) >> join
    fignore(A)      merge configurations differing only on feature A
    fproj(A,...)    ignore a whole set of features

Application computes the abstract configuration set only, in two views.  The
*named* view is over the abstract feature space, where every join introduced
a fresh feature Z naming the confounded disjunction; a named configuration
is the set of its enabled features, all others false, so it reads the same
over any wider space and the parallel-composition overlap test is a set
lookup.  The *meaning* view gives each
component its cover, the set of original valid configurations it stands for,
together with a formula over the original feature space that renders it.
Lifted stores produced here are indexed by the meaning view.

Every abstraction is a join over such covers, so alpha gives each component
the join of the stores its cover holds, and gamma gives each configuration
the meet of the components that cover it (top where none does).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, reduce
from itertools import compress

from . import featexp
from .errors import ParseError, SemanticError, UndeclaredFeature
from .featexp import (
    FALSE,
    And,
    Atom,
    ConfigSet,
    FeatureSpace,
    Not,
    Or,
    TRUE,
    bit_indices,
    conj_all,
    disj_all,
    fold_balanced,
)
from .lattice import CONST, LiftedStore, Store
from .lexer import Cursor, tokenize


# ---------------------------------------------------------------------------
# Abstraction AST


class Abstraction:
    __slots__ = ()


@dataclass(frozen=True)
class Join(Abstraction):
    pass


@dataclass(frozen=True)
class Proj(Abstraction):
    phi: featexp.FeatExp


@dataclass(frozen=True)
class Compose(Abstraction):
    outer: Abstraction
    inner: Abstraction


@dataclass(frozen=True)
class Product(Abstraction):
    parts: tuple[Abstraction, ...]


def product(parts):
    """The flat product of parts; nested products are spliced in, one part is itself."""
    flat = []
    for part in parts:
        flat.extend(part.parts if isinstance(part, Product) else (part,))
    return flat[0] if len(flat) == 1 else Product(tuple(flat))


@dataclass(frozen=True)
class JoinPhi(Abstraction):
    phi: featexp.FeatExp


@dataclass(frozen=True)
class FIgnore(Abstraction):
    feature: str


@dataclass(frozen=True)
class FProj(Abstraction):
    features: tuple[str, ...]


@dataclass(frozen=True)
class GroupJoin(Abstraction):
    """Internal: confound an explicit subset of components under a fresh name.

    fignore factors into a product of these, one per group of configurations
    agreeing after elimination; keeping the selection positional (rather than
    by formula entailment) keeps degenerate meanings, e.g. equivalent or
    unsatisfiable components, in their own groups.
    """

    indices: tuple[int, ...]


def fresh_feature(used):
    """The next unused fresh feature name Z1, Z2, ..."""
    i = 1
    while f"Z{i}" in used:
        i += 1
    return f"Z{i}"


class NameAllocator:
    """Deterministic supply of fresh feature names for one application.

    Yields the names fresh_feature would, each call continuing from the last.
    """

    def __init__(self, used):
        self.used = frozenset(used)
        self.next = 1

    def fresh(self):
        while f"Z{self.next}" in self.used:
            self.next += 1
        self.next += 1
        return f"Z{self.next - 1}"


# ---------------------------------------------------------------------------
# Configuration bookkeeping


@dataclass(frozen=True)
class ConfigState:
    """Both views of an abstract configuration set, threaded through application."""

    universe: featexp.Universe  # the original valid configurations
    space: FeatureSpace
    named_vals: tuple[frozenset, ...]  # enabled features of `space`, one per component
    meanings: tuple[featexp.FeatExp, ...]  # formulas over the original space
    covers: tuple[int, ...]  # masks over `universe`, one per component
    concrete: bool  # each component is still one original configuration
    named_hint: Callable[[], featexp.FeatExp | None]  # compact disj(named), built once, on read
    meaning_hint: featexp.FeatExp | None  # compact formula over the original space
    renames: tuple[tuple[str, featexp.FeatExp], ...]

    def named_formula(self, i):
        """Component i as a literal conjunction over the whole of `space`."""
        on = self.named_vals[i]
        return conj_all(Atom(f) if f in on else Not(Atom(f)) for f in self.space.features)

    def __len__(self):
        return len(self.named_vals)


def initial_state(space, configs):
    """Bookkeeping for an unabstracted, concrete configuration set."""
    if configs.valuations is None:
        raise SemanticError("abstractions apply to concrete configuration sets")
    return ConfigState(
        universe=configs.universe,
        space=space,
        named_vals=tuple(frozenset(compress(space.features, c.values)) for c in configs.valuations),
        meanings=configs.formulas,
        covers=configs.covers,
        concrete=True,
        named_hint=lambda: configs.hint,
        meaning_hint=configs.hint,
        renames=(),
    )


def _select(state, phi):
    """Indices of components whose every configuration satisfies phi."""
    rest = state.universe.full & ~state.universe.mask(phi)
    return [i for i, cover in enumerate(state.covers) if not cover & rest]


def _join_meaning(state, indices):
    if len(indices) == len(state.meanings) and state.meaning_hint is not None:
        return state.meaning_hint
    return disj_all(state.meanings[i] for i in indices)


def _groups_by_elimination(state, features):
    """Partition component indices by equal covers once `features` are dropped.

    Two meanings are equivalent after eliminating the features exactly when
    their configurations agree on the remaining features.
    """
    universe = state.universe
    keep = [k for k, f in enumerate(universe.space.features) if f not in features]
    groups = {}
    for i, cover in enumerate(state.covers):
        key = frozenset(
            tuple(universe.valuations[b].values[k] for k in keep)
            for b in bit_indices(cover)
        )
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _product_merge(states, base_renames):
    """Merge sibling states; returns (state, positions).

    Components are taken side by side in order; one whose enabled named
    features equal an earlier component's is shared with it, otherwise it is
    appended.  positions[k][j] is where side k's j-th component landed.
    """
    features, index = {}, {}
    named_vals, meanings, covers, positions = [], [], [], []
    for side in states:
        features.update(dict.fromkeys(side.space.features))
        landed = []
        for on, meaning, cover in zip(side.named_vals, side.meanings, side.covers):
            if on not in index:
                index[on] = len(named_vals)
                named_vals.append(on)
                meanings.append(meaning)
                covers.append(cover)
            landed.append(index[on])
        positions.append(landed)
    concrete = all(side.concrete for side in states)
    hints = [side.meaning_hint for side in states]
    # folded left to right, as join meanings and renames render it
    meaning_hint = reduce(Or, hints) if concrete and None not in hints else None
    merged = ConfigState(
        universe=states[0].universe,
        space=FeatureSpace(tuple(features)),
        named_vals=tuple(named_vals),
        meanings=tuple(meanings),
        covers=tuple(covers),
        concrete=concrete,
        named_hint=cache(lambda: _merged_named_hint(states)),
        meaning_hint=meaning_hint,
        renames=base_renames
        + tuple(r for side in states for r in side.renames[len(base_renames):]),
    )
    return merged, positions


def _merged_named_hint(states):
    """disj(named) over the merged space: each side's hint with the features it
    lacks negated, folded pairwise so that those negations stay O(n log n)."""
    hints = [side.named_hint() for side in states]
    if any(hint is None for hint in hints):
        return None

    def merge(left, right):
        (lspace, lhint), (rspace, rhint) = left, right
        lset, rset = set(lspace), set(rspace)
        lhint = conj_all([lhint] + [Not(Atom(f)) for f in rspace if f not in lset])
        rhint = conj_all([rhint] + [Not(Atom(f)) for f in lspace if f not in rset])
        return lspace + tuple(f for f in rspace if f not in lset), Or(lhint, rhint)

    return fold_balanced(zip((s.space.features for s in states), hints), merge)[1]


# ---------------------------------------------------------------------------
# Application


def _apply(alpha, state, alloc):
    """The configuration state alpha makes of `state`."""
    if isinstance(alpha, Join):
        return _apply_group(range(len(state)), None, state, alloc)
    if isinstance(alpha, JoinPhi):
        indices = _select(state, alpha.phi) if alpha.phi != TRUE else range(len(state))
        return _apply_group(indices, alpha.phi, state, alloc)
    if isinstance(alpha, GroupJoin):
        return _apply_group(alpha.indices, None, state, alloc)
    if isinstance(alpha, Proj):
        indices = _select(state, alpha.phi)
        return ConfigState(
            universe=state.universe,
            space=state.space,
            named_vals=tuple(state.named_vals[i] for i in indices),
            meanings=tuple(state.meanings[i] for i in indices),
            covers=tuple(state.covers[i] for i in indices),
            concrete=state.concrete,
            named_hint=(
                cache(lambda: _conj_hint(state.named_hint(), alpha.phi, True))
                if state.concrete
                else lambda: None
            ),
            meaning_hint=_conj_hint(state.meaning_hint, alpha.phi, state.concrete),
            renames=state.renames,
        )
    if isinstance(alpha, Compose):
        return _apply(alpha.outer, _apply(alpha.inner, state, alloc), alloc)
    if isinstance(alpha, Product):
        sides = [_apply(part, state, alloc) for part in alpha.parts]
        return _product_merge(sides, state.renames)[0]
    if isinstance(alpha, FIgnore):
        expansion = _fignore_fold(state, alpha.feature)
        if expansion is None:
            return _empty_state(state)
        return _apply(expansion, state, alloc)
    if isinstance(alpha, FProj):
        return _apply(_fproj_chain(alpha), state, alloc)
    raise TypeError(f"not an abstraction: {alpha!r}")


def _fproj_chain(alpha):
    """fproj(A1,...,Ak) is fignore(A1) o ... o fignore(Ak), Ak applied first."""
    out = FIgnore(alpha.features[-1])
    for name in reversed(alpha.features[:-1]):
        out = Compose(FIgnore(name), out)
    return out


def _fignore_fold(state, feature):
    """The product of exact group joins that realizes ignoring one feature."""
    if feature not in state.universe.space:
        raise SemanticError(f"cannot ignore undeclared feature {feature}")
    groups = _groups_by_elimination(state, (feature,))
    if not groups:
        return None
    return product(GroupJoin(tuple(group)) for group in groups)


def _empty_state(state):
    # ignoring features of nothing: no components, but the feature space
    # stays so that guards already rewritten over it remain evaluable
    return ConfigState(
        universe=state.universe,
        space=state.space,
        named_vals=(),
        meanings=(),
        covers=(),
        concrete=False,
        named_hint=lambda: FALSE,
        meaning_hint=FALSE,
        renames=state.renames,
    )


def _conj_hint(hint, phi, concrete):
    if hint is None or not concrete:
        return None
    if phi == TRUE:
        return hint
    return And(hint, phi)


def _apply_group(indices, phi, state, alloc):
    """Confound the selected components into one fresh-named component.

    phi, when given, is the selection formula (used only to keep the recorded
    meaning compact on concrete states); the meaning is the disjunction of
    the selected components either way.
    """
    name = alloc.fresh()
    if phi is not None and state.concrete and state.meaning_hint is not None:
        meaning = state.meaning_hint if phi == TRUE else And(state.meaning_hint, phi)
    else:
        meaning = _join_meaning(state, indices) if indices else FALSE
    cover = 0
    for i in indices:
        cover |= state.covers[i]
    return ConfigState(
        universe=state.universe,
        space=FeatureSpace((name,)),
        named_vals=(frozenset((name,)),),
        meanings=(meaning,),
        covers=(cover,),
        concrete=False,
        named_hint=lambda: Atom(name),
        meaning_hint=meaning,
        renames=state.renames + ((name, meaning),),
    )


# ---------------------------------------------------------------------------
# Public operations


@dataclass(frozen=True)
class AbstractedConfigs:
    """Result of applying an abstraction to a feature space and config set."""

    space: FeatureSpace  # abstract feature space
    configs: ConfigSet  # named view, total valuations over `space`
    meanings: tuple[featexp.FeatExp, ...]  # per config, over the original space
    renames: dict  # fresh feature name -> meaning formula


def _abstract_state(alpha, configs):
    state = initial_state(configs.space, configs)
    return _apply(alpha, state, NameAllocator(configs.space.features))


def abstract_configs(alpha, space, configs):
    """The abstract feature space and configuration set induced by alpha."""
    state = _abstract_state(alpha, configs)
    valuations = tuple(
        featexp.Config(state.space, tuple(f in on for f in state.space.features))
        for on in state.named_vals
    )
    return AbstractedConfigs(
        space=state.space,
        configs=featexp.concrete_configs(state.space, valuations, state.named_hint()),
        meanings=state.meanings,
        renames=dict(state.renames),
    )


def _meaning_configset(state):
    universe = state.universe
    valuations = None
    if state.concrete:
        valuations = tuple(universe.valuations[c.bit_length() - 1] for c in state.covers)
    return ConfigSet(
        universe.space, state.meanings, state.covers, universe, valuations, state.meaning_hint
    )


def meaning_configs(alpha, space, configs):
    """The meaning view of alpha's output, as a ConfigSet over the original space."""
    return _meaning_configset(_abstract_state(alpha, configs))


def _infer_lattice(store, lattice):
    if lattice is not None:
        return lattice
    if store.stores:
        return store.stores[0].lattice
    return CONST


def _stores_by_bit(store):
    # concrete configurations cover one universe bit each
    return {c.bit_length() - 1: s for c, s in zip(store.configs.covers, store.stores)}


def alpha_apply(alpha, configs, store, lattice=None):
    """Abstract a lifted store; the result is indexed by the meaning view.

    Each component is the join of the stores of the configurations it covers.
    """
    if not store.configs.same_as(configs):
        raise SemanticError("store is not indexed by the given configuration set")
    lattice = _infer_lattice(store, lattice)
    state = _abstract_state(alpha, configs)
    at = _stores_by_bit(store)
    out = []
    for cover in state.covers:
        bits = bit_indices(cover)
        if len(bits) == 1:
            out.append(at[bits[0]])
            continue
        joined = Store.bot(lattice)
        for b in bits:
            joined = joined.join(at[b])
        out.append(joined)
    return LiftedStore(_meaning_configset(state), tuple(out))


def gamma_apply(alpha, configs, store, lattice=None):
    """Concretize an abstract lifted store back over the full configuration set.

    Each configuration gets the meet of the components covering it, or top
    when none does.
    """
    lattice = _infer_lattice(store, lattice)
    state = _abstract_state(alpha, configs)
    if len(store) != len(state):
        raise SemanticError(
            f"abstract store has {len(store)} components, expected {len(state)}"
        )
    met = {}
    for cover, d in zip(state.covers, store.stores):
        for b in bit_indices(cover):
            met[b] = met[b].meet(d) if b in met else d
    top = Store.top(lattice)
    return LiftedStore(
        configs, tuple(met.get(c.bit_length() - 1, top) for c in configs.covers)
    )


def fignore_expand(feature, configs):
    """The product-of-joins expansion of ignoring one feature over a config set.

    Groups the configurations by equivalence after eliminating the feature and
    returns JoinPhi(g1) || JoinPhi(g2) || ... in first-member order.
    """
    state = initial_state(configs.space, configs)
    groups = _groups_by_elimination(state, (feature,))
    if not groups:
        raise SemanticError("cannot expand fignore over an empty configuration set")
    # expansion formulas stay literal disjunctions so they are readable in specs
    return product(JoinPhi(disj_all(state.meanings[i] for i in g)) for g in groups)


# ---------------------------------------------------------------------------
# The abstraction DSL
#
#   abs := abs "||" abs | abs ">>" abs | "join" | "join(" fe ")" | "proj(" fe ")"
#        | "fignore(" IDENT ")" | "fproj(" IDENT ("," IDENT)* ")" | "(" abs ")"
#
#   ">>" binds tighter than "||" and is left-associative; "||" is associative,
#   so a chain of it, parenthesized or not, is one flat product.  "a >> b"
#   applies a first, i.e. it denotes the composition b o a.


def parse_abstraction_cursor(cur, space):
    def product_level():
        parts = [compose_level()]
        while cur.at_sym("||"):
            cur.advance()
            parts.append(compose_level())
        return product(parts)

    def compose_level():
        left = atom_level()
        while cur.at_sym(">>"):
            cur.advance()
            # left-to-right reading: the right operand runs after (outside) the left
            left = Compose(atom_level(), left)
        return left

    def atom_level():
        if cur.at_sym("("):
            cur.advance()
            inner = product_level()
            cur.expect("sym", ")")
            return inner
        tok = cur.current
        if tok.kind != "ident":
            cur.error("expected an abstraction")
        word = cur.advance().text
        if word == "join":
            if cur.at_sym("("):
                cur.advance()
                phi = featexp.parse_featexp_cursor(cur, space)
                cur.expect("sym", ")")
                return JoinPhi(phi)
            return Join()
        if word == "proj":
            cur.expect("sym", "(")
            phi = featexp.parse_featexp_cursor(cur, space)
            cur.expect("sym", ")")
            return Proj(phi)
        if word == "fignore":
            cur.expect("sym", "(")
            name = _feature_name(cur, space)
            cur.expect("sym", ")")
            return FIgnore(name)
        if word == "fproj":
            cur.expect("sym", "(")
            names = [_feature_name(cur, space)]
            while cur.at_sym(","):
                cur.advance()
                names.append(_feature_name(cur, space))
            cur.expect("sym", ")")
            return FProj(tuple(names))
        cur.error(f"unknown abstraction {word!r}")

    return product_level()


def _feature_name(cur, space):
    tok = cur.expect("ident")
    if space is not None and tok.text not in space:
        raise UndeclaredFeature(tok.text, tok.line, tok.col)
    return tok.text


def parse_abstraction(text, space=None):
    cur = Cursor(tokenize(text))
    alpha = parse_abstraction_cursor(cur, space)
    if not cur.at("eof"):
        tok = cur.current
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return alpha


def render_abstraction(alpha):
    if isinstance(alpha, Join):
        return "join"
    if isinstance(alpha, JoinPhi):
        return f"join({featexp.render(alpha.phi)})"
    if isinstance(alpha, Proj):
        return f"proj({featexp.render(alpha.phi)})"
    if isinstance(alpha, FIgnore):
        return f"fignore({alpha.feature})"
    if isinstance(alpha, FProj):
        return "fproj(" + ", ".join(alpha.features) + ")"
    if isinstance(alpha, Compose):
        inner = render_abstraction(alpha.inner)
        outer = render_abstraction(alpha.outer)
        if isinstance(alpha.inner, Product):
            inner = f"({inner})"
        if isinstance(alpha.outer, Product):
            outer = f"({outer})"
        return f"{inner} >> {outer}"
    if isinstance(alpha, Product):
        return " || ".join(render_abstraction(part) for part in alpha.parts)
    raise TypeError(f"not an abstraction: {alpha!r}")
