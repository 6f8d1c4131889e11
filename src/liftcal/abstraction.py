"""The calculus of variability abstractions over configuration-indexed stores.

An abstraction shrinks the configuration dimension of a lifted store:

    join            confound every configuration into one component
    proj(phi)       keep only components whose configuration satisfies phi
    a >> b          sequential composition, read left to right (b after a)
    a || b || ...   parallel composition (direct product), n-ary and flat
    join(phi)       sugar: proj(phi) >> join
    fignore(A)      merge configurations differing only on feature A
    fproj(A,...)    ignore a whole set of features

Application computes the abstract configuration set only: one
featexp.ConfigSet, read two ways.  By name, over the abstract feature space
(`named_space`), where every join introduced a fresh feature Z naming the
confounded disjunction; a named configuration (`named`) is the set of its
enabled features, all others false, so it reads the same over any wider
space and the parallel-composition overlap test is a set lookup.  By
meaning, each component has its cover, the set of original valid
configurations it stands for, and its formula over the original space is
built when read (featexp.named_meaning): a component means the rename of the
one fresh feature it enables, else its own literals.  Lifted stores produced
here are indexed by that set.

Every abstraction is a join over such covers, so alpha gives each component
the join of the stores its cover holds, and gamma gives each configuration
the meet of the components that cover it (top where none does).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
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
    named_meaning,
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


def _concrete(configs):
    if configs.valuations is None:
        raise SemanticError("abstractions apply to concrete configuration sets")
    return configs


def _named_start(configs):
    """A concrete set with its named view: each configuration names itself."""
    space = _concrete(configs).space
    return replace(
        configs,
        named=tuple(frozenset(compress(space.features, c.values)) for c in configs.valuations),
        named_space=space,
        named_hint_of=configs.hint_of,
    )


def _select(configs, phi):
    """Indices of components whose every configuration satisfies phi."""
    rest = configs.universe.full & ~configs.mask(phi)
    return [i for i, cover in enumerate(configs.covers) if not cover & rest]


def _groups_by_elimination(configs, features):
    """Partition component indices by equal covers once `features` are dropped.

    Two meanings are equivalent after eliminating the features exactly when
    their configurations agree on the remaining features.
    """
    universe = configs.universe
    keep = [k for k, f in enumerate(universe.space.features) if f not in features]
    groups = {}
    for i, cover in enumerate(configs.covers):
        key = frozenset(
            tuple(universe.valuations[b].values[k] for k in keep)
            for b in bit_indices(cover)
        )
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _product_merge(sides):
    """Merge sibling sets; returns (set, positions).

    Components are taken side by side in order; one whose enabled named
    features equal an earlier component's is shared with it, otherwise it is
    appended.  positions[k][j] is where side k's j-th component landed.
    """
    features, index = {}, {}
    named, covers, positions = [], [], []
    for side in sides:
        features.update(dict.fromkeys(side.named_space.features))
        landed = []
        for on, cover in zip(side.named, side.covers):
            if on not in index:
                index[on] = len(named)
                named.append(on)
                covers.append(cover)
            landed.append(index[on])
        positions.append(landed)
    universe = sides[0].universe
    concrete = all(side.is_concrete for side in sides)
    # the hints close over the sides' hints, not the sides, so that a set
    # keeps none of the sets it was merged from alive
    hints = [side.hint_of for side in sides]
    named_hints = [(side.named_space.features, side.named_hint_of) for side in sides]
    merged = ConfigSet(
        universe.space,
        tuple(covers),
        universe,
        # a concrete component covers one configuration
        tuple(universe.valuations[c.bit_length() - 1] for c in covers) if concrete else None,
        tuple(named),
        # each side's renames extend those of the common input set, in order
        {name: m for side in sides for name, m in side.renames.items()},
        (lambda: _merged_meaning_hint(hints)) if concrete else lambda: None,
        FeatureSpace(tuple(features)),
        _once(lambda: _merged_named_hint(named_hints)),
    )
    return merged, positions


def _once(build):
    """A thunk that calls build on first use, then keeps only its result."""
    result = None

    def get():
        nonlocal build, result
        if build is not None:
            result, build = build(), None
        return result

    return get


def _merged_meaning_hint(hint_ofs):
    """disj(meanings) of concrete sides, folded pairwise so it nests log n deep."""
    hints = [hint_of() for hint_of in hint_ofs]
    return None if None in hints else fold_balanced(hints, Or)


def _merged_named_hint(named_hints):
    """disj(named) over the merged space, from each side's (features, named hint):
    each side's hint with the features it lacks negated, folded pairwise so that
    those negations stay O(n log n)."""
    parts = [(features, hint_of()) for features, hint_of in named_hints]
    if any(hint is None for _, hint in parts):
        return None

    def merge(left, right):
        (lspace, lhint), (rspace, rhint) = left, right
        lset, rset = set(lspace), set(rspace)
        lhint = conj_all([lhint] + [Not(Atom(f)) for f in rspace if f not in lset])
        rhint = conj_all([rhint] + [Not(Atom(f)) for f in lspace if f not in rset])
        return lspace + tuple(f for f in rspace if f not in lset), Or(lhint, rhint)

    return fold_balanced(parts, merge)[1]


# ---------------------------------------------------------------------------
# Application


def _apply(alpha, configs, alloc):
    """The configuration set alpha makes of `configs`, in both views."""
    if isinstance(alpha, Join):
        return _apply_group(range(len(configs)), None, configs, alloc)
    if isinstance(alpha, JoinPhi):
        indices = _select(configs, alpha.phi) if alpha.phi != TRUE else range(len(configs))
        return _apply_group(indices, alpha.phi, configs, alloc)
    if isinstance(alpha, GroupJoin):
        return _apply_group(alpha.indices, None, configs, alloc)
    if isinstance(alpha, Proj):
        indices = _select(configs, alpha.phi)
        concrete = configs.is_concrete
        hint_of, named_hint_of, phi = configs.hint_of, configs.named_hint_of, alpha.phi
        return ConfigSet(
            configs.space,
            tuple(configs.covers[i] for i in indices),
            configs.universe,
            tuple(configs.valuations[i] for i in indices) if concrete else None,
            tuple(configs.named[i] for i in indices),
            configs.renames,
            (lambda: _conj_hint(hint_of(), phi)) if concrete else lambda: None,
            configs.named_space,
            _once(lambda: _conj_hint(named_hint_of(), phi)) if concrete else lambda: None,
        )
    if isinstance(alpha, Compose):
        return _apply(alpha.outer, _apply(alpha.inner, configs, alloc), alloc)
    if isinstance(alpha, Product):
        sides = [_apply(part, configs, alloc) for part in alpha.parts]
        return _product_merge(sides)[0]
    if isinstance(alpha, FIgnore):
        expansion = _fignore_fold(configs, alpha.feature)
        if expansion is None:
            return _empty_set(configs)
        return _apply(expansion, configs, alloc)
    if isinstance(alpha, FProj):
        return _apply(_fproj_chain(alpha), configs, alloc)
    raise TypeError(f"not an abstraction: {alpha!r}")


def _fproj_chain(alpha):
    """fproj(A1,...,Ak) is fignore(A1) o ... o fignore(Ak), Ak applied first."""
    out = FIgnore(alpha.features[-1])
    for name in reversed(alpha.features[:-1]):
        out = Compose(FIgnore(name), out)
    return out


def _fignore_fold(configs, feature):
    """The product of exact group joins that realizes ignoring one feature."""
    if feature not in configs.universe.space:
        raise SemanticError(f"cannot ignore undeclared feature {feature}")
    groups = _groups_by_elimination(configs, (feature,))
    if not groups:
        return None
    return product(GroupJoin(tuple(group)) for group in groups)


def _empty_set(configs):
    # ignoring features of nothing: no components, but the named space stays
    # so that guards already rewritten over it remain evaluable
    return ConfigSet(
        configs.space,
        (),
        configs.universe,
        renames=configs.renames,
        hint_of=lambda: FALSE,
        named_space=configs.named_space,
        named_hint_of=lambda: FALSE,
    )


def _conj_hint(hint, phi):
    if hint is None:
        return None
    if phi == TRUE:
        return hint
    return And(hint, phi)


def _apply_group(indices, phi, configs, alloc):
    """Confound the selected components into one fresh-named component."""
    name = alloc.fresh()
    cover = 0
    for i in indices:
        cover |= configs.covers[i]
    meaning = partial(_group_meaning, indices, phi, configs)
    return ConfigSet(
        configs.space,
        (cover,),
        configs.universe,
        named=(frozenset((name,)),),
        renames={**configs.renames, name: meaning},
        hint_of=meaning,
        named_space=FeatureSpace((name,)),
        named_hint_of=lambda: Atom(name),
    )


def _group_meaning(indices, phi, configs):
    """The formula a join names: the disjunction of the selected components, kept
    compact through the set's hint (and the selection formula phi) where known."""
    if phi is not None and configs.is_concrete:
        hint = _conj_hint(configs.hint, phi)
        if hint is not None:
            return hint
    if not indices:
        return FALSE
    if len(indices) == len(configs):
        hint = configs.hint
        if hint is not None:
            return hint
    renames, space = configs.renames, configs.space
    return disj_all(named_meaning(configs.named[i], renames, space) for i in indices)


# ---------------------------------------------------------------------------
# Public operations


@dataclass(frozen=True)
class AbstractedConfigs:
    """Result of applying an abstraction to a feature space and config set."""

    space: FeatureSpace  # abstract feature space
    configs: ConfigSet  # named view, total valuations over `space`
    meaning_view: ConfigSet  # the same components over the original space

    @property
    def meanings(self):
        """Per config, its formula over the original space."""
        return self.meaning_view.formulas

    @property
    def renames(self):
        """Fresh feature name -> the formula over the original space it names."""
        return {name: meaning() for name, meaning in self.meaning_view.renames.items()}


def meaning_configs(alpha, space, configs):
    """The configuration set alpha makes of `configs`, indexed over the original space."""
    return _apply(alpha, _named_start(configs), NameAllocator(configs.space.features))


def abstract_configs(alpha, space, configs):
    """The abstract feature space and configuration set induced by alpha."""
    out = meaning_configs(alpha, space, configs)
    named_space = out.named_space
    valuations = tuple(
        featexp.Config(named_space, tuple(f in on for f in named_space.features))
        for on in out.named
    )
    return AbstractedConfigs(
        space=named_space,
        configs=featexp.concrete_configs(named_space, valuations, out.named_hint_of()),
        meaning_view=out,
    )


def _infer_lattice(store, lattice):
    if lattice is not None:
        return lattice
    if store.stores:
        return store.stores[0].lattice
    return CONST


def alpha_apply(alpha, configs, store, lattice=None):
    """Abstract a lifted store; the result is indexed by the meaning view.

    Each component is the join of the distinct stores of the configurations
    it covers, each store object joined once.
    """
    if store.configs != configs:
        raise SemanticError("store is not indexed by the given configuration set")
    lattice = _infer_lattice(store, lattice)
    out_configs = meaning_configs(alpha, configs.space, configs)
    # concrete configurations cover one universe bit each
    at = {c.bit_length() - 1: s for c, s in zip(configs.covers, store.stores)}
    out = []
    for cover in out_configs.covers:
        stores = list({id(s): s for s in map(at.__getitem__, bit_indices(cover))}.values())
        if len(stores) == 1:
            out.append(stores[0])
            continue
        joined = Store.bot(lattice)
        for s in stores:
            joined = joined.join(s)
        out.append(joined)
    return LiftedStore(out_configs, tuple(out))


def gamma_apply(alpha, configs, store, lattice=None):
    """Concretize an abstract lifted store back over the full configuration set.

    Each configuration gets the meet of the components covering it, or top
    when none does.
    """
    lattice = _infer_lattice(store, lattice)
    covers = meaning_configs(alpha, configs.space, configs).covers
    if len(store) != len(covers):
        raise SemanticError(
            f"abstract store has {len(store)} components, expected {len(covers)}"
        )
    met = {}
    for cover, d in zip(covers, store.stores):
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
    groups = _groups_by_elimination(_concrete(configs), (feature,))
    if not groups:
        raise SemanticError("cannot expand fignore over an empty configuration set")
    # expansion formulas stay literal disjunctions so they are readable in specs
    return product(JoinPhi(disj_all(configs.valuations[i].formula() for i in g)) for g in groups)


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
