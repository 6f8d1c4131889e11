"""The calculus of variability abstractions over configuration-indexed stores.

An abstraction shrinks the configuration dimension of a lifted store:

    join            confound every configuration into one component
    proj(phi)       keep only components whose configuration satisfies phi
    a >> b          sequential composition, read left to right (b after a)
    a || b || ...   parallel composition (direct product), n-ary and flat
    join(phi)       sugar: proj(phi) >> join
    fignore(A)      merge configurations differing only on feature A
    fproj(A,...)    ignore a whole set of features

Application (`apply`) walks the abstraction tree once and yields two things:
the abstract configuration set and the rewrite of the family's statements
that the reconfigurator applies.

The set is one featexp.ConfigSet, read two ways.  By name, over the abstract
feature space (`named_space`), where every join introduced a fresh feature Z
naming the confounded disjunction; a named configuration (`named`) is the
set of its enabled features, all others false, so it reads the same over any
wider space and the parallel-composition overlap test is a set lookup.  By
meaning, each component has its cover, the set of original valid
configurations it stands for (a kept configuration is its universe
position; only a join stores a mask), and its formula over the original
space is built when read (featexp.named_meaning): a component means the
rename of the one fresh feature it enables, else its own literals; a join
of no component means false.  Lifted stores produced here are indexed by
that set.

Every abstraction is a join over such covers, so alpha and gamma read a set
that apply already made: alpha (`alpha_over`) gives each component of a
given set the join of the stores its cover holds, and gamma gives each
configuration the meet of the components of its store's index that cover it
(top where none does); both work on masks and C-level passes, with no
Python step per configuration.  One application thus feeds alpha, the named
view (`named_view`) and the rewrite (reconfig.rewrite_family); alpha_apply,
abstract_configs and reconfigure apply, then read.

The rewrite maps a statement over the input set to one over the output's
named space.  It changes only `#if`s, per constructor:

    join (fresh name Z over the selected components; t = those of them
    that satisfy the #if's condition, by the universe's feature masks):
        t empty                       ->  #if (!Z) s'
        t all of the selection        ->  #if (Z)  s'
        otherwise                     ->  #if (Z)  lub(s', skip)
    proj(phi):    unchanged; the set is filtered
    a1 || ... || an:  every side rewritten; a guard firing on none of its
                  side's components is dead and dropped; one #if per body
                  key (labels erased, #if guards read as their masks over
                  the merged set), guarded by the or of its live guards (one
                  that fires where the class must not run is conjoined with
                  its side's components); other side rewrites follow in order
    a1 >> a2:     a2's rewrite applied to a1's output
    fignore(A):   one join per group of components that agree once A is
                  dropped, named Z1..Zn in group order; group k's case is
                  t & sel_k against its selection sel_k, and the product of
                  the groups' joins is rewritten in one step:
        one group                     ->  the join rule (#if (!Z1) s' when untouched)
        a body holding no #if         ->  #if (Za | ...) s'; #if (Zm | ...) lub(s', skip)
                                          over the analyzed and the mixed groups, in
                                          first-appearance order; untouched ones drop out
        a body holding an #if         ->  each live group's join rule, classed by body
                                          key as the product rule does

join(phi) and fproj rewrite as the join and the chain of fignores they apply
as, which keeps the fresh names of the set and the rewrite one sequence.  A
rewrite builds its state on its first call, so alpha, gamma and
meaning_configs, which read only the set, pay nothing for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import chain, compress, repeat
from operator import or_

from . import featexp, lang
from .errors import SemanticError, UndeclaredFeature
from .featexp import (
    FALSE,
    And,
    Atom,
    ConfigSet,
    FeatureSpace,
    Not,
    Or,
    TRUE,
    conj_all,
    disj_all,
    fold_balanced,
    mask_from_bits,
    named_meaning,
)
from .lattice import CONST, Store, tabulate
from .lexer import Cursor


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


class NameAllocator:
    """Fresh feature names, its sets' named maskers and its joins' meanings, for one application.

    Each `fresh()` yields the first of Z1, Z2, ... that is not in `used` and comes
    after the name the previous call yielded.
    """

    def __init__(self, used):
        self.used = frozenset(used)
        self.next = 1
        self.maskers = {}  # id of a set -> (the set, its named masker)
        self.meanings = {}  # fresh name -> the formula it names, built on first read

    def masker(self, configs):
        """The named masker of configs, built once: fignore's joins share one."""
        if id(configs) not in self.maskers:
            self.maskers[id(configs)] = configs, configs.named_masker()
        return self.maskers[id(configs)][1]

    def fresh(self):
        while f"Z{self.next}" in self.used:
            self.next += 1
        self.next += 1
        return f"Z{self.next - 1}"


# ---------------------------------------------------------------------------
# Configuration bookkeeping


def _concrete(configs):
    """A universe's whole set (member i is bit i), which names itself."""
    if configs.members != range(len(configs.universe.codes)):
        raise SemanticError("abstractions apply to concrete configuration sets")
    return configs


def _select(configs, t):
    """Indices of components whose every configuration is in the mask t."""
    rest = configs.universe.full & ~t
    inside = configs.bits_of(t, lambda i, cover: not cover & rest)
    return list(compress(range(len(configs)), inside))


def _groups_by_elimination(configs, features):
    """Partition component indices by equal covers once `features` are dropped.

    Two meanings are equivalent after eliminating the features exactly when
    their configurations agree on the remaining features.
    """
    universe = configs.universe
    names = universe.space.features
    keep = sum(1 << len(names) - 1 - k for k, f in enumerate(names) if f not in features)
    kept = list(map(keep.__and__, universe.codes))

    def of_join(i, cover):  # a join of configurations that agree is keyed as one of them
        key = frozenset(compress(kept, universe.bits(cover)))
        return next(iter(key)) if len(key) == 1 else key

    keys = configs.per_member(kept, of_join)
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _product_merge(sides, alloc):
    """The product of sibling (set, rewrite) pairs: the merged set and its rewrite.

    Components are taken side by side in order; one that is an earlier
    component (the same configuration, or the same enabled named features) is
    shared with it, otherwise it is appended.  A side owns the merged
    components its own components landed on.
    """
    members = tuple(dict.fromkeys(chain.from_iterable(side.members for side, _ in sides)))
    covers = {side.members[i]: cover for side, _ in sides for i, cover in side.joins}
    joins = tuple((i, covers[members[i]])
                  for i in compress(range(len(members)), map(covers.__contains__, members)))
    features = dict.fromkeys(chain.from_iterable(side.named_space.features for side, _ in sides))
    universe = sides[0][0].universe
    # the hints close over the sides' hints, not the sides, so that a set
    # keeps none of the sets it was merged from alive
    hints = [side.hint_of for side, _ in sides]
    named_hints = [(side.named_space.features, side.named_hint_of) for side, _ in sides]
    merged = ConfigSet(
        universe.space,
        universe,
        members,
        joins,
        # each side's renames extend those of the common input set, in order
        {name: m for side, _ in sides for name, m in side.renames.items()},
        (lambda: _merged_meaning_hint(hints)) if not joins else lambda: None,
        FeatureSpace(tuple(features)),
        _once(lambda: _merged_named_hint(named_hints)),
    )
    owned = [side.members for side, _ in sides]
    rewrites = [rewrite for _, rewrite in sides]
    return merged, _lazy(lambda: _product_walker(merged, alloc.masker(merged), owned, rewrites))


def _once(build):
    """A thunk that calls build on first use, then keeps only its result."""
    result = None

    def get():
        nonlocal build, result
        if build is not None:
            result, build = build(), None
        return result

    return get


def _lazy(build):
    """A statement rewrite whose walker build() makes on the first call."""
    walker = _once(build)
    return lambda stmt: walker()(stmt)


def _unchanged(stmt):
    return stmt


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
    """The configuration set alpha makes of `configs`, in both views, and its rewrite."""
    if isinstance(alpha, Join):
        cover = _inside(configs, configs.universe.full)
        return _apply_group(range(len(configs)), None, configs, alloc, cover)
    if isinstance(alpha, JoinPhi):
        t = configs.mask(alpha.phi)
        indices = _select(configs, t) if alpha.phi != TRUE else range(len(configs))
        return _apply_group(indices, alpha.phi, configs, alloc, _inside(configs, t))
    if isinstance(alpha, Proj):
        indices = _select(configs, configs.mask(alpha.phi))
        hint_of, named_hint_of, phi = configs.hint_of, configs.named_hint_of, alpha.phi
        if not configs.is_concrete:  # hints: a concrete proj keeps exactly phi's configurations
            return configs.subset(indices), _unchanged
        out = configs.subset(
            indices,
            lambda: _conj_hint(hint_of(), phi),
            # the named hint only where the meaning hint is known (not after _empty_set)
            _once(lambda: hint_of() and _conj_hint(named_hint_of(), phi)),
        )
        return out, _unchanged
    if isinstance(alpha, Compose):
        mid, inner = _apply(alpha.inner, configs, alloc)
        out, outer = _apply(alpha.outer, mid, alloc)
        return out, lambda stmt: outer(inner(stmt))
    if isinstance(alpha, Product):
        return _product_merge([_apply(part, configs, alloc) for part in alpha.parts], alloc)
    if isinstance(alpha, FIgnore):
        if alpha.feature not in configs.universe.space:
            raise SemanticError(f"cannot ignore undeclared feature {alpha.feature}")
        groups = _groups_by_elimination(configs, (alpha.feature,))
        if not groups:
            return _empty_set(configs), _unchanged
        if len(groups) == 1:  # one group confounds the whole set: the plain join
            return _apply(Join(), configs, alloc)
        return _partition(groups, configs, alloc)
    if isinstance(alpha, FProj):
        return _apply(_fproj_chain(alpha), configs, alloc)
    raise TypeError(f"not an abstraction: {alpha!r}")


def _fproj_chain(alpha):
    """fproj(A1,...,Ak) is fignore(A1) o ... o fignore(Ak), Ak applied first."""
    out = FIgnore(alpha.features[-1])
    for name in reversed(alpha.features[:-1]):
        out = Compose(FIgnore(name), out)
    return out


def _partition(groups, configs, alloc):
    """Confound each group of components (two or more groups) into its own
    fresh-named component: the set the product of the groups' joins makes,
    built in one step.  Keeping the groups positional (rather than by formula
    entailment) keeps degenerate meanings, e.g. equivalent or unsatisfiable
    components, in their own groups."""
    names = [alloc.fresh() for _ in groups]
    joined, members = dict(configs.joins), configs.members
    renames = dict(configs.renames)
    covers = []
    for name, group in zip(names, groups):
        renames[name] = partial(_group_meaning, alloc.meanings, name, group, None, configs)
        covers.append(reduce(or_, (joined[i] if i in joined else 1 << members[i] for i in group)))
    named_hints = [((name,), partial(Atom, name)) for name in names]
    out = ConfigSet(
        configs.space,
        configs.universe,
        tuple(frozenset((name,)) for name in names),
        tuple(enumerate(covers)),
        renames,
        named_space=FeatureSpace(tuple(names)),
        named_hint_of=_once(lambda: _merged_named_hint(named_hints)),
    )
    return out, _lazy(lambda: _partition_walker(configs, out, alloc, groups, names))


def _empty_set(configs):
    # ignoring features of nothing: no components, but the named space stays so that
    # guards rewritten over it remain evaluable; the meaning hint stays unknown
    return ConfigSet(
        configs.space,
        configs.universe,
        (),
        renames=configs.renames,
        named_space=configs.named_space,
        named_hint_of=lambda: FALSE,
    )


def _conj_hint(hint, phi):
    if hint is None:
        return None
    if phi == TRUE:
        return hint
    return And(hint, phi)


def _apply_group(indices, phi, configs, alloc, cover):
    """Confound the selected components, which cover `cover`, into one fresh-named component."""
    name = alloc.fresh()
    meaning = partial(_group_meaning, alloc.meanings, name, indices, phi, configs)
    out = ConfigSet(
        configs.space,
        configs.universe,
        (frozenset((name,)),),
        ((0, cover),),
        renames={**configs.renames, name: meaning},
        hint_of=meaning,
        named_space=FeatureSpace((name,)),
        named_hint_of=lambda: Atom(name),
    )
    return out, _lazy(lambda: _join_walker(alloc.masker(configs), _selection(indices, len(configs)),
                                           name))


def _inside(configs, t):
    """The configurations of the members whose every configuration is in the
    mask t, as one mask: t on the set's int members, and the join covers in t."""
    universe, members = configs.universe, configs.members
    ints = universe.full  # else the int members' bits, one C-level pass
    if type(members) is not range:
        ints = mask_from_bits(map(set(members).__contains__, range(len(universe.codes))))
    cover, rest = t & ints, universe.full & ~t
    for _, join_cover in configs.joins:
        if not join_cover & rest:
            cover |= join_cover
    return cover


def _group_meaning(meanings, name, indices, phi, configs):
    """The formula join `name` names, built once per application: fproj's
    renames read an inner join's formula once per member."""
    if name not in meanings:
        meanings[name] = _join_formula(indices, phi, configs)
    return meanings[name]


def _join_formula(indices, phi, configs):
    """The disjunction of the selected components, kept compact through the
    set's hint (and the selection formula phi) where known."""
    if not indices:
        return FALSE
    if phi is not None and configs.is_concrete:
        hint = _conj_hint(configs.hint, phi)
        if hint is not None:
            return hint
    if len(indices) == len(configs):
        hint = configs.hint
        if hint is not None:
            return hint
    renames, space = configs.renames, configs.space
    return disj_all(named_meaning(configs.named_at(i), renames, space) for i in indices)


# ---------------------------------------------------------------------------
# Rewrites


def _selection(indices, size):
    """Members `indices` of a set of `size`, as a mask."""
    if indices == range(size):
        return (1 << size) - 1
    return mask_from_bits(map(set(indices).__contains__, range(size)))


def _join_walker(mask, selection, name):
    """The join rule over the members in `selection`, by their set's named masker."""
    z = Atom(name)
    not_z = Not(z)  # one object, so the masker's memo hits

    def walk(stmt):
        if not isinstance(stmt, lang.IfDef):
            return lang.with_children(stmt, tuple(map(walk, lang.children(stmt))))
        body = walk(stmt.body)
        t = mask(stmt.cond) & selection
        # untouched first: on an empty join the statement must stay dead,
        # matching the untouched case of the analysis
        if not t:
            return lang.IfDef(not_z, body)
        if t == selection:
            return lang.IfDef(z, body)
        return lang.IfDef(z, lang.Lub(body, lang.Skip()))

    return walk


def _partition_walker(configs, out, alloc, groups, names):
    """The rule of the product of the groups' joins, in one walk: each #if
    is split into the groups' cases by one mask of its condition over the
    input set.  A group's #if that it leaves untouched (#if (!Z) s') fires
    on none of its own components and drops out; the others are classed by
    body as the product rule does."""
    mask = alloc.masker(configs)
    selections = [_selection(group, len(configs)) for group in groups]
    guards = list(map(Atom, names))
    walkers = {}  # group -> its join walker, for bodies holding an #if

    def walk(stmt):
        if not isinstance(stmt, lang.IfDef):
            return lang.with_children(stmt, tuple(map(walk, lang.children(stmt))))
        t = mask(stmt.cond)
        live = [(k, t & selection == selection) for k, selection in enumerate(selections)
                if t & selection]
        if not any(type(node) is lang.IfDef for node in lang.preorder(stmt.body)):
            # every group's join rule copies the body: the analyzed groups run
            # it, the mixed ones lub(body, skip); one #if per case
            cases = {}
            for k, analyzed in live:
                cases.setdefault(analyzed, []).append(guards[k])
            return lang.seq_all(
                lang.IfDef(disj_all(fired), stmt.body if analyzed else lang.Lub(stmt.body, lang.Skip()))
                for analyzed, fired in cases.items())
        merged = alloc.masker(out)
        classes = {}  # body key -> (body, its groups' guards), by first appearance
        for k, analyzed in live:
            if k not in walkers:
                walkers[k] = _join_walker(mask, selections[k], names[k])
            body = walkers[k](stmt.body)
            if not analyzed:
                body = lang.Lub(body, lang.Skip())
            classes.setdefault(_body_key(body, merged), (body, []))[1].append(guards[k])
        return lang.seq_all(lang.IfDef(disj_all(fired), body) for body, fired in classes.values())

    return walk


def _repair_stmt(stmt, repair):
    """Apply a guard repair to the top-level #ifs of a rewritten fragment."""
    if isinstance(stmt, lang.IfDef):
        cond = repair(stmt.cond)
        return stmt if cond == stmt.cond else lang.IfDef(cond, stmt.body)
    if isinstance(stmt, lang.Seq):
        return lang.Seq(_repair_stmt(stmt.first, repair), _repair_stmt(stmt.second, repair))
    return stmt


def _body_key(body, mask):
    """body in preorder, labels erased and each #if guard read as its mask."""
    key = []
    for node in lang.preorder(body):
        kind = type(node)
        if kind is lang.IfDef:
            key.append((kind, mask(node.cond)))
        elif kind is lang.Assign:
            key.append((kind, node.var, node.expr))
        elif kind is lang.If or kind is lang.While:
            key.append((kind, node.cond))
        else:
            key.append(kind)
    return tuple(key)


def _product_walker(merged, mask, owned, rewrites):
    """The product rule: side k's rewrite, guarded on the merged components it
    owns, those its members owned[k] landed on."""
    flags = [bytes(map(set(own).__contains__, merged.members)) for own in owned]  # per side
    owns = list(map(mask_from_bits, flags))
    own_formulas = [
        cache(lambda on=on: disj_all(map(merged.named_formula, compress(range(len(on)), on))))
        for on in flags
    ]

    def repair(k, cond, allowed):
        # side k's guard: false if dead, else narrowed to the side's own
        # components where it fires outside `allowed` (as `!Z` does on every
        # foreign component)
        fires = mask(cond)
        if not fires & owns[k]:
            return FALSE
        return cond if not fires & ~allowed else And(cond, own_formulas[k]())

    def walk(stmt):
        if not isinstance(stmt, lang.IfDef):
            return lang.with_children(stmt, tuple(map(walk, lang.children(stmt))))
        classes = {}  # body key -> (body, [(side, guard)]) of the live #ifs, by first appearance
        rest = []
        for k, rewrite in enumerate(rewrites):
            out = rewrite(stmt)
            if not isinstance(out, lang.IfDef):
                rest.append(_repair_stmt(out, lambda cond, k=k: repair(k, cond, owns[k])))
            elif mask(out.cond) & owns[k]:
                body, members = classes.setdefault(_body_key(out.body, mask), (out.body, []))
                members.append((k, out.cond))
        ifdefs = []
        for body, members in classes.values():
            # the class runs its body where a side's guard fires on the side's
            # own components; only a guard firing anywhere else is repaired
            allowed = 0
            for k, cond in members:
                allowed |= mask(cond) & owns[k]
            guards = dict.fromkeys(repair(k, cond, allowed) for k, cond in members)
            ifdefs.append(lang.IfDef(disj_all(guards), body))
        return lang.seq_all(ifdefs + rest)

    return walk


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


def apply(alpha, configs):
    """Apply alpha to a concrete configuration set: the set alpha makes of it,
    indexed over the original space, and the rewrite of the family's statements.

    Joins are named Z1, Z2, ..., skipping the set's own feature names.
    """
    return _apply(alpha, _concrete(configs), NameAllocator(configs.space.features))


def meaning_configs(alpha, space, configs):
    """The configuration set alpha makes of `configs`, indexed over the original space."""
    return apply(alpha, configs)[0]


def abstract_configs(alpha, space, configs):
    """The abstract feature space and configuration set induced by alpha: the
    named view of the set alpha makes of `configs`."""
    return named_view(apply(alpha, configs)[0])


def named_view(out):
    """The named view of `out`, a set that apply made: the abstract feature
    space and the set's members as total valuations over it."""
    named_space = out.named_space
    bit = {f: 1 << len(named_space) - 1 - k for k, f in enumerate(named_space.features)}
    codes = tuple(sum(map(bit.__getitem__, on)) for on in out.named)
    return AbstractedConfigs(
        space=named_space,
        configs=featexp.concrete_configs(featexp.Universe(named_space, codes), out.named_hint_of()),
        meaning_view=out,
    )


def _infer_lattice(store, lattice):
    if lattice is not None:
        return lattice
    if store.table:
        return store.table[0].lattice
    return CONST


def alpha_apply(alpha, configs, store, lattice=None):
    """Abstract a lifted store indexed by `configs` under alpha: alpha_over
    the set alpha makes of `configs`."""
    return alpha_over(apply(alpha, configs)[0], configs, store, lattice)


def alpha_over(out_configs, configs, store, lattice=None):
    """Abstract a lifted store indexed by `configs` onto `out_configs`, the set
    that apply made of `configs`; the result is indexed by `out_configs`.

    Alpha reads the given set the way gamma reads its store's index: an int
    member keeps its configuration's store, and a join member joins the table
    entries whose configurations (one C-level pass each) meet its cover.
    """
    if store.configs != configs:
        raise SemanticError("store is not indexed by the given configuration set")
    lattice = _infer_lattice(store, lattice)
    table = store.table
    _concrete(configs)
    at = store.index  # universe position -> table position
    # per table entry, the mask of the configurations whose store it is
    where = _entry_masks(at, len(table)) if out_configs.joins else ()

    def joined(key):  # a table position, or the tuple of those a join member meets
        if type(key) is int:
            return table[key]
        return reduce(Store.join, map(table.__getitem__, key)) if key else Store.bot(lattice)

    keys = out_configs.per_member(at, lambda i, cover: tuple(
        code for code, mask in enumerate(where) if mask & cover))
    return tabulate(joined, out_configs, keys)


def _entry_masks(index, size):
    """Per position e < size of a table, the mask of the components whose index is e."""
    if size > 256:
        return [mask_from_bits(map(int.__eq__, index, repeat(e))) for e in range(size)]
    row = bytes(index)  # table position e is the one byte that translates to 1
    return [mask_from_bits(row.translate(bytes(e) + b"\1" + bytes(255 - e))) for e in range(size)]


def gamma_apply(alpha, configs, store, lattice=None):
    """Concretize an abstract lifted store back over the full configuration set.

    The store is indexed by the set alpha made of `configs`.  Each
    configuration gets the meet of the components covering it, or top when
    none does.  A configuration is keyed by the table positions covering it:
    an int member's, read off a dict, and a bit per table position of joins.
    """
    lattice = _infer_lattice(store, lattice)
    abstract = store.configs
    universe, other = abstract.universe, configs.universe
    if universe is not other and (universe.space, universe.codes) != (other.space, other.codes):
        raise SemanticError("abstract store is not indexed over the given configurations")
    table = store.table
    joined = {}  # table position -> the union of the covers of the join members holding it
    for i, cover in abstract.joins:
        joined[store.index[i]] = joined.get(store.index[i], 0) | cover

    def met(key):  # (an int member's code or -1, then one bit per table position of `joined`)
        parts = [table[code] for code, hit in zip(joined, key[1:]) if hit]
        parts += [table[key[0]]] if key[0] >= 0 else []
        return reduce(Store.meet, parts) if parts else Store.top(lattice)

    # configuration i of a concrete set is universe bit members[i]
    column = repeat(-1, len(configs))
    if len(abstract.members) > len(abstract.joins):
        owner = dict(zip(abstract.members, store.index))  # an int member's position -> its code
        column = map(owner.get, configs.members, repeat(-1))
    hits = [configs.bits_of(cover) for cover in joined.values()]
    return tabulate(met, configs, list(zip(column, *hits)))


def fignore_expand(feature, configs):
    """The product-of-joins expansion of ignoring one feature over a config set.

    Groups the configurations by equivalence after eliminating the feature and
    returns JoinPhi(g1) || JoinPhi(g2) || ... in first-member order.
    """
    groups = _groups_by_elimination(_concrete(configs), (feature,))
    if not groups:
        raise SemanticError("cannot expand fignore over an empty configuration set")
    # expansion formulas stay literal disjunctions so they are readable in specs
    return product(JoinPhi(disj_all(map(configs.named_formula, g))) for g in groups)


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
        if cur.current[0] != "ident":
            cur.error("expected an abstraction")
        tok = cur.advance()
        word = tok[1]
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
        cur.error(f"unknown abstraction {word!r}", tok)

    return product_level()


def _feature_name(cur, space):
    tok = cur.expect("ident")
    name = tok[1]
    if space is not None and name not in space:
        raise UndeclaredFeature(name, *cur.where(tok))
    return name


def parse_abstraction(text, space=None):
    cur = Cursor(text)
    alpha = parse_abstraction_cursor(cur, space)
    cur.finish()
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
