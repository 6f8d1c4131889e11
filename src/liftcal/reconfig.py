"""Source-to-source reconfiguration of program families under an abstraction.

Rewrites every `#if` of a program so that running the plain lifted analysis
on the rewritten family coincides (up to renaming of configurations) with
running the abstracted analysis on the original.  All other statements are
copied.  The `#if` rewrites, per constructor:

    join (fresh name Z, over the current configs K; t = the configs of K
    that satisfy theta, decided on K's named valuations):
        t empty                       ->  #if (!Z) s'
        t all of K                    ->  #if (Z)  s'
        otherwise                     ->  #if (Z)  lub(s', skip)
    proj(phi):    condition and statement kept, configs filtered
    a1 || ... || an:  every side rewritten; a guard firing on none of its
                  side's components is dead and dropped; one #if per class of
                  equal bodies, guarded by the or of its live guards (one that
                  fires where the class must not run is conjoined with its
                  side's components); other side rewrites follow in order
    a1 >> a2:     a2's rewrite applied to a1's output

The derived constructors are rewritten through their expansions into the
four above, which keeps the fresh-name sequence aligned with
abstract_configs.  lub(s0, s1) serializes as `if (0) { s0 } else { s1 }`,
which the analysis treats identically since if-conditions are ignored.
"""

from __future__ import annotations

from functools import cache

from . import abstraction as ab
from . import featexp, lang
from .errors import SemanticError
from .featexp import FALSE, And, Atom, FeatureModel, Not, disj_all, equiv
from .featexp import valuations_masker


def make_lub(s0, s1):
    """The statement whose analysis is the join of analyzing s0 and s1."""
    return lang.Lub(s0, s1)


def stmt_equal(a, b):
    """Structural statement equality, labels erased, formulas up to equivalence."""
    if type(a) is not type(b):
        return False
    if isinstance(a, lang.Skip):
        return True
    if isinstance(a, lang.Assign):
        return a.var == b.var and a.expr == b.expr
    if isinstance(a, lang.Seq):
        return stmt_equal(a.first, b.first) and stmt_equal(a.second, b.second)
    if isinstance(a, lang.If):
        return (
            a.cond == b.cond
            and stmt_equal(a.then, b.then)
            and stmt_equal(a.orelse, b.orelse)
        )
    if isinstance(a, lang.While):
        return a.cond == b.cond and stmt_equal(a.body, b.body)
    if isinstance(a, lang.IfDef):
        return equiv(a.cond, b.cond) and stmt_equal(a.body, b.body)
    if isinstance(a, lang.Lub):
        return stmt_equal(a.left, b.left) and stmt_equal(a.right, b.right)
    raise TypeError(f"not a statement: {a!r}")


def _copy_walker(stmt):
    return stmt


def _walk_compound(stmt, walk):
    kids = lang.children(stmt)
    return lang.with_children(stmt, tuple(map(walk, kids))) if kids else stmt


def _join_walker(group_vals, name):
    z = Atom(name)
    everything = (1 << len(group_vals)) - 1
    mask = valuations_masker(group_vals)

    def walk(stmt):
        if isinstance(stmt, lang.IfDef):
            body = walk(stmt.body)
            t = mask(stmt.cond)
            # untouched first: on an empty join the statement must stay dead,
            # matching the untouched case of the analysis
            if not t:
                return lang.IfDef(Not(z), body)
            if t == everything:
                return lang.IfDef(z, body)
            return lang.IfDef(z, lang.Lub(body, lang.Skip()))
        return _walk_compound(stmt, walk)

    return walk


def _repair_stmt(stmt, repair):
    """Apply a guard repair to the top-level #ifs of a rewritten fragment."""
    if isinstance(stmt, lang.IfDef):
        cond = repair(stmt.cond)
        return stmt if cond == stmt.cond else lang.IfDef(cond, stmt.body)
    if isinstance(stmt, lang.Seq):
        return lang.Seq(_repair_stmt(stmt.first, repair), _repair_stmt(stmt.second, repair))
    return stmt


def _product_rewrite(sides):
    """Merge the rewritten sides of a product; returns the set and its walker."""
    merged, positions = ab._product_merge([side for side, _ in sides])
    mask = valuations_masker(merged.named)
    owns = [sum(1 << p for p in landed) for landed in positions]
    own_formulas = [
        cache(lambda landed=landed: disj_all(merged.named_formula(p) for p in sorted(landed)))
        for landed in positions
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
            return _walk_compound(stmt, walk)
        classes = []  # (body, [(side, guard)]) of the live #ifs, by first appearance
        rest = []
        for k, (_, side_walk) in enumerate(sides):
            out = side_walk(stmt)
            if not isinstance(out, lang.IfDef):
                rest.append(_repair_stmt(out, lambda cond, k=k: repair(k, cond, owns[k])))
            elif mask(out.cond) & owns[k]:
                for body, members in classes:
                    if stmt_equal(body, out.body):
                        members.append((k, out.cond))
                        break
                else:
                    classes.append((out.body, [(k, out.cond)]))
        ifdefs = []
        for body, members in classes:
            # the class runs its body where a side's guard fires on the side's
            # own components; only a guard firing anywhere else is repaired
            allowed = 0
            for k, cond in members:
                allowed |= mask(cond) & owns[k]
            guards = dict.fromkeys(repair(k, cond, allowed) for k, cond in members)
            ifdefs.append(lang.IfDef(disj_all(guards), body))
        return lang.seq_all(ifdefs + rest)

    return merged, walk


def _rewrite(alpha, configs, alloc):
    """Returns the configuration set alpha makes of `configs` and a statement transformer."""
    if isinstance(alpha, ab.JoinPhi):
        return _rewrite(ab.Compose(ab.Join(), ab.Proj(alpha.phi)), configs, alloc)
    if isinstance(alpha, ab.FIgnore):
        expansion = ab._fignore_fold(configs, alpha.feature)
        if expansion is None:
            return ab._empty_set(configs), _copy_walker
        return _rewrite(expansion, configs, alloc)
    if isinstance(alpha, ab.FProj):
        return _rewrite(ab._fproj_chain(alpha), configs, alloc)
    if isinstance(alpha, (ab.Join, ab.GroupJoin)):
        indices = alpha.indices if isinstance(alpha, ab.GroupJoin) else range(len(configs))
        out = ab._apply(alpha, configs, alloc)
        name = out.named_space.features[0]
        return out, _join_walker([configs.named[i] for i in indices], name)
    if isinstance(alpha, ab.Proj):
        return ab._apply(alpha, configs, alloc), _copy_walker
    if isinstance(alpha, ab.Compose):
        mid, inner_walk = _rewrite(alpha.inner, configs, alloc)
        out, outer_walk = _rewrite(alpha.outer, mid, alloc)
        return out, (lambda stmt: outer_walk(inner_walk(stmt)))
    if isinstance(alpha, ab.Product):
        return _product_rewrite([_rewrite(part, configs, alloc) for part in alpha.parts])
    raise TypeError(f"not an abstraction: {alpha!r}")


def reconfigure(program, alpha, simplify=False):
    """Rewrite a program family under an abstraction.

    Returns the rewritten Program, over the abstract feature space and model,
    and the rename table mapping each fresh feature to the formula it names
    over the original feature space.
    """
    space = program.feature_model.space
    configs = featexp.valid_configs(program.feature_model)
    alloc = ab.NameAllocator(set(space.features))
    out, walk = _rewrite(alpha, ab._named_start(configs), alloc)
    body = walk(program.body)
    if simplify:
        # one configuration left: its #if guards are statically decided
        if len(out) != 1:
            raise SemanticError("--simplify requires a single remaining configuration")
        on = out.named[0]
        body = lang.resolve_ifdefs(body, {f: f in on for f in out.named_space.features})
    psi = out.named_hint_of()
    if psi is None:
        psi = disj_all(out.named_formula(i) for i in range(len(out)))
    new_program = lang.Program(FeatureModel(out.named_space, psi), lang.relabel(body))
    return new_program, {name: meaning() for name, meaning in out.renames.items()}


def render_renames(renames):
    """Sidecar text, one `Z = formula` line per fresh feature."""
    return "".join(
        f"{name} = {featexp.render(meaning)}\n" for name, meaning in renames.items()
    )
