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
from .featexp import FALSE, And, Atom, FeatureModel, Not, disj_all, equiv, eval_featexp
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
    if isinstance(stmt, lang.Seq):
        return lang.Seq(walk(stmt.first), walk(stmt.second))
    if isinstance(stmt, lang.If):
        return lang.If(stmt.cond, walk(stmt.then), walk(stmt.orelse))
    if isinstance(stmt, lang.While):
        return lang.While(stmt.cond, walk(stmt.body))
    if isinstance(stmt, lang.Lub):
        return lang.Lub(walk(stmt.left), walk(stmt.right))
    return stmt  # skip, assign


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


def _product_rewrite(sides, state):
    """Merge the rewritten sides of a product; returns the state and its walker."""
    merged, positions = ab._product_merge([side for side, _ in sides], state.renames)
    mask = valuations_masker(merged.named_vals)
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


def _rewrite(alpha, state, alloc):
    """Returns the transformed config state and a statement transformer."""
    if isinstance(alpha, ab.JoinPhi):
        return _rewrite(ab.Compose(ab.Join(), ab.Proj(alpha.phi)), state, alloc)
    if isinstance(alpha, ab.FIgnore):
        expansion = ab._fignore_fold(state, alpha.feature)
        if expansion is None:
            return ab._empty_state(state), _copy_walker
        return _rewrite(expansion, state, alloc)
    if isinstance(alpha, ab.FProj):
        return _rewrite(ab._fproj_chain(alpha), state, alloc)
    if isinstance(alpha, (ab.Join, ab.GroupJoin)):
        indices = alpha.indices if isinstance(alpha, ab.GroupJoin) else range(len(state))
        new_state = ab._apply(alpha, state, alloc)
        name = new_state.renames[-1][0]
        return new_state, _join_walker([state.named_vals[i] for i in indices], name)
    if isinstance(alpha, ab.Proj):
        return ab._apply(alpha, state, alloc), _copy_walker
    if isinstance(alpha, ab.Compose):
        mid_state, inner_walk = _rewrite(alpha.inner, state, alloc)
        out_state, outer_walk = _rewrite(alpha.outer, mid_state, alloc)
        return out_state, (lambda stmt: outer_walk(inner_walk(stmt)))
    if isinstance(alpha, ab.Product):
        return _product_rewrite([_rewrite(part, state, alloc) for part in alpha.parts], state)
    raise TypeError(f"not an abstraction: {alpha!r}")


def _simplify_single(stmt, assignment):
    """Drop statically decided #if guards when only one configuration remains."""

    def walk(node):
        if isinstance(node, lang.IfDef):
            if eval_featexp(node.cond, assignment):
                return walk(node.body)
            return lang.Skip()
        return _walk_compound(node, walk)

    return walk(stmt)


def reconfigure(program, alpha, simplify=False):
    """Rewrite a program family under an abstraction.

    Returns the rewritten Program, over the abstract feature space and model,
    and the rename table mapping each fresh feature to the formula it names
    over the original feature space.
    """
    space = program.feature_model.space
    configs = featexp.valid_configs(program.feature_model)
    state = ab.initial_state(space, configs)
    alloc = ab.NameAllocator(set(space.features))
    out_state, walk = _rewrite(alpha, state, alloc)
    body = walk(program.body)
    if simplify:
        if len(out_state) != 1:
            raise SemanticError("--simplify requires a single remaining configuration")
        on = out_state.named_vals[0]
        body = _simplify_single(body, {f: f in on for f in out_state.space.features})
    psi = out_state.named_hint()
    if psi is None:
        psi = disj_all(out_state.named_formula(i) for i in range(len(out_state)))
    new_program = lang.Program(
        FeatureModel(out_state.space, psi), lang.relabel(body)
    )
    return new_program, dict(out_state.renames)


def render_renames(renames):
    """Sidecar text, one `Z = formula` line per fresh feature."""
    return "".join(
        f"{name} = {featexp.render(meaning)}\n" for name, meaning in renames.items()
    )


def renamed_meaning(config, renames, original_space):
    """The original-space meaning of a rewritten program's configuration.

    Every configuration of a rewritten family enables at most one fresh
    feature (joins introduce one name each and merges negate the other
    side's); that name's recorded formula is the meaning.  A configuration
    with no fresh feature enabled comes from a projection side and means its
    own original-feature literals; the negated fresh features are merge
    bookkeeping and carry no meaning.
    """
    positive = [
        name for name in config.space.features
        if name in renames and config[name]
    ]
    if len(positive) > 1:
        raise SemanticError("configuration enables more than one fresh feature")
    if positive:
        return renames[positive[0]]
    literals = []
    for name in original_space.features:
        if name not in config.space:
            raise SemanticError(f"configuration does not cover feature {name}")
        literals.append(Atom(name) if config[name] else Not(Atom(name)))
    return featexp.conj_all(literals)
