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
    a1 || a2:     one #if with or-ed conditions when both rewrites agree on
                  the body, otherwise both rewrites sequenced
    a1 >> a2:     a2's rewrite applied to a1's output

The derived constructors are rewritten through their expansions into the
four above, which keeps the fresh-name sequence aligned with
abstract_configs.  lub(s0, s1) serializes as `if (0) { s0 } else { s1 }`,
which the analysis treats identically since if-conditions are ignored.
"""

from __future__ import annotations

from . import abstraction as ab
from . import featexp, lang
from .errors import SemanticError
from .featexp import And, Atom, FeatureModel, Not, Or, disj_all, equiv, eval_featexp, valuations_mask


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

    def walk(stmt):
        if isinstance(stmt, lang.IfDef):
            body = walk(stmt.body)
            t = valuations_mask(stmt.cond, group_vals)
            # untouched first: on an empty join the statement must stay dead,
            # matching the untouched case of the analysis
            if not t:
                return lang.IfDef(Not(z), body)
            if t == everything:
                return lang.IfDef(z, body)
            return lang.IfDef(z, lang.Lub(body, lang.Skip()))
        return _walk_compound(stmt, walk)

    return walk


def _make_repair(foreign_vals, own_formula):
    """Guard repair for one side of a parallel composition.

    A side's rewritten guard must not fire on the other side's components
    (e.g. a `!Z` guard is satisfied by every foreign component, where Z is
    false).  Guards already false under all foreign valuations are kept
    verbatim, so the basic rewrites come out unchanged; anything else gets
    the side's ownership formula conjoined.
    """
    cache = {}

    def repair(cond):
        if cond in cache:
            return cache[cond]
        if not valuations_mask(cond, foreign_vals):
            out = cond
        else:
            out = And(cond, own_formula())
        cache[cond] = out
        return out

    return repair


def _repair_stmt(stmt, repair):
    """Apply a guard repair to the top-level #ifs of a rewritten fragment."""
    if isinstance(stmt, lang.IfDef):
        cond = repair(stmt.cond)
        return stmt if cond == stmt.cond else lang.IfDef(cond, stmt.body)
    if isinstance(stmt, lang.Seq):
        return lang.Seq(_repair_stmt(stmt.first, repair), _repair_stmt(stmt.second, repair))
    return stmt


def _product_walker(left_walk, right_walk, repair_left, repair_right):
    def walk(stmt):
        if isinstance(stmt, lang.IfDef):
            left = left_walk(stmt)
            right = right_walk(stmt)
            if (
                isinstance(left, lang.IfDef)
                and isinstance(right, lang.IfDef)
                and stmt_equal(left.body, right.body)
            ):
                c_left = repair_left(left.cond)
                c_right = repair_right(right.cond)
                if c_left == c_right:
                    return lang.IfDef(c_left, left.body)
                return lang.IfDef(Or(c_left, c_right), left.body)
            # in any configuration at most one of the sequenced copies has a
            # guard that can still fire after repair
            return lang.Seq(_repair_stmt(left, repair_left), _repair_stmt(right, repair_right))
        return _walk_compound(stmt, walk)

    return walk


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
        left_state, left_walk = _rewrite(alpha.left, state, alloc)
        right_state, right_walk = _rewrite(alpha.right, state, alloc)
        merged, right_map = ab._product_merge(left_state, right_state, state.renames)
        left_count = len(left_state)
        right_positions = set(right_map)
        merged_named = None

        def own_formula(positions):
            def build():
                nonlocal merged_named
                if merged_named is None:
                    merged_named = merged.named_formulas()
                return disj_all(merged_named[p] for p in sorted(positions))

            return build

        foreign_left = [
            merged.named_vals[p] for p in range(left_count, len(merged))
        ]
        foreign_right = [
            merged.named_vals[p]
            for p in range(left_count)
            if p not in right_positions
        ]
        repair_left = _make_repair(foreign_left, own_formula(set(range(left_count))))
        repair_right = _make_repair(foreign_right, own_formula(right_positions))
        return merged, _product_walker(left_walk, right_walk, repair_left, repair_right)
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
        body = _simplify_single(body, out_state.named_vals[0])
    psi = out_state.named_hint
    if psi is None:
        psi = disj_all(out_state.named_formulas())
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
