"""Source-to-source reconfiguration of program families under an abstraction.

Rewrites every `#if` of a program so that running the plain lifted analysis
on the rewritten family coincides (up to renaming of configurations) with
running the abstracted analysis on the original.  All other statements are
copied.  The rewrite comes from the same application of the abstraction that
builds its configuration set (abstraction.apply), whose docstring gives the
rule of each constructor.  rewrite_family takes that (set, rewrite) pair, so
a caller that applied the abstraction for alpha or the named view reuses it;
reconfigure enumerates and applies first.  rewrite_program builds the
program alone, for callers that read no renames.  The rules' lub(s', skip)
is the statement `if (0) { s' } else { skip }` (lang.lub): the analysis
ignores if-conditions, so it joins s' with skip.
"""

from __future__ import annotations

from . import abstraction as ab
from . import featexp, lang
from .errors import SemanticError
from .featexp import FeatureModel, disj_all


def reconfigure(program, alpha, simplify=False):
    """Rewrite a program family under an abstraction: rewrite_family with
    alpha applied to the family's valid configurations."""
    applied = ab.apply(alpha, featexp.valid_configs(program.feature_model))
    return rewrite_family(program, applied, simplify)


def rewrite_family(program, applied, simplify=False):
    """Rewrite a program family with `applied`, the (set, rewrite) pair that
    abstraction.apply made of the family's valid configurations.

    Returns the rewritten Program (rewrite_program) and the rename table
    mapping each fresh feature to the formula it names over the original
    feature space.
    """
    rewritten = rewrite_program(program, applied, simplify)
    return rewritten, {name: meaning() for name, meaning in applied[0].renames.items()}


def rewrite_program(program, applied, simplify=False):
    """The rewritten Program of rewrite_family, over the abstract feature
    space and model, without building the renames' formulas."""
    out, rewrite = applied
    body = rewrite(program.body)
    if simplify:
        # one configuration left: its #if guards are statically decided
        if len(out) != 1:
            raise SemanticError("--simplify requires a single remaining configuration")
        on = out.named[0]
        body = lang.resolve_ifdefs(body, {f: f in on for f in out.named_space.features})
    psi = out.named_hint_of()
    if psi is None:
        psi = disj_all(out.named_formula(i) for i in range(len(out)))
    return lang.Program(FeatureModel(out.named_space, psi), lang.relabel(body))


def render_renames(renames):
    """Sidecar text, one `Z = formula` line per fresh feature."""
    return "".join(
        f"{name} = {featexp.render(meaning)}\n" for name, meaning in renames.items()
    )
