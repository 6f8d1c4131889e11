"""Brute-force oracles and property drivers that make the theorems executable.

Every check here generates (program, abstraction, store) cases from a seeded
stream and tests one theorem-shaped property:

    oracle equivalence   lifted analysis == preprocess-then-analyze, per variant
    galois laws          adjunction, extensive, reductive, finite join morphism
    fignore expansion    ignoring a feature == its product-of-joins expansion
    soundness            alpha o lifted o gamma  below  abstracted
    monotonicity         both engines preserve store ordering
    commutation          abstracted on s == lifted on reconfigure(s), renamed
    dataflow             solver solution bounds the transfer at every label

A failing case is shrunk by replacing statement subtrees with skip while the
failure persists, and reported with its seed index so it replays exactly.

check_all runs the seven properties on up to min(7, usable CPUs) processes,
forking one child per share beyond the first; its report does not depend on
how many it used. A process with a second live thread runs them all in-process.
"""

from __future__ import annotations

import json
import os
import random
import threading
from dataclasses import dataclass, field

from . import abstraction as ab
from . import featexp, lang
from .abstracted import analyze_abstracted, build_dataflow, solve_dataflow
from .errors import SemanticError
from .featexp import FeatureModel, FeatureSpace, valid_configs
from .lattice import CONST, CONST_PLUS, GEQ0, LEQ0, BOT, TOP, LiftedStore, Store, intval
from .lifted import analyze_expr_lifted, analyze_lifted, analyze_single, eval_expr
from .reconfig import rewrite_program

FEATURE_NAMES = ("A", "B", "C", "D")
VAR_NAMES = ("x", "y", "z")


@dataclass
class CaseGen:
    """Deterministic case source; identical seeds yield identical streams."""

    seed: int
    max_features: int = 3
    max_depth: int = 5
    max_abs_depth: int = 3
    max_vars: int = 2
    lattice: object = CONST

    def __post_init__(self):
        self.rng = random.Random(self.seed)

    def carrier(self):
        return _PLUS_CARRIER if self.lattice is CONST_PLUS else _CONST_CARRIER


# the values a generated store draws from, built once
_CONST_CARRIER = (BOT, TOP, *(intval(n) for n in range(-2, 3)))
_PLUS_CARRIER = (*_CONST_CARRIER, LEQ0, GEQ0)


# ---------------------------------------------------------------------------
# Generators


def gen_featexp(gen, space, depth=2):
    rng = gen.rng
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return featexp.Atom(rng.choice(space.features))
    if roll < 0.6:
        return featexp.Not(gen_featexp(gen, space, depth - 1))
    if roll < 0.75:
        return featexp.And(gen_featexp(gen, space, depth - 1), gen_featexp(gen, space, depth - 1))
    if roll < 0.9:
        return featexp.Or(gen_featexp(gen, space, depth - 1), gen_featexp(gen, space, depth - 1))
    if roll < 0.95:
        return featexp.Implies(gen_featexp(gen, space, depth - 1), gen_featexp(gen, space, depth - 1))
    return featexp.TRUE if rng.random() < 0.5 else featexp.FALSE


def gen_expr(gen, depth=2):
    rng = gen.rng
    if depth <= 0 or rng.random() < 0.55:
        if rng.random() < 0.5:
            n = rng.randint(-2, 2)
            if n < 0:  # the parser's shape for negative literals
                return lang.BinOp("-", lang.Num(0), lang.Num(-n))
            return lang.Num(n)
        return lang.Var(rng.choice(VAR_NAMES[: gen.max_vars]))
    op = rng.choice(lang.BINOPS)
    return lang.BinOp(op, gen_expr(gen, depth - 1), gen_expr(gen, depth - 1))


def gen_stmt(gen, space, depth):
    rng = gen.rng
    if depth <= 0:
        if rng.random() < 0.7:
            return lang.Assign(rng.choice(VAR_NAMES[: gen.max_vars]), gen_expr(gen, 1))
        return lang.Skip()
    roll = rng.random()
    if roll < 0.30:
        return lang.Assign(rng.choice(VAR_NAMES[: gen.max_vars]), gen_expr(gen))
    if roll < 0.55:
        return lang.Seq(gen_stmt(gen, space, depth - 1), gen_stmt(gen, space, depth - 1))
    if roll < 0.75:
        return lang.IfDef(gen_featexp(gen, space), gen_stmt(gen, space, depth - 1))
    if roll < 0.85:
        return lang.If(gen_expr(gen, 1), gen_stmt(gen, space, depth - 1), gen_stmt(gen, space, depth - 1))
    if roll < 0.93:
        return lang.While(gen_expr(gen, 1), gen_stmt(gen, space, depth - 2))
    if roll < 0.97:
        return lang.lub(gen_stmt(gen, space, depth - 1), gen_stmt(gen, space, depth - 1))
    return lang.Skip()


def gen_random_program(gen):
    rng = gen.rng
    n = rng.randint(1, gen.max_features)
    space = FeatureSpace(FEATURE_NAMES[:n])
    psi = gen_featexp(gen, space)
    if not featexp.sat(psi) and rng.random() < 0.9:
        psi = featexp.TRUE  # keep the occasional empty family, mostly avoid it
    body = gen_stmt(gen, space, rng.randint(1, gen.max_depth))
    return lang.Program(FeatureModel(space, psi), lang.relabel(body))


def gen_random_abstraction(gen, space, depth=None):
    """Random abstraction tree covering every constructor."""
    rng = gen.rng
    depth = gen.max_abs_depth if depth is None else depth
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        leaf = rng.randrange(5)
        if leaf == 0:
            return ab.Join()
        if leaf == 1:
            return ab.Proj(gen_featexp(gen, space))
        if leaf == 2:
            return ab.JoinPhi(gen_featexp(gen, space))
        if leaf == 3:
            return ab.FIgnore(rng.choice(space.features))
        count = rng.randint(1, len(space.features))
        return ab.FProj(tuple(rng.sample(space.features, count)))
    if roll < 0.8:
        return ab.Compose(
            gen_random_abstraction(gen, space, depth - 1),
            gen_random_abstraction(gen, space, depth - 1),
        )
    left = gen_random_abstraction(gen, space, depth - 1)
    right = gen_random_abstraction(gen, space, depth - 1)
    return ab.product((left, right))


def _collapses(alpha):
    if isinstance(alpha, (ab.Join, ab.JoinPhi, ab.FIgnore, ab.FProj)):
        return True
    if isinstance(alpha, ab.Compose):
        return _collapses(alpha.outer) or _collapses(alpha.inner)
    if isinstance(alpha, ab.Product):
        return any(_collapses(part) for part in alpha.parts)
    return False


def rewrite_exact(alpha):
    """Whether the staged rewrite provably coincides with the one-shot analysis.

    The source-level rewrite composes stage by stage, so it can diverge from
    the one-shot abstracted analysis (which only sees the final configuration
    meanings) whenever one confounding stage is applied on top of another:
    the inner stage's lub wrappers get joined again instead of re-decided.
    The exact fragment, which covers every shape the construction itself
    exercises: confounding stages (join, join(phi), fignore, single-feature
    fproj) never compose over a subtree that already confounds; and a product
    with a confounding side has at most one projection-only side (two
    transparent sides can otherwise double-analyze shared components when a
    confounding sibling keeps their copies apart).
    """
    if isinstance(alpha, (ab.Join, ab.JoinPhi, ab.FIgnore, ab.Proj)):
        return True
    if isinstance(alpha, ab.FProj):
        return len(alpha.features) == 1
    if isinstance(alpha, ab.Compose):
        if not rewrite_exact(alpha.outer) or not rewrite_exact(alpha.inner):
            return False
        return not (_collapses(alpha.outer) and _collapses(alpha.inner))
    if isinstance(alpha, ab.Product):
        sides = alpha.parts
        if not all(rewrite_exact(side) for side in sides):
            return False
        if any(_collapses(side) for side in sides):
            transparent = sum(1 for side in sides if not _collapses(side))
            return transparent <= 1
        return True
    return False


def gen_exact_abstraction(gen, space):
    """An abstraction from the fragment where commutation is exact."""
    for _ in range(50):
        alpha = gen_random_abstraction(gen, space)
        if rewrite_exact(alpha):
            return alpha
    return ab.Join()


def gen_store(gen, variables):
    rng = gen.rng
    carrier = gen.carrier()
    return Store.of(
        gen.lattice,
        {x: rng.choice(carrier) for x in variables},
        default=TOP,
    )


def gen_lifted(gen, configs, variables):
    return LiftedStore(configs, tuple(gen_store(gen, variables) for _ in range(len(configs))))


def _program_variables(gen, program):
    variables = lang.program_vars(program)
    return variables if variables else [VAR_NAMES[0]]


# ---------------------------------------------------------------------------
# The brute-force oracle for the lifted analysis


def brute_force_lifted(program, store):
    """Per-variant preprocessing plus single-program analysis, component-wise.

    This is the defining property of lifting and the independent oracle the
    lifted engine is checked against.
    """
    valuations = store.configs.valuations  # built on read
    if valuations is None:
        raise SemanticError("the brute-force oracle needs concrete configurations")
    out = tuple(
        analyze_single(lang.preprocess(program, config), component)
        for config, component in zip(valuations, store.stores)
    )
    return store.with_stores(out)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class PropertyReport:
    name: str
    cases: int = 0
    failures: list = field(default_factory=list)  # (case index, message)

    @property
    def passed(self):
        return not self.failures

    def fail(self, index, message):
        self.failures.append((index, message))

    def summary(self):
        status = "pass" if self.passed else "FAIL"
        line = f"{self.name}: {status} ({self.cases} cases"
        if self.failures:
            line += f", {len(self.failures)} failures"
        return line + ")"


@dataclass
class Report:
    properties: list

    @property
    def passed(self):
        return all(p.passed for p in self.properties)

    def render_text(self):
        lines = [p.summary() for p in self.properties]
        for p in self.properties:
            for index, message in p.failures:
                lines.append(f"  {p.name}[{index}]: {message}")
        lines.append("all properties passed" if self.passed else "PROPERTY FAILURES")
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps(
            {
                "passed": self.passed,
                "properties": [
                    {
                        "name": p.name,
                        "cases": p.cases,
                        "failures": [
                            {"case": index, "message": message}
                            for index, message in p.failures
                        ],
                    }
                    for p in self.properties
                ],
            },
            indent=2,
        )


# ---------------------------------------------------------------------------
# Shrinking


def _skip_variants(stmt):
    """All statements obtained by replacing one non-skip subtree with skip."""
    variants = []

    def go(node, rebuild):
        if not isinstance(node, lang.Skip):
            variants.append(rebuild(lang.Skip()))
        for i, kid in enumerate(lang.children(node)):
            kids = list(lang.children(node))

            def rebuild_kid(new, i=i, node=node, kids=kids, rebuild=rebuild):
                fresh = list(kids)
                fresh[i] = new
                return rebuild(lang.with_children(node, tuple(fresh)))

            go(kid, rebuild_kid)

    go(stmt, lambda s: s)
    return variants


def shrink_program(program, fails):
    """Greedy subtree-deletion shrink; the result still fails `fails`."""
    body = program.body
    improved = True
    while improved:
        improved = False
        for candidate in _skip_variants(body):
            shrunk = lang.Program(program.feature_model, lang.relabel(candidate))
            try:
                if fails(shrunk):
                    body = shrunk.body
                    improved = True
                    break
            except SemanticError:
                continue
    return lang.Program(program.feature_model, lang.relabel(body))


def _describe(program, alpha=None):
    text = lang.pretty(program).replace("\n", " ")
    if alpha is not None:
        text += f" | abs: {ab.render_abstraction(alpha)}"
    return text


# ---------------------------------------------------------------------------
# Property checks


def check_oracle_equiv(gen, cases=200):
    report = PropertyReport("oracle-equivalence")
    for i in range(cases):
        report.cases += 1
        program = gen_random_program(gen)
        configs = valid_configs(program.feature_model)
        store = gen_lifted(gen, configs, _program_variables(gen, program))

        def fails(p, store=store):
            return analyze_lifted(p.body, store) != brute_force_lifted(p, store)

        if fails(program):
            small = shrink_program(program, fails)
            report.fail(i, f"lifted != brute force on {_describe(small)}")
    return report


def _galois_case(gen, alpha, configs, variables, report, index, gamma_fn=None):
    lattice = gen.lattice
    gamma = gamma_fn or (lambda d: ab.gamma_apply(alpha, configs, d, lattice))
    meanings = ab.meaning_configs(alpha, configs.space, configs)

    def alpha_of(store):
        return ab.alpha_over(meanings, configs, store, lattice)

    a_bar = gen_lifted(gen, configs, variables)
    d_bar = gen_lifted(gen, meanings, variables)
    lhs = alpha_of(a_bar).leq(d_bar)
    rhs = a_bar.leq(gamma(d_bar))
    if lhs != rhs:
        report.fail(index, f"adjunction broken for {ab.render_abstraction(alpha)}")
        return
    if not a_bar.leq(gamma(alpha_of(a_bar))):
        report.fail(index, f"gamma.alpha not extensive for {ab.render_abstraction(alpha)}")
        return
    if not alpha_of(gamma(d_bar)).leq(d_bar):
        report.fail(index, f"alpha.gamma not reductive for {ab.render_abstraction(alpha)}")
        return
    family = [gen_lifted(gen, configs, variables) for _ in range(gen.rng.randint(0, 4))]
    joined = LiftedStore.bot(configs, lattice)
    for member in family:
        joined = joined.join(member)
    right = LiftedStore.bot(meanings, lattice)
    for member in family:
        right = right.join(alpha_of(member))
    if alpha_of(joined) != right:
        report.fail(index, f"alpha is not a finite join morphism for {ab.render_abstraction(alpha)}")


def check_galois(gen, cases=200, alpha=None, configs=None, gamma_fn=None):
    """Galois laws on random or fixed abstraction instances."""
    report = PropertyReport("galois-laws")
    for i in range(cases):
        report.cases += 1
        if alpha is None:
            program = gen_random_program(gen)
            case_configs = valid_configs(program.feature_model)
            case_alpha = gen_random_abstraction(gen, program.feature_model.space)
            variables = VAR_NAMES[: gen.max_vars]
        else:
            case_alpha, case_configs = alpha, configs
            variables = VAR_NAMES[: gen.max_vars]
        _galois_case(gen, case_alpha, case_configs, variables, report, i, gamma_fn)
    return report


def check_fignore_expansion(gen, cases=200):
    report = PropertyReport("fignore-expansion")
    for i in range(cases):
        report.cases += 1
        program = gen_random_program(gen)
        configs = valid_configs(program.feature_model)
        if not len(configs):  # the expansion is a nonempty product
            continue
        feature = gen.rng.choice(program.feature_model.space.features)
        store = gen_lifted(gen, configs, VAR_NAMES[: gen.max_vars])
        direct = ab.alpha_apply(ab.FIgnore(feature), configs, store, gen.lattice)
        expanded = ab.alpha_apply(
            ab.fignore_expand(feature, configs), configs, store, gen.lattice
        )
        if direct.stores != expanded.stores:
            report.fail(i, f"stores differ ignoring {feature} over {len(configs)} configs")
            continue
        if len(direct.configs) != len(expanded.configs) or not all(
            featexp.equiv(a, b)
            for a, b in zip(direct.configs.formulas, expanded.configs.formulas)
        ):
            report.fail(i, f"configs differ ignoring {feature}")
    return report


def check_soundness(gen, cases=200):
    report = PropertyReport("soundness")
    for i in range(cases):
        report.cases += 1
        program = gen_random_program(gen)
        configs = valid_configs(program.feature_model)
        alpha = gen_random_abstraction(gen, program.feature_model.space)
        meanings = ab.meaning_configs(alpha, configs.space, configs)
        variables = _program_variables(gen, program)
        d_bar = gen_lifted(gen, meanings, variables)
        # gamma reads neither the program nor the generator: one call serves
        # the sandwich, its shrink candidates and the expression check
        concrete = ab.gamma_apply(alpha, configs, d_bar, gen.lattice)

        def fails(p, d_bar=d_bar, concrete=concrete, configs=configs, meanings=meanings):
            lifted_out = analyze_lifted(p.body, concrete)
            lhs = ab.alpha_over(meanings, configs, lifted_out, gen.lattice)
            return not lhs.leq(analyze_abstracted(p.body, d_bar))

        if fails(program):
            small = shrink_program(program, fails)
            report.fail(i, f"soundness sandwich broken: {_describe(small, alpha)}")
            continue
        # expression soundness through one-variable stores
        expr = gen_expr(gen)
        values = tuple(eval_expr(expr, s) for s in concrete.stores)
        wrapped = LiftedStore(
            configs, tuple(Store.of(gen.lattice, {"_": v}) for v in values)
        )
        abstracted_vals = analyze_expr_lifted(expr, d_bar)
        alpha_vals = ab.alpha_over(meanings, configs, wrapped, gen.lattice)
        for left, right in zip(
            (s.get("_") for s in alpha_vals.stores), abstracted_vals
        ):
            if not gen.lattice.leq(left, right):
                report.fail(i, f"expression soundness broken on {lang.pretty_expr(expr)}")
                break
    return report


def check_monotonicity(gen, cases=200):
    report = PropertyReport("monotonicity")
    for i in range(cases):
        report.cases += 1
        program = gen_random_program(gen)
        configs = valid_configs(program.feature_model)
        alpha = gen_random_abstraction(gen, program.feature_model.space)
        meanings = ab.meaning_configs(alpha, configs.space, configs)
        variables = _program_variables(gen, program)
        low = gen_lifted(gen, configs, variables)
        high = low.join(gen_lifted(gen, configs, variables))
        if not analyze_lifted(program.body, low).leq(analyze_lifted(program.body, high)):
            report.fail(i, f"lifted analysis not monotone on {_describe(program)}")
            continue
        low_d = gen_lifted(gen, meanings, variables)
        high_d = low_d.join(gen_lifted(gen, meanings, variables))
        if not analyze_abstracted(program.body, low_d).leq(
            analyze_abstracted(program.body, high_d)
        ):
            report.fail(i, f"abstracted analysis not monotone on {_describe(program, alpha)}")
            continue
        expr = gen_expr(gen)
        left = analyze_expr_lifted(expr, low)
        right = analyze_expr_lifted(expr, high)
        if not all(gen.lattice.leq(a, b) for a, b in zip(left, right)):
            report.fail(i, f"expression analysis not monotone on {lang.pretty_expr(expr)}")
    return report


def match_renamed_configs(abstracted_info, rewritten_configs):
    """Positions of the rewritten program's configs within the abstract set.

    Rewritten configurations are total valuations of the abstract feature
    space, so each corresponds to exactly one named abstract configuration;
    this realizes the paper's match-by-renamed-equivalence deterministically.
    """
    valuations = abstracted_info.configs.valuations  # built on read
    position = {}
    for i, config in enumerate(valuations):
        position.setdefault(frozenset(config.as_dict().items()), i)
    try:
        mapping = [
            position[frozenset(config.as_dict().items())]
            for config in rewritten_configs.valuations
        ]
    except KeyError:
        raise SemanticError("rewritten configuration has no abstract counterpart") from None
    if len(set(mapping)) != len(valuations):
        raise SemanticError("rewritten configurations do not cover the abstract set")
    return mapping


def check_commutation(gen, cases=200):
    report = PropertyReport("commutation")
    for i in range(cases):
        report.cases += 1
        program = gen_random_program(gen)
        configs = valid_configs(program.feature_model)
        alpha = gen_exact_abstraction(gen, program.feature_model.space)
        applied = ab.apply(alpha, configs)
        d_bar = gen_lifted(gen, applied[0], _program_variables(gen, program))

        # shrinking keeps the feature model, so the rewritten model and its
        # match to the abstract set serve every candidate
        def fails(p, rewritten=None):
            if rewritten is None:
                rewritten = rewrite_program(p, applied)
            got = analyze_lifted(rewritten.body, entry).stores
            want = analyze_abstracted(p.body, d_bar).stores
            return any(got[pos] != want[j] for pos, j in enumerate(mapping))

        try:
            rewritten = rewrite_program(program, applied)
            k_new = valid_configs(rewritten.feature_model)
            mapping = match_renamed_configs(ab.named_view(applied[0]), k_new)
            entry = LiftedStore(k_new, tuple(map(d_bar.stores.__getitem__, mapping)))
            failed = fails(program, rewritten)
        except SemanticError as exc:
            report.fail(i, f"configuration mismatch: {exc} on {_describe(program, alpha)}")
            continue
        if failed:
            small = shrink_program(program, fails)
            report.fail(i, f"commutation broken: {_describe(small, alpha)}")
    return report


def check_dataflow(gen, cases=200):
    report = PropertyReport("dataflow-soundness")
    for i in range(cases):
        report.cases += 1
        program = gen_random_program(gen)
        configs = valid_configs(program.feature_model)
        alpha = gen_random_abstraction(gen, program.feature_model.space)
        meanings = ab.meaning_configs(alpha, configs.space, configs)
        entry = gen_lifted(gen, meanings, _program_variables(gen, program))
        system = build_dataflow(program.body, meanings, gen.lattice)
        solution = solve_dataflow(system, entry)
        ok = True
        for label, stmt in system.statements.items():
            in_store, out_store = solution[label]
            if not analyze_abstracted(stmt, in_store).leq(out_store):
                report.fail(i, f"solver unsound at label {label}: {_describe(program, alpha)}")
                ok = False
                break
        if not ok:
            continue
        loop_free = not any(
            isinstance(s, lang.While) for s in system.statements.values()
        )
        if loop_free:
            root_out = solution[program.body.label][1]
            if root_out != analyze_abstracted(program.body, entry):
                report.fail(i, f"loop-free solution not exact: {_describe(program, alpha)}")
    return report


CHECKS = {
    "oracle-equivalence": check_oracle_equiv,
    "galois-laws": check_galois,
    "fignore-expansion": check_fignore_expansion,
    "soundness": check_soundness,
    "monotonicity": check_monotonicity,
    "commutation": check_commutation,
    "dataflow-soundness": check_dataflow,
}


def check_all(seed, cases=200, lattice=CONST):
    """Run every property; each property gets its own deterministic stream.

    Property k of CHECKS is seeded seed + k and runs in share k mod W, where
    W is min(len(CHECKS), usable CPUs). Share 0 runs in this process and each
    other share in one forked child, which pipes its reports back pickled.
    Without os.fork, or with a second live thread (forking a threaded process
    can deadlock), W is 1 and every property runs here. The report is the
    same for every W: an exception is re-raised from the lowest offset that
    raised, and a child that ends without a result raises SemanticError.
    Every child is reaped, and killed first on the way out of an error,
    before the call returns or raises.
    """
    checks = list(CHECKS.items())  # read per call, so entries a caller wraps run
    workers = _workers(len(checks))
    shares = [range(w, len(checks), workers) for w in range(workers)]

    def run(share):
        """(offset, report) per property of share, then the (offset,
        exception) that stopped it, or None."""
        done = []
        for k in share:
            try:
                done.append((k, checks[k][1](CaseGen(seed + k, lattice=lattice), cases)))
            except Exception as exc:
                return done, (k, exc)
        return done, None

    children = []  # (pid, read end of its pipe, share)
    try:
        for share in shares[1:]:
            children.append((*_fork(run, share), share))
        outcomes = [run(shares[0])]
        for _, pipe, share in children:
            outcomes.append(_collect(pipe, [checks[k][0] for k in share]))
    except BaseException:
        import signal

        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.waitpid(pid, 0)
    raised = [stop for _, stop in outcomes if stop is not None]
    if raised:
        raise min(raised, key=lambda stop: stop[0])[1]
    reports = sorted(pair for done, _ in outcomes for pair in done)
    return Report([report for _, report in reports])


def _workers(count):
    """How many shares check_all runs its count properties in."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    return max(1, min(count, usable))


def _fork(run, share):
    """Start one child running share; its pid and the read end of its pipe."""
    import pickle

    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    try:  # the child: whatever happens, it never returns into the caller
        os.close(read)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(run(share)))
    finally:
        os._exit(0)


def _collect(pipe, names):
    """A child's outcome, read to the end of its pipe."""
    import pickle

    try:
        return pickle.loads(pipe.read())
    except (EOFError, pickle.UnpicklingError):  # no result, or one cut short
        raise SemanticError(
            f"the worker for {', '.join(names)} ended without a result"
        ) from None


def check_instance(program, alpha, seed=0, cases=50, lattice=CONST):
    """Targeted soundness and commutation on one program and abstraction.

    The family's configurations are enumerated once and alpha applied once;
    that one set indexes every case's abstract store and alpha, and with its
    rewrite gives the rewritten family and its match to the abstract set.
    """
    gen = CaseGen(seed, lattice=lattice)
    configs = valid_configs(program.feature_model)
    applied = ab.apply(alpha, configs)
    meanings = applied[0]
    variables = lang.program_vars(program) or [VAR_NAMES[0]]
    sound = PropertyReport("soundness")
    commute = PropertyReport("commutation")
    rewritten = rewrite_program(program, applied)
    k_new = valid_configs(rewritten.feature_model)
    mapping = match_renamed_configs(ab.named_view(meanings), k_new)
    for i in range(cases):
        sound.cases += 1
        commute.cases += 1
        d_bar = gen_lifted(gen, meanings, variables)
        concrete = ab.gamma_apply(alpha, configs, d_bar, lattice)
        lhs = ab.alpha_over(meanings, configs, analyze_lifted(program.body, concrete), lattice)
        rhs = analyze_abstracted(program.body, d_bar)
        if not lhs.leq(rhs):
            sound.fail(i, "soundness sandwich broken")
        entry = LiftedStore(k_new, tuple(map(d_bar.stores.__getitem__, mapping)))
        got, want = analyze_lifted(rewritten.body, entry).stores, rhs.stores
        if any(got[pos] != want[j] for pos, j in enumerate(mapping)):
            commute.fail(i, "commutation broken")
    return Report([sound, commute])
