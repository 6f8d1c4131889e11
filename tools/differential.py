"""Fingerprint liftcal's outputs, to compare two checkouts case by case.

    python tools/differential.py OUT.json          # write the fingerprints
    python tools/differential.py --diff OLD NEW    # list the keys that differ
    python tools/differential.py --check GOLDEN    # recompute, list the keys that differ

Imports the `src/` of the checkout this file sits in.  Writes one sha256 per
case, 7,551 in all:

- 2,400 generated cases (oracle.CaseGen seeds 1-3, 400 cases each, under
  `const` and `constplus`, max_features=4, max_abs_depth=4): the generator's
  program and abstraction and random entry stores over the valid
  configurations and over the abstraction's meaning view.  Hashed are the
  stores of analyze_lifted, analyze_abstracted, alpha_apply and gamma_apply,
  every label's data-flow in and out stores on both entries,
  abstract_configs (space, named formulas, hint, meanings, renames) and
  reconfigure's pretty-printed program and renames.  A case that raises a
  liftcal error hashes the error instead.
- the same 2,400 cases, one more key each: the results of the `==` and
  `leq` relations between their lifted stores, through the public API
  only.  They are analyze_lifted against brute_force_lifted; the data-flow
  root out against the compositional result on both entries; the entry
  store against gamma(alpha(entry)) and alpha(gamma(entry)) against the
  abstract entry; the lifted result against gamma of the abstracted
  analysis of alpha(entry); and join and meet of the entry with the lifted
  result.  A relation that raises hashes the error instead.
- the same 2,400 cases, and the two loop families under
  `proj(A1) || join(!A1)` on both lattices, one more key each:
  analyze_lifted from top on the reconfigured family, or the error that
  reconfiguring or analyzing it raises.
- `liftcal analyze` (text and json, with and without --dataflow, both
  lattices) and `liftcal reconfigure` on the running examples S1 and S2, the
  11-feature chain, the 6-feature chain under fignore and fproj, and two
  loop families: exit code, stdout and stderr.
- `liftcal check` (text and json, --seed 1, both lattices, 200 cases per
  property) and `liftcal check FILE --abs` (both lattices, --seed 1, 20
  cases) on S1 and S2 under join and a projection-join split, the
  11-feature chain under join and the split, the 6-feature chain under
  fignore(A1) and a loop family under the split: exit code, stdout and
  stderr.
- each oracle.CHECKS property at 100 cases on its own stream (seed 1 plus
  its position, as check_all seeds it), both lattices: the report text and
  the generator's random state after the run, which changes with any change
  to the order or number of draws.
- valid_configs of rewritten families: the 6-, 7- and 8-feature chains and
  nested families (`#if (Ak) { #if (A1 | Ak) { x := x + 1 } }` for k = 2..n)
  reconfigured under fignore(A1) and fproj(A1, A2): the rewritten feature
  space and every valuation, in order.
- every label's data-flow in and out stores on the two loop families and
  on 28 seeded nests of `while`, `#if` and `if` statements (4 at each
  depth from 2 to 8, over x, y and z, built here with `lang`
  constructors, model `A1 | A2` over four features), both lattices, from
  seeded entry stores (oracle.CaseGen seed 20) over the valid
  configurations and over the meaning view of `proj(A1) || join(!A1)`:
  one key per program and lattice.  The nests re-enter inner loops with
  grown and with unchanged inputs, which the generated cases rarely do.
- `Store.leq`, `join`, `meet` and `set` on a fixed seeded corpus of stores
  (random.Random seed 16, 400 pairs per lattice, up to four variables, values
  and defaults drawn from the lattice's carrier) over `const` and
  `constplus`: the repr of each result, or the error it raises, one key per
  lattice and operation.
- `featexp.sat`, `entails` and `equiv` on a fixed seeded corpus of 400
  formulas over up to 12 features (oracle.CaseGen seed 12, gen_featexp at
  depth 6): each formula's satisfiability, its entailment both ways with the
  next formula of the corpus, and its equivalence with that formula and with
  an absorption of it; the answer or the error, one key per kind of query.
- the tokens of every program text and abstraction spec above, as
  (kind, text, line, column), and the ParseError (type, message, line, column) of
  parse_program, parse_abstraction or parse_featexp on a fixed corpus of
  malformed inputs.

`--diff` and `--check` exit 1 when a key differs or is missing on one side.
The committed `tests/golden/fingerprints.json` holds every key;
`fast_hashes` recomputes the quick families and a slice of the case keys,
which tier-1 compares with it.  A change that alters an output regenerates
that file, so its diff shows which keys changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from liftcal import abstraction as ab  # noqa: E402
from liftcal import cli, featexp, lang, lexer, oracle  # noqa: E402
from liftcal.abstracted import analyze_abstracted, build_dataflow, solve_dataflow  # noqa: E402
from liftcal.errors import LiftcalError, ParseError  # noqa: E402
from liftcal.lattice import (  # noqa: E402
    BOT, CONST, CONST_PLUS, GEQ0, LEQ0, TOP, LiftedStore, Store, intval
)
from liftcal.lifted import analyze_lifted  # noqa: E402
from liftcal.reconfig import reconfigure  # noqa: E402
from perfbench.workloads import SPLIT, chain_text, loops_text  # noqa: E402

SEEDS = (1, 2, 3)
CASES = 400
LATTICES = {"const": CONST, "constplus": CONST_PLUS}

S1 = """features A, B;
model A | B;
begin
  x := 0; #if (A) { x := x + 1 }; #if (B) { x := 1 }
end
"""
S2 = S1.replace("#if (B) { x := 1 }", "#if (B) { x := x - 1 }")

# family name -> (program text, abstraction specs; None is the lifted analysis)
FAMILIES = {
    "S1": (S1, [None, "join", "proj(A) >> join", "proj(B) || join(!B)", "fignore(A)",
                "join(!A & !B)"]),
    "S2": (S2, [None, "join", "proj(B) >> join", "fignore(B)", "fproj(A, B)"]),
    "chain11": (chain_text(11), [None, "join", SPLIT]),
    "fignore6": (chain_text(6), [None, "fignore(A1)", "fproj(A1, A2)"]),
    "loops1": (loops_text(1), [None, SPLIT]),
    "loops2": (loops_text(2), [None, SPLIT]),
}


def nested_text(n):
    """x := 0 followed by `#if (Ak) { #if (A1 | Ak) { x := x + 1 } }` for k = 2..n."""
    names = [f"A{i}" for i in range(1, n + 1)]
    body = ["x := 0"] + [
        f"#if (A{k}) {{ #if (A1 | A{k}) {{ x := x + 1 }} }}" for k in range(2, n + 1)
    ]
    return f"features {', '.join(names)};\nmodel true;\nbegin\n  " + "; ".join(body) + "\nend\n"


# liftcal check FILE --abs: family name -> (program text, abstraction specs)
CHECK_FAMILIES = {
    "S1": (S1, ["join", "proj(A) || join(!A)"]),
    "S2": (S2, ["join", "proj(B) || join(!B)"]),
    "chain11": (chain_text(11), ["join", SPLIT]),
    "fignore6": (chain_text(6), ["fignore(A1)"]),
    "loops1": (loops_text(1), [SPLIT]),
}
CHECK_CASES = "20"
PROPERTY_CASES = 100

# rewritten families whose valid_configs are fingerprinted: name -> (text of n, sizes n)
REWRITTEN = {"chain": (chain_text, (6, 7, 8)), "nested": (nested_text, (6, 7, 8))}
REWRITES = ("fignore(A1)", "fproj(A1, A2)")

# malformed inputs: name -> (parser, text); programs declare A and B
_HEAD = "features A, B; model A | B;\nbegin\n  "
MALFORMED = {
    "unexpected character": ("program", _HEAD + "x := 1 $ end"),
    "superscript digit": ("program", _HEAD + "x := \u00b2 end"),
    "truncated #if": ("program", _HEAD + "#i (A) { skip } end"),
    "trailing input": ("program", _HEAD + "skip end end"),
    "5000-digit literal": ("program", _HEAD + "x := " + "7" * 5000 + " end"),
    "unclosed brace": ("program", _HEAD + "#if (A) { x := 1 end"),
    "unclosed paren": ("program", _HEAD + "x := (1 + 2 end"),
    "missing operand": ("program", _HEAD + "x := 1 < end"),
    "missing else": ("program", _HEAD + "if (x) { skip } end"),
    "assignment with =": ("program", _HEAD + "x = 1 end"),
    "undeclared feature": ("program", _HEAD + "#if (C) { skip } end"),
    "numeral not a digit": ("program", _HEAD + "x \u00bd:= 1 end"),
    "missing comma": ("program", "features A B; model true; begin skip end"),
    "empty text": ("program", ""),
    "unknown abstraction": ("abstraction", "foo"),
    "unclosed proj": ("abstraction", "proj(A"),
    "dangling product": ("abstraction", "join ||"),
    "undeclared fignore": ("abstraction", "fignore(C)"),
    "trailing abstraction": ("abstraction", "join(A) join"),
    "dangling and": ("featexp", "A & "),
    "double or": ("featexp", "A | | B"),
    "trailing feature": ("featexp", "A B"),
    "non-ASCII letter": ("featexp", "A \u00e9"),
}


def _stores(lifted):
    return repr(lifted.stores)


def _relation(holds):
    """repr of holds(), or the liftcal error it raises."""
    try:
        return repr(holds())
    except LiftcalError as exc:
        return f"{type(exc).__name__}: {exc}"


def _rewritten_stores(program, lattice):
    """analyze_lifted from top on a rewritten family, or the liftcal error it raises."""
    try:
        configs = featexp.valid_configs(program.feature_model)
        return _stores(analyze_lifted(program.body, LiftedStore.top(configs, lattice)))
    except LiftcalError as exc:
        return f"{type(exc).__name__}: {exc}"


def _case_parts(gen):
    """The outputs of one generated case, as strings, in a fixed order, the
    results of the == and leq relations its stores allow, and the analysis
    of its reconfigured family."""
    program = oracle.gen_random_program(gen)
    space = program.feature_model.space
    alpha = oracle.gen_random_abstraction(gen, space)
    parts = [lang.pretty(program), ab.render_abstraction(alpha)]
    configs = featexp.valid_configs(program.feature_model)
    meanings = ab.meaning_configs(alpha, space, configs)
    variables = lang.program_vars(program) or [oracle.VAR_NAMES[0]]
    a_bar = oracle.gen_lifted(gen, configs, variables)
    d_bar = oracle.gen_lifted(gen, meanings, variables)
    lattice = gen.lattice
    parts.append(repr(meanings.covers))
    a_out = analyze_lifted(program.body, a_bar)
    d_out = analyze_abstracted(program.body, d_bar)
    parts.append(_stores(a_out))
    parts.append(_stores(d_out))
    relations = [_relation(lambda: a_out == oracle.brute_force_lifted(program, a_bar))]
    for entry, result in ((a_bar, a_out), (d_bar, d_out)):
        system = build_dataflow(program.body, configs=entry.configs, lattice=lattice)
        solution = solve_dataflow(system, entry)
        for label, (inp, out) in sorted(solution.items()):
            parts.append(f"{label}: {_stores(inp)} {_stores(out)}")
        root_out = solution[program.body.label][1]
        relations.append(_relation(lambda: root_out == result))
        relations.append(_relation(lambda: result.leq(root_out)))
    alpha_a = ab.alpha_apply(alpha, configs, a_bar, lattice)
    gamma_d = ab.gamma_apply(alpha, configs, d_bar, lattice)
    parts.append(_stores(alpha_a))
    parts.append(_stores(gamma_d))
    gamma_alpha_a = ab.gamma_apply(alpha, configs, alpha_a, lattice)
    alpha_gamma_d = ab.alpha_apply(alpha, configs, gamma_d, lattice)
    relations += [
        _relation(lambda: a_bar.leq(gamma_alpha_a)),
        _relation(lambda: a_bar == gamma_alpha_a),
        _relation(lambda: alpha_gamma_d.leq(d_bar)),
        _relation(lambda: alpha_gamma_d == d_bar),
        _relation(lambda: a_out.leq(ab.gamma_apply(
            alpha, configs, analyze_abstracted(program.body, alpha_a), lattice))),
        _relation(lambda: a_bar.leq(a_bar.join(a_out))),
        _relation(lambda: a_bar.meet(a_out).leq(a_out)),
        _relation(lambda: a_bar.join(a_out) == a_out.join(a_bar)),
        _relation(lambda: a_bar.meet(a_out) == a_bar),
    ]
    info = ab.abstract_configs(alpha, space, configs)
    parts.append(repr(info.space.features))
    parts.append(repr([featexp.render(f) for f in info.configs.formulas]))
    hint = info.configs.hint
    parts.append("None" if hint is None else featexp.render(hint))
    parts.append(repr([featexp.render(f) for f in info.meanings]))
    parts.append(repr({name: featexp.render(f) for name, f in info.renames.items()}))
    try:
        rewritten, renames = reconfigure(program, alpha)
        parts.append(lang.pretty(rewritten))
        parts.append(repr({name: featexp.render(f) for name, f in renames.items()}))
        analyzed = [_rewritten_stores(rewritten, lattice)]
    except LiftcalError as exc:
        parts.append(f"reconfigure: {type(exc).__name__}: {exc}")
        analyzed = [parts[-1]]
    return parts, relations, analyzed


NEST_DEPTHS = range(2, 9)
NESTS_PER_DEPTH = 4
NEST_FAMILY = "features A1, A2, A3, A4;\nmodel A1 | A2;\nbegin\n  skip\nend\n"


def _nest(rng, depth, features):
    """A seeded nest of while, #if and if statements, depth deep, over x, y, z."""
    var = rng.choice("xyz")
    expr = lang.BinOp(rng.choice("+-*"), lang.Var(var), lang.Num(rng.randint(-1, 2)))
    step = lang.Assign(var, expr)
    if depth == 0:
        return step
    body = _nest(rng, depth - 1, features)
    cond = lang.BinOp("<", lang.Var(rng.choice("xyz")), lang.Num(rng.randint(0, 4)))
    kind = rng.choice(("while", "while", "#if", "if"))
    if kind == "while":
        return lang.While(cond, lang.Seq(*((step, body) if rng.random() < 0.5 else (body, step))))
    if kind == "#if":
        theta = featexp.Atom(rng.choice(features))
        return lang.IfDef(featexp.Not(theta) if rng.random() < 0.4 else theta, lang.Seq(body, step))
    return lang.If(cond, body, step)


def nest_hashes():
    """Every label's data-flow in and out on the loop families and on seeded
    nests, from seeded entry stores over the valid configurations and over
    the split's meaning view."""
    programs = {name: lang.parse_program(FAMILIES[name][0]) for name in ("loops1", "loops2")}
    family = lang.parse_program(NEST_FAMILY)
    rng = random.Random(20)
    for depth in NEST_DEPTHS:
        for i in range(NESTS_PER_DEPTH):
            body = lang.relabel(_nest(rng, depth, family.feature_model.space.features))
            programs[f"depth{depth}/{i}"] = lang.Program(family.feature_model, body)
    out = {}
    for name, lattice in LATTICES.items():
        gen = oracle.CaseGen(20, lattice=lattice)
        for key, program in programs.items():
            space = program.feature_model.space
            configs = featexp.valid_configs(program.feature_model)
            meanings = ab.meaning_configs(ab.parse_abstraction(SPLIT, space), space, configs)
            rows = []
            for entry_configs in (configs, meanings):
                entry = oracle.gen_lifted(gen, entry_configs, lang.program_vars(program))
                system = build_dataflow(program.body, configs=entry_configs, lattice=lattice)
                solution = solve_dataflow(system, entry)
                rows += [f"{label}: {_stores(i)} {_stores(o)}"
                         for label, (i, o) in sorted(solution.items())]
            out[f"loop nest {key} {name}"] = _digest(rows)
    return out


def _digest(rows):
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def case_hashes(cases=CASES):
    """The case, relations and rewritten keys of the first `cases` cases of every stream."""
    out = {}
    for seed in SEEDS:
        for name, lattice in LATTICES.items():
            gen = oracle.CaseGen(seed, max_features=4, max_abs_depth=4, lattice=lattice)
            for i in range(cases):
                try:
                    parts, relations, analyzed = _case_parts(gen)
                except LiftcalError as exc:
                    parts = relations = analyzed = [f"{type(exc).__name__}: {exc}"]
                out[f"case {seed}/{name}/{i}"] = _digest(parts)
                out[f"relations {seed}/{name}/{i}"] = _digest(relations)
                out[f"rewritten {seed}/{name}/{i}"] = _digest(analyzed)
    return out


def rewritten_hashes():
    """analyze_lifted from top on the loop families reconfigured under the split."""
    out = {}
    for family in ("loops1", "loops2"):
        program = lang.parse_program(FAMILIES[family][0])
        rewritten, _ = reconfigure(program, ab.parse_abstraction(SPLIT, program.feature_model.space))
        for name, lattice in LATTICES.items():
            out[f"rewritten {family} {name}"] = _digest([_rewritten_stores(rewritten, lattice)])
    return out


def enum_hashes():
    out = {}
    for family, (text_of, sizes) in REWRITTEN.items():
        for n in sizes:
            program = lang.parse_program(text_of(n))
            for spec in REWRITES:
                try:
                    alpha = ab.parse_abstraction(spec, program.feature_model.space)
                    rewritten, _ = reconfigure(program, alpha)
                    configs = featexp.valid_configs(rewritten.feature_model)
                    rows = [" ".join(rewritten.feature_model.space.features)]
                    rows += ["".join("1" if bit else "0" for bit in v.values)
                             for v in configs.valuations]
                except LiftcalError as exc:
                    rows = [f"{type(exc).__name__}: {exc}"]
                digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
                out[f"valid_configs {family}{n} {spec}"] = digest
    return out


STORE_PAIRS = 400
STORE_CARRIERS = {
    "const": [BOT, TOP] + [intval(n) for n in range(-2, 3)],
    "constplus": [BOT, TOP, LEQ0, GEQ0] + [intval(n) for n in range(-2, 3)],
}


def store_hashes():
    out = {}
    for name, lattice in LATTICES.items():
        rng = random.Random(16)
        carrier = STORE_CARRIERS[name]

        def store():
            names = rng.sample("wxyz", rng.randint(0, 4))
            default = rng.choice(carrier)
            return Store.of(lattice, {x: rng.choice(carrier) for x in names}, default)

        rows = {"leq": [], "join": [], "meet": [], "set": []}
        for _ in range(STORE_PAIRS):
            a, b = store(), store()
            var, value = rng.choice("vwxyz"), rng.choice(carrier)
            rows["leq"].append(_relation(lambda: a.leq(b)))
            rows["join"].append(_relation(lambda: a.join(b)))
            rows["meet"].append(_relation(lambda: a.meet(b)))
            rows["set"].append(_relation(lambda: a.set(var, value)))
        for op, op_rows in rows.items():
            out[f"stores {name} {op}"] = _digest(op_rows)
    return out


DECIDE_FORMULAS = 400


def decide_hashes():
    """sat, entails and equiv answers over a seeded corpus of formulas."""
    space = featexp.FeatureSpace(tuple(f"F{i}" for i in range(12)))
    gen = oracle.CaseGen(12)
    formulas = [oracle.gen_featexp(gen, space, depth=6) for _ in range(DECIDE_FORMULAS)]
    rows = {"sat": [], "entails": [], "equiv": []}
    for phi, theta in zip(formulas, formulas[1:] + formulas[:1]):
        absorbed = featexp.Or(phi, featexp.And(phi, theta))  # equivalent to phi
        rows["sat"].append(_relation(lambda: featexp.sat(phi)))
        rows["entails"].append(_relation(lambda: featexp.entails(phi, theta)))
        rows["entails"].append(_relation(lambda: featexp.entails(theta, phi)))
        rows["equiv"].append(_relation(lambda: featexp.equiv(phi, theta)))
        rows["equiv"].append(_relation(lambda: featexp.equiv(phi, absorbed)))
    return {f"decide {op}": _digest(op_rows) for op, op_rows in rows.items()}


def _run_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    text = f"{code}\n{stdout.getvalue()}\n--stderr--\n{stderr.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


def cli_hashes():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for family, (text, specs) in FAMILIES.items():
            path = Path(tmp) / f"{family}.imp"
            path.write_text(text, encoding="utf-8")
            for spec in specs:
                abs_args = [] if spec is None else ["--abs", spec]
                for lattice in LATTICES:
                    for fmt in ("text", "json"):
                        for dataflow in ([], ["--dataflow"]):
                            argv = ["analyze", str(path), *abs_args, "--lattice", lattice,
                                    "--format", fmt, *dataflow]
                            out[" ".join([family, *argv[2:]])] = _run_cli(argv)
                if spec is not None:
                    argv = ["reconfigure", str(path), *abs_args]
                    out[" ".join([family, *argv[:1], *argv[2:]])] = _run_cli(argv)
    return out


def check_hashes():
    out = {}
    for lattice in LATTICES:
        for fmt in ("text", "json"):
            argv = ["check", "--seed", "1", "--lattice", lattice, "--format", fmt]
            out[" ".join(argv)] = _run_cli(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for family, (text, specs) in CHECK_FAMILIES.items():
            path = Path(tmp) / f"{family}.imp"
            path.write_text(text, encoding="utf-8")
            for spec in specs:
                for lattice in LATTICES:
                    argv = ["check", str(path), "--abs", spec, "--seed", "1",
                            "--cases", CHECK_CASES, "--lattice", lattice]
                    out[" ".join([family, *argv[:1], *argv[2:]])] = _run_cli(argv)
    return out


def property_hashes():
    out = {}
    for name, lattice in LATTICES.items():
        for offset, (prop, check) in enumerate(oracle.CHECKS.items()):
            gen = oracle.CaseGen(1 + offset, lattice=lattice)
            text = oracle.Report([check(gen, PROPERTY_CASES)]).render_text()
            text += repr(gen.rng.getstate())
            out[f"property {prop} {name}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def _token_rows(text):
    """(kind, text, line, column) of every token.  Tokens are (kind, text,
    offset) tuples; checkouts before the one-pattern scanner return Token
    objects that carry line and column."""
    rows = []
    for tok in lexer.tokenize(text):
        if isinstance(tok, tuple):
            kind, word, offset = tok
            rows.append((kind, word, *lexer.position(text, offset)))
        else:
            rows.append((tok.kind, tok.text, tok.line, tok.col))
    return rows


def parse_hashes():
    out = {}
    texts = {}
    for family, (text, specs) in [*FAMILIES.items(), *CHECK_FAMILIES.items()]:
        texts[f"program {family}"] = text
        for spec in specs:
            if spec is not None:
                texts[f"spec {spec}"] = spec
    for family, (text_of, sizes) in REWRITTEN.items():
        for n in sizes:
            texts[f"program {family}{n}"] = text_of(n)
    for spec in REWRITES:
        texts[f"spec {spec}"] = spec
    for name, text in texts.items():
        digest = hashlib.sha256(repr(_token_rows(text)).encode()).hexdigest()
        out[f"tokens {name}"] = digest
    space = featexp.FeatureSpace(("A", "B"))
    parsers = {
        "program": lang.parse_program,
        "abstraction": lambda text: ab.parse_abstraction(text, space),
        "featexp": lambda text: featexp.parse_featexp(text, space),
    }
    for name, (parser, text) in MALFORMED.items():
        try:
            parsers[parser](text)
            result = "parsed"
        except ParseError as exc:
            result = repr((type(exc).__name__, str(exc), exc.line, exc.col))
        out[f"parse error {name}"] = hashlib.sha256(result.encode()).hexdigest()
    return out


def all_hashes():
    return {
        **case_hashes(), **cli_hashes(), **enum_hashes(), **check_hashes(), **property_hashes(),
        **parse_hashes(), **store_hashes(), **decide_hashes(), **nest_hashes(),
        **rewritten_hashes(),
    }


FAST_CASES = 40


def fast_hashes():
    """The families that take about a second each, and the first FAST_CASES
    cases of every case stream: 868 keys in about 5 s."""
    return {
        **parse_hashes(), **store_hashes(), **decide_hashes(), **nest_hashes(),
        **property_hashes(), **enum_hashes(), **rewritten_hashes(), **case_hashes(FAST_CASES),
    }


def diff(old, new):
    """Print the keys whose fingerprints differ, or that one side lacks."""
    keys = [key for key in old if old[key] != new.get(key)]
    keys += [key for key in new if key not in old]
    for key in keys:
        print(key)
    print(f"{len(keys)} of {len(set(old) | set(new))} keys differ", file=sys.stderr)
    return 1 if keys else 0


def _load(path):
    return json.loads(Path(path).read_text())


def main(argv):
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(_load(argv[1]), _load(argv[2]))
    if len(argv) == 2 and argv[0] == "--check":
        return diff(_load(argv[1]), all_hashes())
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    hashes = all_hashes()
    Path(argv[0]).write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"{len(hashes)} fingerprints written to {argv[0]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
