"""The benchmark's workloads and the inputs each one builds from its seed.

A workload is a list of rows plus one check request.  A row is a program text,
an abstraction spec (None for the plain lifted analysis) and a lattice name,
and says which requests run on it:

    analyze      parse, valid_configs, entry store, [alpha, abstracted, gamma
                 | lifted]   -- `liftcal analyze [--abs]` plus gamma
    dataflow     build_dataflow + solve_dataflow on the analyze row's entry
                 -- `liftcal analyze --dataflow`
    reconfigure  reconfigure + pretty, then valid_configs and analyze_lifted
                 on the rewritten family
                 -- `liftcal reconfigure`, then `liftcal analyze` on its output

Every input is plain text, so each pass parses it again and rebuilds every
object that memoizes on itself, as a command-line user does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Sizes, chosen so that one pass takes a few seconds on one core.
CHAIN_FEATURES = 11  # 2048 configurations, N+1 distinct stores
FIGNORE_FEATURES = 6  # fignore keeps 32 components, fproj(A1, A2) 16
LOOPS_FEATURES = 8  # model A1 | A2: 192 configurations
LOOPS_BLOCKS = 4
SUITES_CASES = 300  # cases per property for oracle.check_all
SUITES_PROGRAMS = 500  # tiny generated families run through the requests
CHECK_CASES = 1  # cases for oracle.check_instance on the family workloads

SPLIT = "proj(A1) || join(!A1)"


@dataclass(frozen=True)
class Row:
    text: str
    spec: str | None
    lattice: str = "const"
    dataflow: bool = False
    reconfigure: bool = False
    reference: str = "brute"  # "count": x counts the enabled features


@dataclass(frozen=True)
class Check:
    kind: str  # "instance" (liftcal check FILE --abs) or "all" (liftcal check)
    seed: int
    cases: int
    text: str | None = None
    spec: str | None = None


@dataclass(frozen=True)
class Workload:
    rows: tuple
    check: Check


def chain_text(n):
    """x := 0 followed by one `#if (Ai) { x := x + 1 }` per feature; model true."""
    names = [f"A{i}" for i in range(1, n + 1)]
    body = ["x := 0"] + [f"#if ({name}) {{ x := x + 1 }}" for name in names]
    return (
        f"features {', '.join(names)};\nmodel true;\nbegin\n  "
        + "; ".join(body)
        + "\nend\n"
    )


def loops_text(seed):
    """A family of LOOPS_BLOCKS loop nests of one fixed shape, contents from seed.

    Each block resets its variables, so blocks iterate independently.  Only
    the constants and the features in the conditions are drawn; each `#if`
    keeps its form.  The conditions avoid A1 and A2, which the model and the
    split abstraction decide, so under proj(A1) || join(!A1) every `#if` is
    decided on the projected configurations and undecided on the joined
    component.  The rewritten family then has the same guards, up to
    renaming, for every seed, and so nearly the same cost.
    """
    rng = random.Random(seed)
    names = [f"A{i}" for i in range(1, LOOPS_FEATURES + 1)]
    free = names[2:]

    def fe(form):
        a, b = rng.sample(free, 2)
        return form.format(a=a, b=b)

    def k():
        return rng.randint(1, 3)

    def block():
        return (
            f"x := {k()}; y := {k()}; z := {k()}; w := {k()}; "
            f"while (x < {k() + 5}) {{ x := x + {k()}; "
            f"#if ({fe('{a} | {b}')}) {{ y := y + x; while (y < {k() + 5}) {{ y := y + {k()}; "
            f"#if ({fe('!{a}')}) {{ z := x + {k()} }} }} }}; "
            f"if (z < {k() + 2}) {{ #if ({fe('{a} & !{b}')}) {{ w := {k()} }} }} "
            f"else {{ w := y * {k()} }} }}"
        )

    return (
        f"features {', '.join(names)};\nmodel A1 | A2;\nbegin\n  "
        + ";\n  ".join(block() for _ in range(LOOPS_BLOCKS))
        + "\nend\n"
    )


def suites_rows(seed):
    """Tiny families (at most 3 features) with abstractions from liftcal's own
    case generator, restricted to the fragment where reconfiguration is exact.
    """
    from liftcal import abstraction, lang, oracle

    gen = oracle.CaseGen(seed)
    rows = []
    for _ in range(SUITES_PROGRAMS):
        program = oracle.gen_random_program(gen)
        alpha = oracle.gen_exact_abstraction(gen, program.feature_model.space)
        rows.append(
            Row(
                lang.pretty(program),
                abstraction.render_abstraction(alpha),
                dataflow=True,
                reconfigure=True,
            )
        )
    return tuple(rows)


def build(name, seed):
    """The inputs of a workload; the same seed gives the same inputs."""
    if name == "chain":
        text = chain_text(CHAIN_FEATURES)
        rows = (
            Row(text, None, reference="count"),
            Row(text, "join", dataflow=True, reconfigure=True, reference="count"),
            Row(text, SPLIT, dataflow=True, reconfigure=True, reference="count"),
        )
        return Workload(rows, Check("instance", seed, CHECK_CASES, text, "join"))
    if name == "fignore":
        text = chain_text(FIGNORE_FEATURES)
        rows = tuple(
            Row(text, spec, dataflow=True, reconfigure=True, reference="count")
            for spec in ("fignore(A1)", "fproj(A1, A2)")
        )
        # check_instance also tests commutation, which holds only where
        # rewrite_exact does: fignore(A1), not fproj over two features
        return Workload(rows, Check("instance", seed, CHECK_CASES, text, "fignore(A1)"))
    if name == "loops":
        text = loops_text(seed)
        rows = (
            Row(text, None, "const", dataflow=True),
            Row(text, SPLIT, "const", dataflow=True, reconfigure=True),
            Row(text, None, "constplus"),
            Row(text, SPLIT, "constplus", reconfigure=True),
        )
        return Workload(rows, Check("instance", seed, CHECK_CASES, text, SPLIT))
    if name == "suites":
        return Workload(suites_rows(seed), Check("all", seed, SUITES_CASES))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("chain", "fignore", "loops", "suites")
