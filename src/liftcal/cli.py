"""Command-line frontend: analyze, reconfigure, check.

Exit codes: 0 success, 1 usage or parse error, 2 semantic error (also input
nested too deeply to process, or a check worker that ended without a
result), 3 property-check failure, 141 the reader of standard output closed
it early (as a shell reports a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import abstraction as ab
from . import featexp, lang, oracle
from .abstracted import build_dataflow, solve_dataflow
from .errors import LiftcalError, ParseError, SemanticError
from .featexp import FeatureModel, FeatureSpace, valid_configs
from .lattice import lattice_by_name, render_value
from .lifted import analyze_lifted, entry_store
from .reconfig import reconfigure, render_renames

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SEMANTIC = 2
EXIT_PROPERTY = 3
EXIT_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    def __init__(self, message):
        self.message = message
        super().__init__(message)


def _load_program(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return lang.parse_program(text)


def _rows(labels, stores, variables):
    return [
        f"{label}: " + ", ".join(f"{x}={render_value(store.get(x))}" for x in variables)
        for label, store in zip(labels, stores)
    ]


def _result_json(labels, stores, variables, renames):
    return {
        "configs": labels,
        "results": [
            {"config": label, "store": {x: render_value(store.get(x)) for x in variables}}
            for label, store in zip(labels, stores)
        ],
        "renames": renames,
    }


def cmd_analyze(args):
    program = _load_program(args.file)
    lattice = lattice_by_name(args.lattice)
    configs = valid_configs(program.feature_model)
    variables = lang.program_vars(program)
    entry = entry_store(configs, lattice, args.init)
    if args.abs:
        alpha = ab.parse_abstraction(args.abs, program.feature_model.space)
        entry = ab.alpha_apply(alpha, configs, entry, lattice)
    # every result below is indexed by entry's configuration set: render it once
    labels = [featexp.render(phi, compact=True) for phi in entry.configs.formulas]
    renames = {
        name: featexp.render(meaning(), compact=True)
        for name, meaning in entry.configs.renames.items()
        if args.format == "json"
    }
    if args.dataflow:
        system = build_dataflow(program.body, configs=entry.configs, lattice=lattice)
        solution = solve_dataflow(system, entry)
        if args.format == "json":
            payload = {
                "labels": {
                    str(label): {
                        "statement": type(system.statements[label]).__name__.lower(),
                        "in": _result_json(labels, inp.stores, variables, renames),
                        "out": _result_json(labels, out.stores, variables, renames),
                    }
                    for label, (inp, out) in sorted(solution.items())
                }
            }
            print(json.dumps(payload, indent=2))
        else:
            for label in sorted(solution):
                inp, out = solution[label]
                kind = type(system.statements[label]).__name__.lower()
                print(f"label {label} ({kind})")
                for row in _rows(labels, inp.stores, variables):
                    print(f"  in  {row}")
                for row in _rows(labels, out.stores, variables):
                    print(f"  out {row}")
        return EXIT_OK
    # one engine: on an abstract entry (--abs) this is the abstracted analysis
    result = analyze_lifted(program.body, entry)
    if args.format == "json":
        print(json.dumps(_result_json(labels, result.stores, variables, renames), indent=2))
    else:
        for row in _rows(labels, result.stores, variables):
            print(row)
    return EXIT_OK


def cmd_reconfigure(args):
    program = _load_program(args.file)
    alpha = ab.parse_abstraction(args.abs, program.feature_model.space)
    rewritten, renames = reconfigure(program, alpha, simplify=args.simplify)
    text = lang.pretty(rewritten)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    if args.renames:
        with open(args.renames, "w", encoding="utf-8") as handle:
            handle.write(render_renames(renames))
    elif renames and not args.output:
        sys.stderr.write(render_renames(renames))
    return EXIT_OK


def cmd_check(args):
    if args.cases < 0:
        raise SystemExit2(f"--cases must be at least 0, not {args.cases}")
    lattice = lattice_by_name(args.lattice)
    if args.file:
        if not args.abs:
            raise SystemExit2("check on a program file requires --abs")
        program = _load_program(args.file)
        alpha = ab.parse_abstraction(args.abs, program.feature_model.space)
        report = oracle.check_instance(
            program, alpha, seed=args.seed, cases=args.cases, lattice=lattice
        )
    else:
        report = oracle.check_all(args.seed, cases=args.cases, lattice=lattice)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text(), end="")
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _bench_program(n):
    """`x := 0; #if (A1) { x := x + 1 }; ...` over n >= 1 free features, the
    family of the acceptance tests' timing criterion."""
    names = tuple(f"A{i}" for i in range(1, n + 1))
    stmts = [lang.Assign("x", lang.Num(0))]
    for name in names:
        stmts.append(
            lang.IfDef(
                featexp.Atom(name),
                lang.Assign("x", lang.BinOp("+", lang.Var("x"), lang.Num(1))),
            )
        )
    body = lang.relabel(lang.seq_all(stmts))
    return lang.Program(FeatureModel(FeatureSpace(names), featexp.TRUE), body)


def build_parser():
    parser = _Parser(prog="liftcal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the lifted or abstracted analysis")
    analyze.add_argument("file")
    analyze.add_argument("--abs", help="abstraction spec, e.g. 'proj(A) >> join'")
    analyze.add_argument("--lattice", choices=("const", "constplus"), default="const")
    analyze.add_argument("--init", choices=("top", "bot"), default="top")
    analyze.add_argument("--dataflow", action="store_true", help="solve per-label equations")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.set_defaults(func=cmd_analyze)

    reconf = sub.add_parser("reconfigure", help="rewrite a program under an abstraction")
    reconf.add_argument("file")
    reconf.add_argument("--abs", required=True)
    reconf.add_argument("--simplify", action="store_true")
    reconf.add_argument("-o", "--output")
    reconf.add_argument("--renames", help="write the fresh-name table to this file")
    reconf.set_defaults(func=cmd_reconfigure)

    check = sub.add_parser("check", help="run the property suites")
    check.add_argument("file", nargs="?")
    check.add_argument("--abs")
    check.add_argument("--cases", type=int, default=200)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--lattice", choices=("const", "constplus"), default="const")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Python's "Note on SIGPIPE": whatever output is still buffered goes
        # to devnull, so flushing it at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except SystemExit2 as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SemanticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except LiftcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except RecursionError:
        print("error: input nests too deeply to process", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
