"""One pass of a workload: the timed requests and their reference checks.

Each request is timed from outside with `time.perf_counter`, around public
functions of liftcal's modules, and every step also runs inside a span of the
pass's tracer (a no-op when tracing is off).  The reference checks run after
the request's clock has stopped:

    count rows       x equals the number of enabled features, per configuration
    brute rows       analyze_lifted equals oracle.brute_force_lifted
    abstracted rows  the reference lifted store is below gamma(abstracted)
    dataflow         the root's out store is above the compositional result,
                     and equal to it on loop-free programs
    reconfigure      commutation through oracle.match_renamed_configs,
                     wherever oracle.rewrite_exact(alpha) holds
    check            the report passed

An operation is one step of a request, i.e. one call of a public function.
A step that raises fails, and so does every later step of its request, which
it blocks.  An output that does not match its reference fails one operation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from types import SimpleNamespace

from liftcal import abstraction as ab
from liftcal import featexp, lang, oracle
from liftcal.abstracted import analyze_abstracted, build_dataflow, solve_dataflow
from liftcal.errors import SemanticError
from liftcal.lattice import LiftedStore, Store, intval, lattice_by_name
from liftcal.lifted import analyze_lifted, entry_store
from liftcal.reconfig import reconfigure

E2E = ("analyze_s", "dataflow_s", "reconfigure_s", "check_s")

PROPERTIES = tuple(oracle.CHECKS)

# Every span a pass can record; the traced run reports all of them, so a
# workload that does not reach a layer reports 0 for it.
SPANS = (
    "op.analyze",
    "op.dataflow",
    "op.reconfigure",
    "op.check",
    "lang.parse_program",
    "featexp.valid_configs",
    "lifted.entry_store",
    "abstraction.parse_abstraction",
    "abstraction.alpha_apply",
    "lifted.analyze_lifted",
    "abstracted.analyze_abstracted",
    "abstraction.gamma_apply",
    "abstracted.build_dataflow",
    "abstracted.solve_dataflow",
    "reconfig.reconfigure",
    "lang.pretty",
    "featexp.valid_configs_rewritten",
    "lifted.analyze_lifted_rewritten",
    "oracle.check_instance",
    "oracle.check_all",
) + tuple(f"oracle.{name}" for name in PROPERTIES)

COUNTS = (
    "lang.parse_program.labels",
    "featexp.valid_configs.configs",
    "featexp.valid_configs_rewritten.configs",
    "lifted.analyze_lifted.configs",
    "lifted.analyze_lifted.distinct_stores",
    "abstraction.alpha_apply.components",
    "abstracted.analyze_abstracted.components",
    "abstracted.analyze_abstracted.distinct_stores",
    "abstracted.solve_dataflow.labels",
    "reconfig.reconfigure.fresh_features",
    "reconfig.reconfigure.labels_out",
    "reconfig.reconfigure.failed",
    "oracle.check_all.failures",
) + tuple(f"oracle.{name}.cases" for name in PROPERTIES)

# distinct stores per configuration or component: useful outcomes per unit
RATIOS = {
    "lifted.analyze_lifted.distinct_ratio": (
        "lifted.analyze_lifted.distinct_stores",
        "lifted.analyze_lifted.configs",
    ),
    "abstracted.analyze_abstracted.distinct_ratio": (
        "abstracted.analyze_abstracted.distinct_stores",
        "abstracted.analyze_abstracted.components",
    ),
}


class Tally:
    """Operations attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors = {}  # "op: Error: message" -> occurrences

    def error(self, where, exc):
        key = f"{where}: {type(exc).__name__}: {exc}"
        self.errors[key] = self.errors.get(key, 0) + 1

    def mismatch(self, what):
        self.failed += 1
        self.mismatches += 1
        self.errors[what] = self.errors.get(what, 0) + 1


class _Steps:
    """Runs the steps of one request, each in its own span, counting those done."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.done = 0
        self.current = None

    def __call__(self, name, fn, *args, **kwargs):
        self.current = name
        with self.tracer.span(name):
            out = fn(*args, **kwargs)
        self.done += 1
        return out


@contextmanager
def _property_spans(tracer):
    """Spans around each property of oracle.check_all while tracing.

    check_all looks its properties up in oracle.CHECKS at call time, so
    wrapping the entries (and restoring them afterwards) times each one from
    outside without changing its order or seed.
    """
    if not tracer.enabled:
        yield
        return
    saved = dict(oracle.CHECKS)

    def wrap(name, check):
        def run(gen, cases):
            with tracer.span(f"oracle.{name}"):
                return check(gen, cases)

        return run

    try:
        for name, check in saved.items():
            oracle.CHECKS[name] = wrap(name, check)
        yield
    finally:
        oracle.CHECKS.update(saved)


class Pass:
    """The requests of one pass over a workload, timed per end-to-end metric."""

    def __init__(self, workload, tracer, tally, refs, speed):
        self.workload = workload
        self.tracer = tracer
        self.tally = tally
        self.refs = refs  # reference results, reused across passes
        self.speed = speed
        self.times = dict.fromkeys(E2E, 0.0)

    def _request(self, metric, op, planned, body):
        steps = _Steps(self.tracer)
        start = time.perf_counter()
        try:
            with self.tracer.span(op):
                out = body(steps)
        except Exception as exc:  # a failing request is counted, the run goes on
            out = None
            self.tally.failed += planned - steps.done
            self.tally.error(steps.current, exc)
            if steps.current == "reconfig.reconfigure":
                self.tracer.count("reconfig.reconfigure.failed", 1)
        self.times[metric] += time.perf_counter() - start
        self.tally.attempted += planned
        self.speed.maybe_sample()
        return out

    def run(self):
        for row in self.workload.rows:
            lattice = lattice_by_name(row.lattice)
            analyzed = self._request(
                "analyze_s",
                "op.analyze",
                7 if row.spec else 4,
                lambda steps: self._analyze(steps, row, lattice),
            )
            if analyzed is None:
                # the row's later requests need its analysis, so they fail too
                blocked = 2 * row.dataflow + 5 * row.reconfigure
                self.tally.attempted += blocked
                self.tally.failed += blocked
                continue
            self._check_analyze(row, lattice, analyzed)
            if row.dataflow:
                solution = self._request(
                    "dataflow_s",
                    "op.dataflow",
                    2,
                    lambda steps: self._dataflow(steps, analyzed, lattice),
                )
                if solution is not None:
                    self._check_dataflow(row, analyzed, solution)
            if row.reconfigure:
                rewritten = self._request(
                    "reconfigure_s",
                    "op.reconfigure",
                    5,
                    lambda steps: self._reconfigure(steps, analyzed, lattice),
                )
                if rewritten is not None:
                    self._check_commutation(row, analyzed, rewritten)
        check = self.workload.check
        report = self._request(
            "check_s",
            "op.check",
            3 if check.kind == "instance" else 1,
            lambda steps: self._check(steps, check),
        )
        if report is not None and not report.passed:
            self.tally.mismatch(f"op.check: report failed: {report.render_text()}")
        return self.times

    # -- requests ----------------------------------------------------------

    def _analyze(self, steps, row, lattice):
        count = self.tracer.count
        program = steps("lang.parse_program", lang.parse_program, row.text)
        configs = steps("featexp.valid_configs", featexp.valid_configs, program.feature_model)
        entry = steps("lifted.entry_store", entry_store, configs, lattice)
        out = SimpleNamespace(program=program, configs=configs, alpha=None, entry=entry)
        if self.tracer.enabled:
            count("lang.parse_program.labels", len(lang.labels_of(program.body)))
            count("featexp.valid_configs.configs", len(configs))
        if row.spec is None:
            out.result = steps("lifted.analyze_lifted", analyze_lifted, program.body, entry)
            out.gamma = None
            count("lifted.analyze_lifted.configs", len(out.result))
            if self.tracer.enabled:
                count("lifted.analyze_lifted.distinct_stores", len(set(out.result.stores)))
            return out
        space = program.feature_model.space
        out.alpha = steps("abstraction.parse_abstraction", ab.parse_abstraction, row.spec, space)
        out.entry = steps(
            "abstraction.alpha_apply", ab.alpha_apply, out.alpha, configs, entry, lattice
        )
        out.result = steps(
            "abstracted.analyze_abstracted", analyze_abstracted, program.body, out.entry
        )
        out.gamma = steps(
            "abstraction.gamma_apply", ab.gamma_apply, out.alpha, configs, out.result, lattice
        )
        count("abstraction.alpha_apply.components", len(out.entry))
        count("abstracted.analyze_abstracted.components", len(out.result))
        if self.tracer.enabled:
            count("abstracted.analyze_abstracted.distinct_stores", len(set(out.result.stores)))
        return out

    def _dataflow(self, steps, analyzed, lattice):
        system = steps(
            "abstracted.build_dataflow",
            build_dataflow,
            analyzed.program.body,
            configs=analyzed.entry.configs,
            lattice=lattice,
        )
        solution = steps("abstracted.solve_dataflow", solve_dataflow, system, analyzed.entry)
        self.tracer.count("abstracted.solve_dataflow.labels", len(solution))
        return solution

    def _reconfigure(self, steps, analyzed, lattice):
        program, renames = steps(
            "reconfig.reconfigure", reconfigure, analyzed.program, analyzed.alpha
        )
        steps("lang.pretty", lang.pretty, program)
        configs = steps(
            "featexp.valid_configs_rewritten", featexp.valid_configs, program.feature_model
        )
        entry = steps("lifted.entry_store", entry_store, configs, lattice)
        result = steps("lifted.analyze_lifted_rewritten", analyze_lifted, program.body, entry)
        if self.tracer.enabled:
            self.tracer.count("reconfig.reconfigure.fresh_features", len(renames))
            self.tracer.count("reconfig.reconfigure.labels_out", len(lang.labels_of(program.body)))
            self.tracer.count("featexp.valid_configs_rewritten.configs", len(configs))
        return SimpleNamespace(program=program, configs=configs, entry=entry, result=result)

    def _check(self, steps, check):
        if check.kind == "all":
            with _property_spans(self.tracer):
                report = steps("oracle.check_all", oracle.check_all, check.seed, cases=check.cases)
            if self.tracer.enabled:
                for prop in report.properties:
                    self.tracer.count(f"oracle.{prop.name}.cases", prop.cases)
                    self.tracer.count("oracle.check_all.failures", len(prop.failures))
            return report
        program = steps("lang.parse_program", lang.parse_program, check.text)
        alpha = steps(
            "abstraction.parse_abstraction",
            ab.parse_abstraction,
            check.spec,
            program.feature_model.space,
        )
        return steps(
            "oracle.check_instance",
            oracle.check_instance,
            program,
            alpha,
            seed=check.seed,
            cases=check.cases,
        )

    # -- reference checks --------------------------------------------------

    def _reference(self, row, lattice, analyzed):
        """The per-configuration result the lifted analysis must produce."""
        key = ("lifted", row.text, row.lattice)
        if key not in self.refs:
            configs = analyzed.configs
            if row.reference == "count":
                stores = tuple(
                    Store.of(lattice, {"x": intval(sum(config.values))})
                    for config in configs.valuations
                )
                self.refs[key] = LiftedStore(configs, stores)
            else:
                plain = entry_store(configs, lattice)
                self.refs[key] = oracle.brute_force_lifted(analyzed.program, plain)
        return self.refs[key]

    def _check_analyze(self, row, lattice, analyzed):
        reference = self._reference(row, lattice, analyzed)
        if analyzed.alpha is None:
            if analyzed.result != reference:
                self.tally.mismatch(f"analyze_lifted != reference ({row.lattice})")
        elif not reference.leq(analyzed.gamma):
            self.tally.mismatch(f"lifted not below gamma(abstracted) for {row.spec}")

    def _check_dataflow(self, row, analyzed, solution):
        root_out = solution[analyzed.program.body.label][1]
        if not analyzed.result.leq(root_out):
            self.tally.mismatch(f"dataflow root below compositional for {row.spec}")
            return
        key = ("loop_free", row.text)
        if key not in self.refs:
            self.refs[key] = not any(
                isinstance(stmt, lang.While)
                for stmt in lang.labels_of(analyzed.program.body).values()
            )
        if self.refs[key] and root_out != analyzed.result:
            self.tally.mismatch(f"loop-free dataflow root != compositional for {row.spec}")

    def _check_commutation(self, row, analyzed, rewritten):
        if not oracle.rewrite_exact(analyzed.alpha):
            return
        key = ("abstract_configs", row.text, row.spec)
        if key not in self.refs:
            space = analyzed.program.feature_model.space
            self.refs[key] = ab.abstract_configs(analyzed.alpha, space, analyzed.configs)
        try:
            mapping = oracle.match_renamed_configs(self.refs[key], rewritten.configs)
        except SemanticError as exc:
            self.tally.mismatch(f"commutation: {exc} for {row.spec}")
            return
        # the rewritten family starts from top; where alpha's entry is not top
        # (a join over no configuration is bottom), rerun from alpha's entry
        entry = tuple(analyzed.entry.stores[j] for j in mapping)
        via = rewritten.result.stores
        if entry != rewritten.entry.stores:
            start = LiftedStore(rewritten.configs, entry)
            via = analyze_lifted(rewritten.program.body, start).stores
        direct = analyzed.result.stores
        if any(via[pos] != direct[j] for pos, j in enumerate(mapping)):
            self.tally.mismatch(f"commutation broken for {row.spec}")
