"""The liftcal command-line interface."""

import errno
import io
import json
import os
import subprocess
import sys

import pytest

import liftcal
from liftcal import cli, lang
from liftcal import featexp as fx
from liftcal.lattice import CONST_PLUS, parse_value

from conftest import CHAIN_SOURCE, S1_SOURCE, S2_SOURCE


@pytest.fixture
def s1_file(tmp_path):
    path = tmp_path / "s1.imp"
    path.write_text(S1_SOURCE)
    return str(path)


@pytest.fixture
def s2_file(tmp_path):
    path = tmp_path / "s2.imp"
    path.write_text(S2_SOURCE)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_lifted_rows(capsys, s1_file):
    code, out, _ = run(capsys, "analyze", s1_file)
    assert code == 0
    assert out.splitlines() == ["A&B: x=1", "A&!B: x=1", "!A&B: x=1"]


def test_analyze_abstracted_single_row(capsys, s2_file):
    code, out, _ = run(capsys, "analyze", s2_file, "--abs", "proj(A) >> join")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].endswith("x=top")


def test_analyze_constplus_sign(capsys, s2_file):
    code, out, _ = run(
        capsys, "analyze", s2_file, "--abs", "proj(A) >> join", "--lattice", "constplus"
    )
    assert code == 0
    assert out.splitlines()[0].endswith("x=>=0")


def test_analyze_json_round_trips(capsys, s2_file):
    code, out, _ = run(capsys, "analyze", s2_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"configs", "results", "renames"}
    assert payload["configs"] == ["A&B", "A&!B", "!A&B"]
    for row in payload["results"]:
        for literal in row["store"].values():
            parse_value(literal, CONST_PLUS)
    assert [row["store"]["x"] for row in payload["results"]] == ["0", "1", "-1"]


def test_analyze_dataflow(capsys, s1_file):
    code, out, _ = run(capsys, "analyze", s1_file, "--dataflow", "--abs", "join")
    assert code == 0
    assert "label 0" in out
    assert "out" in out


def test_analyze_dataflow_json(capsys, s1_file):
    code, out, _ = run(
        capsys, "analyze", s1_file, "--dataflow", "--abs", "join", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    root = payload["labels"]["0"]
    assert root["statement"] == "seq"
    assert root["out"]["results"][0]["store"]["x"] == "top"


def test_analyze_init_bot(capsys, tmp_path):
    path = tmp_path / "p.imp"
    path.write_text("features A; model true; begin x := x + 1 end")
    code, out, _ = run(capsys, "analyze", str(path), "--init", "bot")
    assert code == 0
    assert out.splitlines() == ["A: x=bot", "!A: x=bot"]  # bot is strict under +
    code, out, _ = run(capsys, "analyze", str(path))
    assert out.splitlines() == ["A: x=top", "!A: x=top"]


def test_reconfigure_golden(capsys, tmp_path, s1_file):
    source = tmp_path / "s1p.imp"
    source.write_text(
        "features A, B; model A | B;\nbegin #if (A) { x := x + 1 }; #if (B) { x := 1 } end\n"
    )
    out_file = tmp_path / "out.imp"
    renames_file = tmp_path / "renames.txt"
    code, _, _ = run(
        capsys,
        "reconfigure",
        str(source),
        "--abs",
        "proj(A) >> join",
        "-o",
        str(out_file),
        "--renames",
        str(renames_file),
    )
    assert code == 0
    text = out_file.read_text()
    assert "#if (Z1) { x := x + 1 }" in text
    assert "#if (Z1) { if (0) { x := 1 } else { skip } }" in text
    assert renames_file.read_text().startswith("Z1 = ")


def test_reconfigure_proj_true_identity(capsys, s1_file):
    code, out, _ = run(capsys, "reconfigure", s1_file, "--abs", "proj(true)")
    assert code == 0
    assert out == lang.pretty(lang.parse_program(S1_SOURCE))


def test_cli_commutation(capsys, tmp_path, s2_file):
    """analyze --abs equals reconfigure-then-analyze, matched via the sidecar."""
    code, direct_out, _ = run(capsys, "analyze", s2_file, "--abs", "(proj(A) >> join) || proj(B)")
    assert code == 0
    out_file = tmp_path / "rew.imp"
    renames_file = tmp_path / "renames.txt"
    run(
        capsys,
        "reconfigure",
        s2_file,
        "--abs",
        "(proj(A) >> join) || proj(B)",
        "-o",
        str(out_file),
        "--renames",
        str(renames_file),
    )
    code, rewritten_out, _ = run(capsys, "analyze", str(out_file))
    assert code == 0
    renames = {}
    for line in renames_file.read_text().splitlines():
        name, _, meaning = line.partition(" = ")
        renames[name] = lambda text=meaning: fx.parse_featexp(text)
    direct_rows = {}
    for line in direct_out.splitlines():
        formula, _, cells = line.partition(": ")
        direct_rows[fx.parse_featexp(formula)] = cells
    rewritten = lang.parse_program(out_file.read_text())
    original_space = lang.parse_program(S2_SOURCE).feature_model.space
    configs = fx.valid_configs(rewritten.feature_model)
    matched = set()
    for line, config in zip(rewritten_out.splitlines(), configs.valuations):
        _, _, cells = line.partition(": ")
        on = {name for name, value in config.as_dict().items() if value}
        meaning = fx.named_meaning(on, renames, original_space)
        for phi, expected in direct_rows.items():
            if phi not in matched and fx.equiv(meaning, phi):
                assert cells == expected
                matched.add(phi)
                break
        else:
            pytest.fail(f"no abstract row matching {line!r}")
    assert len(matched) == len(direct_rows)


def test_check_small_run(capsys):
    code, out, _ = run(capsys, "check", "--cases", "20", "--seed", "7")
    assert code == 0
    assert "all properties passed" in out


def test_check_single_instance(capsys, s1_file):
    code, out, _ = run(capsys, "check", s1_file, "--abs", "join", "--cases", "10")
    assert code == 0
    assert "commutation: pass" in out


def test_check_negative_cases_is_a_usage_error(capsys):
    code, out, err = run(capsys, "check", "--cases", "-3")
    assert (code, out) == (1, "")
    assert err == "error: --cases must be at least 0, not -3\n"
    code, out, _ = run(capsys, "check", "--cases", "0")
    assert code == 0
    assert "oracle-equivalence: pass (0 cases)" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--cases", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


GAP_SOURCE = (
    "features A, B; model B;\n"
    "begin #if (B) { #if (B & B) { skip }; if (0) { skip } else { skip; x := x + 1 } } end"
)


def test_check_failure_exits_3(capsys, tmp_path):
    # a stacked collapse, where the rewrite is coarser than the one-shot
    # analysis (see the notes on the exact fragment): the targeted check
    # reports the mismatch and exits 3
    path = tmp_path / "gap.imp"
    path.write_text(GAP_SOURCE)
    code, out, _ = run(
        capsys, "check", str(path),
        "--abs", "(proj(A) || join) >> join",
        "--cases", "20", "--lattice", "constplus",
    )
    assert code == 3
    assert "commutation: FAIL" in out


def test_check_flat_product_with_two_projections_commutes(capsys, tmp_path):
    # the flat product rewrites all three sides at once: the two projection
    # sides share one #if per body, so the body runs once per configuration
    path = tmp_path / "gap.imp"
    path.write_text(GAP_SOURCE)
    code, out, _ = run(
        capsys, "check", str(path),
        "--abs", "(proj(B) || join) || proj(true)",
        "--cases", "20", "--lattice", "constplus",
    )
    assert code == 0
    assert "commutation: pass" in out


def test_malformed_abstraction_exits_1(capsys, s1_file):
    code, _, err = run(capsys, "analyze", s1_file, "--abs", "join(((")
    assert code == 1
    assert "error" in err


def test_missing_file_exits_1(capsys):
    code, _, _ = run(capsys, "analyze", "/nonexistent.imp")
    assert code == 1


def test_undeclared_feature_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.imp"
    bad.write_text("features A; model true; begin #if (B) { skip } end")
    code, _, _ = run(capsys, "analyze", str(bad))
    assert code == 1


def test_bench_is_a_usage_error(capsys):
    # timing lives in perfbench/, not in the command line
    code, out, err = run(capsys, "bench", "--features", "2")
    assert (code, out) == (1, "")
    assert "invalid choice: 'bench'" in err


def test_semantic_error_exits_2(capsys, s1_file):
    # --simplify needs a single remaining configuration; proj(A) keeps two
    code, _, err = run(capsys, "reconfigure", s1_file, "--abs", "proj(A)", "--simplify")
    assert code == 2
    assert "simplify" in err


def test_deep_program_exits_2_without_traceback(capsys, tmp_path):
    # the parser still recurses once per nesting level
    deep = tmp_path / "deep.imp"
    body = "#if (A) { " * 1500 + "x := x + 1" + " }" * 1500
    deep.write_text(f"features A; model true; begin {body} end")
    code, _, err = run(capsys, "analyze", str(deep))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_deep_program_gets_a_dataflow_answer(capsys, tmp_path):
    deep = tmp_path / "deep.imp"
    body = "; ".join(["x := 0"] + ["x := x + 1"] * 2999)
    deep.write_text(f"features A; model true; begin {body} end")
    code, out, err = run(capsys, "analyze", str(deep), "--dataflow")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "label 0 (seq)"
    assert lines[-2:] == ["  out A: x=2999", "  out !A: x=2999"]
    # the compositional analysis walks a chain's spine in a loop too
    assert run(capsys, "analyze", str(deep)) == (0, "A: x=2999\n!A: x=2999\n", "")
    assert run(capsys, "analyze", str(deep), "--abs", "join") == (0, "true: x=2999\n", "")


def test_long_conjunctive_model_gets_an_abstracted_answer(capsys, tmp_path):
    # 5,000 clauses parse as a left-deep chain of `&`, which the join's name
    # renders and the rewrite masks; the cyclic implications leave two
    # configurations, all features on or all off
    clauses = " & ".join(f"(!A{k % 20 + 1} | A{(k + 1) % 20 + 1})" for k in range(5000))
    features = ", ".join(f"A{i}" for i in range(1, 21))
    family = tmp_path / "clauses.imp"
    family.write_text(f"features {features};\nmodel {clauses};\n"
                      "begin x := 0; #if (A1) { x := x + 1 } end")
    code, out, err = run(capsys, "analyze", str(family), "--abs", "join")
    assert (code, err) == (0, "")
    assert out == clauses.replace(" ", "") + ": x=top\n"
    code, out, err = run(capsys, "reconfigure", str(family), "--abs", "join")
    assert (code, err) == (0, f"Z1 = {clauses}\n")
    assert "#if (Z1) { if (0) { x := x + 1 } else { skip } }" in out


def test_deeply_nested_if_answers_or_exits_2(capsys, tmp_path):
    deep = tmp_path / "nested.imp"
    depth = 10_000
    body = "if (x) { " * depth + "skip" + " } else { skip }" * depth
    deep.write_text(f"features A; model true; begin {body} end")
    code, _, err = run(capsys, "analyze", str(deep))
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err == "error: input nests too deeply to process\n"


def test_repeated_squaring_widens_to_top(capsys, tmp_path):
    family = tmp_path / "square.imp"
    body = "; ".join(["x := 2"] + ["x := x * x"] * 14)
    family.write_text(f"features A; model true; begin {body} end")
    code, out, err = run(capsys, "analyze", str(family))
    assert (code, err) == (0, "")
    assert out.splitlines() == ["A: x=top", "!A: x=top"]


def test_unreadable_integer_literal_exits_1(capsys, tmp_path):
    family = tmp_path / "long.imp"
    family.write_text(f"features A; model true; begin x := {'7' * 5000} end")
    code, out, err = run(capsys, "analyze", str(family))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_join_of_wide_projection_product_renders(capsys, tmp_path):
    # the join's label is the product's meaning hint, which must nest shallowly
    names = ["A1", "A2", "A3", "A4"]
    body = "; ".join(["x := 0"] + [f"#if ({name}) {{ x := x + 1 }}" for name in names])
    family = tmp_path / "chain4.imp"
    family.write_text(f"features {', '.join(names)}; model true; begin {body} end")
    sides = " || ".join(["proj(A1) || proj(!A1)"] * 550)
    spec = f"({sides}) >> join"
    code, out, err = run(capsys, "analyze", str(family), "--abs", spec)
    assert (code, err) == (0, "")
    assert out.endswith(": x=top\n") and len(out.splitlines()) == 1
    code, out, err = run(capsys, "reconfigure", str(family), "--abs", spec)
    assert code == 0
    assert err.startswith("Z1 = ") and len(err.splitlines()) == 1


def module_env():
    src = os.path.dirname(os.path.dirname(liftcal.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "liftcal", *argv], capture_output=True, text=True,
        env=module_env(),
    )


def test_python_m_liftcal_runs_the_cli():
    shown = run_module("--help")
    assert shown.returncode == cli.EXIT_OK
    assert "analyze" in shown.stdout
    unknown = run_module("frobnicate")
    assert unknown.returncode == cli.EXIT_USAGE
    assert "error:" in unknown.stderr


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_quietly(monkeypatch, capsys, s1_file):
    read, write = os.pipe()
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(write))
        assert cli.main(["analyze", s1_file]) == cli.EXIT_PIPE
        # the descriptor now writes to devnull, so a flush at exit raises nothing
        assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
    finally:
        os.close(read)
        os.close(write)
    assert capsys.readouterr().err == ""


def test_closed_pipe_gives_no_traceback(tmp_path):
    # 2,048 rows overflow the pipe's buffer, so the reader's close is seen
    path = tmp_path / "chain.imp"
    path.write_text(CHAIN_SOURCE)
    proc = subprocess.Popen(
        [sys.executable, "-m", "liftcal", "analyze", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(60) == cli.EXIT_PIPE
    assert first.endswith(b": x=11\n")
    assert err == b""
