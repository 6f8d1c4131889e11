"""Program parsing, labeling, pretty-printing, and variant derivation."""

import pytest

from liftcal import featexp as fx
from liftcal import lang
from liftcal.errors import ParseError, SemanticError, UndeclaredFeature

from conftest import S1_SOURCE


def labels_in_preorder(stmt):
    out = [stmt.label]
    for kid in lang.children(stmt):
        out.extend(labels_in_preorder(kid))
    return out


def test_parse_s1_structure(s1):
    body = s1.body
    assert isinstance(body, lang.Seq)
    assert isinstance(body.first, lang.Assign)
    assert body.first.var == "x"
    assert body.first.expr == lang.Num(0)
    rest = body.second
    assert isinstance(rest, lang.Seq)
    first_ifdef, second_ifdef = rest.first, rest.second
    assert isinstance(first_ifdef, lang.IfDef)
    assert first_ifdef.cond == fx.Atom("A")
    assert first_ifdef.body == lang.Assign(
        "x", lang.BinOp("+", lang.Var("x"), lang.Num(1)), label=first_ifdef.body.label
    )
    assert isinstance(second_ifdef, lang.IfDef)
    assert second_ifdef.cond == fx.Atom("B")


def test_parse_trivial_program():
    program = lang.parse_program("features A; model true; begin skip end")
    assert isinstance(program.body, lang.Skip)


def test_parse_undeclared_feature_in_ifdef():
    with pytest.raises(UndeclaredFeature):
        lang.parse_program("features A, B; model true; begin #if (C) { skip } end")


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        lang.parse_program("features A; model true;\nbegin x := end")
    assert exc.value.line == 2


@pytest.mark.parametrize("literal", ["7" * 5000, "\u00b2"], ids=["5000-digits", "superscript"])
def test_unreadable_integer_literal_is_a_parse_error(literal):
    # Python refuses to convert over 4300 digits, and the lexer's digits
    # include non-ASCII ones that int() rejects
    with pytest.raises(ParseError) as exc:
        lang.parse_program(f"features A; model true;\nbegin x := {literal} end")
    assert exc.value.line == 2


def test_labels_are_preorder_dense(s1):
    labels = labels_in_preorder(s1.body)
    assert labels == list(range(len(labels)))


def test_relabel_numbers_every_statement_kind_in_preorder():
    text = (
        "features A; model true; begin x := 0; while (x < 3) { x := x + 1; "
        "#if (A) { if (x) { skip } else { y := 1 } } }; skip end"
    )
    body = lang.parse_program(text).body
    mixed = lang.relabel(lang.lub(body, lang.Seq(lang.Skip(label=9), body, label=4)))
    labels = labels_in_preorder(mixed)
    assert labels == list(range(len(labels)))
    assert list(lang.labels_of(mixed)) == labels
    stripped = lang.strip_labels(mixed)
    assert set(labels_in_preorder(stripped)) == {-1}
    assert lang.strip_labels(lang.relabel(stripped)) == stripped


def test_long_chain_parses_with_dense_preorder_labels():
    # the statement parser loops over ';' and the label walkers keep explicit
    # stacks, so a chain this long parses at the default recursion limit
    n = 100_000
    body = lang.parse_program(
        "features A; model true; begin " + "; ".join(["x := 1"] * n) + " end"
    ).body
    node = body
    for i in range(n - 1):
        assert isinstance(node, lang.Seq) and node.label == 2 * i
        assert isinstance(node.first, lang.Assign) and node.first.label == 2 * i + 1
        node = node.second
    assert isinstance(node, lang.Assign) and node.label == 2 * n - 2
    assert len(lang.labels_of(body)) == 2 * n - 1
    assert lang.strip_labels(body).second.first.label == -1


def test_pretty_parse_round_trip(s1):
    text = lang.pretty(s1)
    reparsed = lang.parse_program(text)
    assert lang.strip_labels(reparsed.body) == lang.strip_labels(s1.body)
    assert lang.pretty(reparsed) == text  # fixed point after one normalization


def test_lub_prints_as_constant_if():
    lub = lang.lub(lang.Assign("x", lang.Num(1)), lang.Skip())
    assert lub == lang.If(lang.Num(0), lang.Assign("x", lang.Num(1)), lang.Skip())
    assert lang.pretty_stmt(lub) == "if (0) { x := 1 } else { skip }"
    assert lang.pretty_stmt(lang.Skip()) == "skip"


def test_unary_minus_desugars():
    program = lang.parse_program("features A; model true; begin x := -1 end")
    assert program.body.expr == lang.BinOp("-", lang.Num(0), lang.Num(1))


def test_expression_precedence():
    program = lang.parse_program("features A; model true; begin x := 1 + 2 * 3 < 9 end")
    expr = program.body.expr
    assert expr.op == "<"
    assert expr.left.op == "+"
    assert expr.left.right.op == "*"


def test_preprocess_s1_variants(s1, configs):
    by_formula = {fx.render(f): v for f, v in zip(configs.formulas, configs.valuations)}
    variant = lang.preprocess(s1, by_formula["A & !B"])
    # x := 0; x := x + 1; skip
    assert lang.pretty_stmt(variant) == "x := 0; x := x + 1; skip"
    variant = lang.preprocess(s1, by_formula["!A & B"])
    assert lang.pretty_stmt(variant) == "x := 0; skip; x := 1"


def test_preprocess_rejects_invalid_configuration(s1, space):
    invalid = fx.Config(space, (False, False))  # fails A | B
    with pytest.raises(SemanticError):
        lang.preprocess(s1, invalid)


def test_preprocess_never_leaves_ifdef(s1, configs):
    def has_ifdef(stmt):
        if isinstance(stmt, lang.IfDef):
            return True
        return any(has_ifdef(kid) for kid in lang.children(stmt))

    for config in configs.valuations:
        assert not has_ifdef(lang.preprocess(s1, config))


def test_program_vars(s1):
    assert lang.program_vars(s1) == ["x"]
    program = lang.parse_program("features A; model true; begin x := 1; y := x end")
    assert lang.program_vars(program) == ["x", "y"]
    program = lang.parse_program("features A; model true; begin skip end")
    assert lang.program_vars(program) == []


def test_s1_source_matches_fixture():
    assert "x := 0; #if (A) { x := x + 1 }; #if (B) { x := 1 }" in S1_SOURCE
