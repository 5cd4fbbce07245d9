"""Command-line surface: the generator grammar, rendering, exit codes."""

import time

import pytest

from lexbs.betti import ek_betti, quotient_diagram
from lexbs.ideal import UnitIdeal, minimalize
from lexbs.monomial import Monomial
from lexbs.verify import CheckReport

import lexbs.cli as cli
from lexbs.cli import IdealSyntaxError, main, parse_ideal, render_betti

from conftest import SPLICE8_TEXT, STAGGER_TEXT, m


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- parsing


def test_parse_basic():
    I = parse_ideal("x^2, xy, xz, y^2")
    assert I == minimalize([m(2, 0, 0), m(1, 1, 0), m(1, 0, 1), m(0, 2, 0)])


def test_parse_digit_shorthand():
    assert parse_ideal("x2y") == parse_ideal("x^2*y")
    assert parse_ideal("xy2z3") == parse_ideal("x*y^2*z^3")


def test_parse_whitespace_and_parens():
    assert parse_ideal(" ( x^2 ,  x y ) ") == parse_ideal("x^2, xy")


def test_parse_indexed_mode():
    I = parse_ideal("x1*x2^2, x4^3", 4)
    assert I == minimalize(
        [Monomial((1, 2, 0, 0)), Monomial((0, 0, 0, 3))], 4
    )


def test_parse_power_of_ideal_is_rejected_with_hint():
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("(y,z)^8")
    text = str(err.value)
    assert text.startswith("syntax error at byte 5")
    assert "lexbs gen power-ideal" in text


def test_parse_unknown_variable():
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("xw")
    assert str(err.value).startswith("syntax error at byte 1")
    assert "'w'" in str(err.value)


def test_parse_truncated_exponent():
    with pytest.raises(IdealSyntaxError):
        parse_ideal("x^")


def test_parse_stray_character_offset():
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("x^2, @")
    assert "byte 5" in str(err.value)


def test_parse_bare_number():
    with pytest.raises(IdealSyntaxError):
        parse_ideal("1")


def test_parse_variable_out_of_range():
    with pytest.raises(IdealSyntaxError):
        parse_ideal("y", 1)


def test_parse_unit_generator():
    assert parse_ideal("x^0") == UnitIdeal(3)


def test_round_trip_through_format():
    from lexbs.ideal import format_ideal

    for text in (SPLICE8_TEXT, STAGGER_TEXT, "x, y, z"):
        I = parse_ideal(text)
        assert parse_ideal(format_ideal(I)) == I


# --------------------------------------------------------------- rendering


def test_render_betti_quadric_quotient():
    D = quotient_diagram(ek_betti(parse_ideal("x^2, xy, xz, y^2")))
    assert render_betti(D) == (
        "  | 0 1 2 3\n"
        "--+--------\n"
        "0 | 1 - - -\n"
        "1 | - 4 4 1"
    )


def test_render_betti_empty():
    from lexbs.betti import BettiDiagram

    rendered = render_betti(BettiDiagram(3, {}))
    assert len(rendered.splitlines()) == 2


# ------------------------------------------------------------- subcommands


def test_betti_command(capsys):
    code, out, err = run(capsys, "betti", "--quotient", "x^2, xy, xz, y^2")
    assert code == 0
    assert out.splitlines() == [
        "  | 0 1 2 3",
        "--+--------",
        "0 | 1 - - -",
        "1 | - 4 4 1",
    ]


def test_betti_rejects_non_stable(capsys):
    code, out, err = run(capsys, "betti", "xz")
    assert code == 2
    assert "x*z" in err


def test_decompose_unit_normalized(capsys):
    code, out, err = run(
        capsys, "decompose", "--quotient", "--norm", "unit", "x^2, xy, xz, y^2"
    )
    assert code == 0
    assert out.splitlines() == ["8 pi(0,2,3,4)", "4 pi(0,2,3)"]


def test_decompose_machine(capsys):
    code, out, err = run(capsys, "decompose", "--machine", SPLICE8_TEXT)
    assert code == 0
    assert out.splitlines() == [
        "1/1\t2,4,5",
        "2/7\t3,4,10",
        "9/7\t3,9,10",
        "8/1\t8,9",
        "1/1\t8",
    ]


def test_decompose_never_prints_decimals(capsys):
    code, out, err = run(capsys, "decompose", STAGGER_TEXT)
    assert code == 0
    assert "." not in out


def test_unit_ideal_input_warns(capsys):
    code, out, err = run(capsys, "decompose", "x^0")
    assert code == 2
    assert "unit ideal" in err


def test_check_pass(capsys):
    code, out, err = run(capsys, "check", "thm1", SPLICE8_TEXT)
    assert code == 0
    assert "verdict: pass" in out
    assert "shifted prefix: [1 pi(2,4,5)]" in out


def test_check_vacuous(capsys):
    code, out, err = run(capsys, "check", "thm1", "x, y, z")
    assert code == 0
    assert "status: vacuous(colon by x_1 is the unit ideal)" in out


def test_check_excluded_exit(capsys):
    code, out, err = run(
        capsys,
        "check",
        "conjecture",
        "x^2, xy, xz^2, y^4, y^3z, y^2z^2, yz^3, z^4",
    )
    assert code == 2
    assert "excluded(wrong-family: J is the full power (y, z)^4)" in out


def test_check_failure_exit(capsys, monkeypatch):
    def always_fails(ideal):
        return CheckReport(ideal, "applicable", "fail", "synthetic witness")

    monkeypatch.setitem(cli._CHECKERS, "bhp", always_fails)
    code, out, err = run(capsys, "check", "bhp", "x, y, z")
    assert code == 1
    assert "witness: synthetic witness" in out


def test_explain_command(capsys):
    code, out, err = run(capsys, "explain", SPLICE8_TEXT)
    assert code == 0
    lines = out.splitlines()
    assert "  1 pi(2,4,5)  [L:x]" in lines
    assert "  2/7 pi(3,4,10)  [L:y, L:z]" in lines
    assert "  8 pi(8,9)  [(L,x)]" in lines
    k = lines.index("unused source summands:")
    assert lines[k + 1 :] == ["  L:y: pi(2,3,4)", "  L:z: pi(2,3,4)"]


def test_enumerate_machine(capsys):
    code, out, err = run(
        capsys, "enumerate", "--max-deg", "2", "--machine"
    )
    assert code == 0
    assert out.splitlines() == [
        "ideals\t4",
        "thm1\t1\t0\t3\t0",
        "thm2\t1\t0\t3\t0",
        "conjecture\t0\t0\t0\t4",
        "ek_vs_cone\t1\t0\t3\t0",
        "bhp\t4\t0\t0\t0",
        "lemmas\t4\t0\t0\t0",
    ]


def test_enumerate_parallel_output_identical(capsys):
    code_a, out_a, _ = run(capsys, "enumerate", "--max-deg", "2", "--machine")
    code_b, out_b, _ = run(
        capsys, "enumerate", "--max-deg", "2", "--machine", "--jobs", "2"
    )
    assert (code_a, out_a) == (code_b, out_b)


def test_enumerate_human(capsys):
    code, out, err = run(capsys, "enumerate", "--max-deg", "2")
    assert code == 0
    assert out.startswith("ideals checked: 4\n")


def test_enumerate_unknown_check(capsys):
    code, out, err = run(
        capsys, "enumerate", "--max-deg", "2", "--checks", "thm3"
    )
    assert code == 2
    assert "unknown checks: thm3" in err


def test_enumerate_subset(capsys):
    code, out, err = run(
        capsys, "enumerate", "--max-deg", "2", "--checks", "bhp", "--machine"
    )
    assert code == 0
    assert out.splitlines() == ["ideals\t4", "bhp\t4\t0\t0\t0"]


def test_gen_power_ideal(capsys):
    code, out, err = run(capsys, "gen", "power-ideal", "y,z", "3")
    assert code == 0
    assert out.strip() == "y^3, y^2*z, y*z^2, z^3"
    assert parse_ideal(out.strip()) == minimalize(
        [m(0, 3, 0), m(0, 2, 1), m(0, 1, 2), m(0, 0, 3)]
    )


def test_gen_errors(capsys):
    code, _, err = run(capsys, "gen", "power-ideal", "y,y", "2")
    assert code == 2 and "repeated" in err
    code, _, err = run(capsys, "gen", "power-ideal", "y,z", "0")
    assert code == 2
    code, _, err = run(capsys, "gen", "laurent", "y,z", "2")
    assert code == 2 and "unknown generator" in err


def test_syntax_error_exit_code(capsys):
    code, out, err = run(capsys, "betti", "(y,z)^8")
    assert code == 2
    assert "syntax error at byte 5" in err
    assert "lexbs gen power-ideal" in err


def test_unexpected_error_exit_code(capsys, monkeypatch):
    def broken(ideal):
        raise RuntimeError("injected\nfault")

    monkeypatch.setattr(cli, "ek_betti", broken)
    code, out, err = run(capsys, "betti", "x, y, z")
    assert code == 3
    assert out == ""
    assert err == "error: internal error: RuntimeError: injected fault\n"


# -------------------------------------------- deep degrees, 1 s ceilings

DEEP_LEX = "x^2, xy, xz, y^3, y^2z, yz^2, z^600"


def timed_run(capsys, *argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{argv} took {elapsed:.2f} s"
    return code, out, err


def test_betti_deep_z_power(capsys):
    code, out, err = timed_run(capsys, "betti", "x, y, z^5000")
    assert code == 0
    lines = out.splitlines()
    # rows are j - i: x and y sit in row 1, z^5000 in row 5000
    assert lines[2].split() == ["1", "|", "2", "1", "-"]
    assert lines[-1].split() == ["5000", "|", "1", "2", "1"]
    assert len(lines) == 2 + 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "thm1", DEEP_LEX),
        ("explain", DEEP_LEX),
        ("check", "bhp", DEEP_LEX),
        ("check", "bhp", "x^2, x*y, y^600"),
    ],
)
def test_deep_degree_commands_exit_zero(capsys, argv):
    code, out, err = timed_run(capsys, *argv)
    assert code == 0, err
