"""Command-line surface: the generator grammar, rendering, exit codes."""

import contextlib
import io
import os
import subprocess
import sys
import time
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from lexbs.betti import ek_betti, quotient_diagram
from lexbs.enumeration import _run_checks, enumerate_artinian_lex
from lexbs.ideal import MonomialIdeal, UnitIdeal, format_ideal, minimalize
from lexbs.monomial import Monomial
from lexbs.verify import CheckReport

import lexbs
import lexbs.cli as cli
import lexbs.verify as verify
from lexbs.cli import IdealSyntaxError, main, parse_ideal, render_betti

from conftest import (
    CAMPAIGN_MACHINE_ROWS,
    FAMILY26_TEXT,
    QUADRIC_TEXT,
    SPLICE8_TEXT,
    STAGGER_TEXT,
    m,
)


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


@pytest.mark.parametrize(
    "text, n, offset, message",
    [
        ("x\u00b2", 3, 1, "unknown variable '\u00b2' (expected one of x, y, z)"),
        ("x^\u0663", 3, 2, "exponent digits expected after '^'"),
        ("x1\u00b2", 4, 2, "unknown variable '\u00b2' (with 4 variables use x1..x4)"),
    ],
)
def test_only_ascii_digits_are_digits(capsys, text, n, offset, message):
    # str.isdigit() also accepts superscripts and other scripts' digits,
    # which int() then rejects or reads as ASCII ones.
    code, out, err = run(capsys, "betti", text, "--vars", str(n))
    assert (code, out) == (2, "")
    assert err == f"error: syntax error at byte {offset}: {message}\n"


def test_syntax_error_offset_counts_utf8_bytes():
    # The no-break space is one character and two bytes.
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("x,\u00a0q")
    assert err.value.offset == 4
    assert str(err.value) == (
        "syntax error at byte 4: unknown variable 'q' (expected one of x, y, z)"
    )


def test_number_longer_than_int_converts(capsys):
    # int() refuses strings of more than 4300 digits by default.
    digits = "1" * 5000
    for argv, offset in (
        (("betti", f"x^{digits}"), 2),
        (("betti", "--vars", "4", f"x1, x{digits}"), 5),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: syntax error at byte {offset}: number too long\n"


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
    # The first generator in glex order whose exchange leaves the ideal is
    # y, though x*z has an exchange, x*y, with no generator as a prefix.
    code, out, err = run(capsys, "betti", "x^2, x*z, y")
    assert (code, out) == (2, "")
    assert err == (
        "error: ideal is not stable: generator y needs x_1*y/x_2 = x "
        "in the ideal\n"
    )


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


def test_check_wrong_family_status(capsys):
    # The campaign never reads this reason, so it is worded only when the
    # status text is read; the text stays the same.
    code, out, err = run(capsys, "check", "conjecture", SPLICE8_TEXT)
    assert code == 2
    assert out.splitlines()[1:] == [
        "status: excluded(wrong-family: colon by x is (y^2, y*z, z^2, x), "
        "not of the form (x, y, z^t))",
        "verdict: (nothing checked)",
    ]


def test_check_thm1_builds_no_split(capsys, monkeypatch):
    # thm1 reads (L : x_1) alone: neither split_x nor J is built, through
    # whichever module refers to them.
    calls = []
    for module in (lexbs.ideal, verify):
        for name in ("split_x", "xfree_part"):
            if hasattr(module, name):

                def counted(L, work=getattr(module, name), name=name):
                    calls.append(name)
                    return work(L)

                monkeypatch.setattr(module, name, counted)
    code, out, err = run(capsys, "check", "thm1", SPLICE8_TEXT)
    assert (code, err) == (0, "")
    assert "verdict: pass" in out
    assert calls == []


def test_check_failure_exit(capsys, monkeypatch):
    def always_fails(ideal):
        return CheckReport(ideal, "applicable", "fail", "synthetic witness")

    monkeypatch.setitem(verify.CHECKS, "bhp", always_fails)
    code, out, err = run(capsys, "check", "bhp", "x, y, z")
    assert code == 1
    assert "witness: synthetic witness" in out


def test_check_help_lists_every_law(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    out = capsys.readouterr().out
    assert "{thm1,thm2,conjecture,ek_vs_cone,bhp,lemmas}" in out


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_check_replays_campaign_rows(capsys, name):
    # Each campaign row is reproduced by `lexbs check <name> "<ideal>"`.
    for L in enumerate_artinian_lex(3):
        [(_, kind, verdict, _)] = _run_checks(L, (name,))[1]
        code, out, err = run(capsys, "check", name, format_ideal(L))
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        assert fields["status"].split("(", 1)[0] == kind
        assert fields["verdict"] == (verdict or "(nothing checked)")
        assert code == (1 if verdict == "fail" else 2 if kind == "excluded" else 0)


@pytest.mark.parametrize("name", ["ek_vs_cone", "lemmas"])
def test_check_splitting_in_one_variable_is_vacuous(capsys, name):
    code, out, err = run(capsys, "check", name, "x^2", "--vars", "1")
    assert code == 0
    assert "status: vacuous(one variable: nothing to split)" in out


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
    for max_deg, rows in CAMPAIGN_MACHINE_ROWS.items():
        code, out, err = run(
            capsys, "enumerate", "--max-deg", str(max_deg), "--machine"
        )
        assert (code, err) == (0, "")
        assert out == "".join(line + "\n" for line in rows)


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


def test_enumerate_empty_check_name(capsys):
    # Both lists name an empty check: "" is not the default of all checks.
    for checks in ("", "bhp,"):
        code, out, err = run(
            capsys, "enumerate", "--max-deg", "2", "--checks", checks, "--machine"
        )
        assert (code, out) == (2, "")
        assert err == f"error: empty check name in {checks!r}\n"


def test_enumerate_fault_in_a_check_is_an_internal_error(capsys, monkeypatch):
    # A ValueError from inside a check is a fault, not a bad argument.
    def broken(ideal):
        raise ValueError("injected\nfault")

    monkeypatch.setitem(verify.CHECKS, "bhp", broken)
    code, out, err = run(
        capsys, "enumerate", "--max-deg", "2", "--checks", "bhp", "--machine"
    )
    assert code == 3
    assert out == ""
    assert err == "error: internal error: ValueError: injected fault\n"


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
    # Names betti would reject are usage errors, an empty one included.
    for names, bad in (("q,w", "'q'"), (",z", "''")):
        code, out, err = run(capsys, "gen", "power-ideal", names, "2")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {bad} is not a variable name (use x, y, z, or x1, x2, ...)\n"
        )
    # Every list gen accepts parses, in the mode its names belong to, as
    # the power of distinct variables: C(k + r - 1, r - 1) generators.
    for names, n in (
        ("x", 3),
        ("z,x", 3),
        ("x,y,z", 3),
        (" y , z ", 3),
        ("x1,x2", 4),
        ("x3,x1,x5", 5),
    ):
        code, out, err = run(capsys, "gen", "power-ideal", names, "3")
        assert (code, err) == (0, "")
        r = names.count(",") + 1
        assert len(parse_ideal(out.strip(), n).gens) == comb(r + 2, r - 1)
        code, _, err = run(capsys, "betti", out.strip(), "--vars", str(n))
        assert "syntax error" not in err


def test_gen_errors(capsys):
    code, _, err = run(capsys, "gen", "power-ideal", "y,y", "2")
    assert code == 2 and "repeated" in err
    code, _, err = run(capsys, "gen", "power-ideal", "x1,x01", "2")
    assert code == 2 and "repeated" in err
    code, _, err = run(capsys, "gen", "power-ideal", "x,x2", "2")
    assert (code, err) == (2, "error: x, y, z and x1, x2, ... cannot be mixed\n")
    code, _, err = run(capsys, "gen", "power-ideal", "x0,x1", "2")
    assert code == 2 and "'x0' is not a variable name" in err
    code, _, err = run(capsys, "gen", "power-ideal", "y,z", "0")
    assert code == 2
    code, _, err = run(capsys, "gen", "laurent", "y,z", "2")
    assert code == 2 and "unknown generator" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("betti", "x"),
        ("decompose", "x"),
        ("check", "thm1", "x"),
        ("explain", "x"),
    ],
)
@pytest.mark.parametrize("n", ["0", "-2"])
def test_vars_below_one_is_a_usage_error(capsys, argv, n):
    code, out, err = run(capsys, *argv, "--vars", n)
    assert (code, out) == (2, "")
    assert err == f"error: --vars must be at least 1, got {n}\n"


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


# ------------------------------------------------------ any text at all

# Texts that argparse would not read as options, drawn from any character
# but mostly from the grammar's, so that most get past their first few.
_ARGUMENT_TEXT = st.text(
    st.one_of(st.sampled_from("xyz0123456789^*,() "), st.characters()),
    max_size=16,
).filter(lambda s: not s.startswith("-"))


# Digits that str.isdigit() accepts but int() rejects or reads as ASCII.
_NON_ASCII_DIGITS = ("x\u00b2", "x^\u0663", "xy\u00b2z")


@settings(max_examples=300, deadline=None)
@given(_ARGUMENT_TEXT)
@example(_NON_ASCII_DIGITS[0])
@example(_NON_ASCII_DIGITS[1])
@example(_NON_ASCII_DIGITS[2])
def test_parse_ideal_returns_or_raises_a_syntax_error_property(text):
    try:
        ideal = parse_ideal(text)
    except IdealSyntaxError:
        return
    assert isinstance(ideal, (MonomialIdeal, UnitIdeal))


# `betti` is left out: a text such as "z99999999999" asks for a table
# with 10^11 rows, which is an answer, only a long one.
@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([("check", "thm2"), ("decompose",), ("explain",)]),
    _ARGUMENT_TEXT,
)
@example(("decompose",), _NON_ASCII_DIGITS[0])
@example(("explain",), _NON_ASCII_DIGITS[2])
def test_any_ideal_text_ends_in_an_honest_exit_property(command, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, text])
    assert code in (0, 1, 2), err.getvalue()


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


# ----------------------------------------------- one parser per process

# (argv, expected exit) covering every way a call can end; an exit given
# as SystemExit(code) comes from argparse itself.
MIXED_CALLS = [
    (("betti", QUADRIC_TEXT), 0),
    (("betti", "--quotient", QUADRIC_TEXT), 0),
    (("decompose", "--norm", "unit", "--machine", QUADRIC_TEXT), 0),
    (("betti", "--vars", "4", "x1^2, x1*x2, x1*x3, x2^2"), 0),
    (("check", "thm2", FAMILY26_TEXT), 2),
    (("betti", "(y,z)^8"), 2),
    (("betti", "xz"), 2),
    (("bogus", QUADRIC_TEXT), SystemExit(2)),
    (("check", "--help"), SystemExit(0)),
    (("explain", SPLICE8_TEXT), 0),
]


def outcome(capsys, argv):
    """Exit code (or the SystemExit argparse raised), stdout and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kept_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    fresh = {}
    for argv, expected in MIXED_CALLS:
        monkeypatch.setattr(cli, "_parser", None)
        fresh[argv] = outcome(capsys, argv)
        if isinstance(expected, SystemExit):
            expected = ("SystemExit", expected.code)
        assert fresh[argv][0] == expected, argv
    monkeypatch.setattr(cli, "_parser", None)
    calls = [argv for argv, _ in MIXED_CALLS]
    for argv in calls + calls[::-1]:
        assert outcome(capsys, argv) == fresh[argv], argv


def test_main_builds_the_parser_once(capsys, monkeypatch):
    build = cli.build_parser
    built = []

    def counted():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv, _ in MIXED_CALLS * 3:
        outcome(capsys, argv)
    assert len(built) == 1
    assert build() is not build()


def _python(*args):
    """Run this interpreter with lexbs importable from its source tree."""
    src = os.path.dirname(os.path.dirname(lexbs.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


def test_import_builds_no_parser():
    # Building the parser at import would add its cost to every process
    # that imports lexbs.cli, the campaign's workers included.
    probe = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    made.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import lexbs.cli\n"
        "print(len(made), lexbs.cli._parser)\n"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 None\n"


def test_import_loads_no_process_pool():
    # Only a campaign with more than one worker needs the pool, and loading
    # it makes up about half the time of importing lexbs.cli.
    probe = (
        "import sys\n"
        "import lexbs.cli\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'}"
        " & set(sys.modules)))\n"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="needs RLIMIT_AS enforced"
)
def test_betti_table_streams_in_bounded_memory():
    # Building the whole table first took about 0.4 KB per row, so this
    # 300,002-row table ran out of the 100 MiB address space.
    probe = (
        "import resource, sys\n"
        "limit = 100 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from lexbs.cli import main\n"
        "sys.exit(main(['betti', 'x, y, z^300000']))\n"
    )
    result = _python("-c", probe)
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert len(lines) == 2 + 300000
    assert lines[-1].split() == ["300000", "|", "1", "2", "1"]


def test_python_dash_m_runs_the_cli(capsys):
    result = _python("-m", "lexbs", "betti", QUADRIC_TEXT)
    code, out, err = run(capsys, "betti", QUADRIC_TEXT)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)
    assert code == 0
