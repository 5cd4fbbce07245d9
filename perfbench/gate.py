"""Output gate: decides whether what lexbs printed is right.

Campaign runs are compared row by row with the known-good `--machine`
rows in expected/.  Query outputs are checked against exact invariants
computed here, independently of lexbs: the Betti diagram of a stable
ideal from the Eliahou-Kervaire formula on its minimal generators, and
for every printed chain that its degree sequences strictly increase in
the order seq_leq and that its summands add back up to that diagram.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm, prod
from pathlib import Path
from typing import Optional

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

SUMMAND = re.compile(r"(-?\d+(?:/\d+)?) pi\(([\d,]*)\)")


def expected_rows(workload: str) -> str:
    return (EXPECTED_DIR / f"{workload}.tsv").read_text()


def campaign_mismatches(stdout: str, expected: str) -> list[str]:
    """Every row where the campaign output differs from the known-good one."""
    got, want = stdout.splitlines(), expected.splitlines()
    out = []
    for k in range(max(len(got), len(want))):
        g = got[k] if k < len(got) else "<missing>"
        w = want[k] if k < len(want) else "<missing>"
        if g != w:
            out.append(f"row {k}: got {g!r}, want {w!r}")
    return out


# ----- exact invariants for single-ideal queries --------------------------


def ek_diagram(gens) -> dict[tuple[int, int], int]:
    """Betti diagram of a stable ideal from its minimal generators:
    a generator u of degree j adds binomial(m(u)-1, i) to beta_{i,i+j},
    m(u) the largest index of a variable dividing u."""
    out: dict[tuple[int, int], int] = {}
    for e in gens:
        m = max(k for k, v in enumerate(e) if v) + 1
        j = sum(e)
        for i in range(m):
            out[(i, i + j)] = out.get((i, i + j), 0) + comb(m - 1, i)
    return out


def quotient(diagram):
    """Diagram of R/I from that of I."""
    out = {(i + 1, j): v for (i, j), v in diagram.items()}
    out[(0, 0)] = 1
    return out


def pure_entries(seq, norm: str) -> list[Fraction]:
    """Entries of the pure diagram on seq, column by column.

    'lcm' is the smallest integral one; 'unit' has entries
    1/prod_{k != i}|d_i - d_k|.
    """
    products = [prod(abs(d - e) for e in seq if e != d) for d in seq]
    if norm == "unit":
        return [Fraction(1, p) for p in products]
    top = lcm(*products)
    return [Fraction(top, p) for p in products]


def reconstruct(summands, norm: str) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for coeff, seq in summands:
        for i, (d, e) in enumerate(zip(seq, pure_entries(seq, norm))):
            out[(i, d)] = out.get((i, d), 0) + coeff * e
    return {k: v for k, v in out.items() if v != 0}


def seq_leq(s, t) -> bool:
    """s <= t iff s is at least as long as t and s_i <= t_i where both exist."""
    return len(s) >= len(t) and all(a <= b for a, b in zip(s, t))


def is_chain(seqs) -> bool:
    return all(seq_leq(a, b) and a != b for a, b in zip(seqs, seqs[1:]))


def parse_summands(text: str) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Summands written as 'c pi(d0,d1,...)' or as machine rows 'p/q<TAB>d0,...'."""
    out = []
    for line in text.splitlines():
        if "\t" in line:
            coeff, seq = line.split("\t")
            out.append((Fraction(coeff), tuple(int(d) for d in seq.split(","))))
        else:
            for coeff, seq in SUMMAND.findall(line):
                out.append((Fraction(coeff), tuple(int(d) for d in seq.split(","))))
    return out


def parse_betti(text: str) -> dict[tuple[int, int], int]:
    """Betti table text (rows j - i, columns i, '-' for zero) to a diagram."""
    lines = text.splitlines()
    cols = [int(c) for c in lines[0].split("|")[1].split()]
    out = {}
    for line in lines[2:]:
        label, cells = line.split("|")
        r = int(label)
        for c, cell in zip(cols, cells.split()):
            if cell != "-":
                out[(c, c + r)] = int(cell)
    return out


def _chain_problem(summands, target, norm) -> Optional[str]:
    seqs = [s for _, s in summands]
    if not summands:
        return "empty chain"
    if not is_chain(seqs):
        return f"sequences do not increase in seq_leq: {seqs}"
    if reconstruct(summands, norm) != target:
        return "summands do not add up to the Betti diagram"
    return None


def _check_report_problem(command: str, code, stdout: str) -> Optional[str]:
    fields = dict(
        line.split(": ", 1) for line in stdout.splitlines() if ": " in line
    )
    status, verdict = fields.get("status", ""), fields.get("verdict", "")
    if verdict == "fail":
        return f"{command} reported a counterexample: {fields.get('witness')}"
    want = 2 if status.startswith("excluded") else 0
    if code != want:
        return f"exit code {code} but status {status!r}, verdict {verdict!r}"
    for key in ("shifted prefix", "ideal prefix", "tail", "augmented tail"):
        if key in fields:
            seqs = [s for _, s in parse_summands(fields[key])]
            if not is_chain(seqs):
                return f"{key} does not increase in seq_leq: {seqs}"
    return None


def query_problem(req, code, stdout: str) -> Optional[str]:
    """None when the output of one query is right, else what is wrong."""
    if req.command in ("thm1", "thm2", "bhp"):
        return _check_report_problem(req.command, code, stdout)
    if code != 0:
        return f"exit code {code}"
    diagram = ek_diagram(req.gens)
    if req.command == "betti":
        if "--quotient" in req.argv:
            diagram = quotient(diagram)
        if parse_betti(stdout) != diagram:
            return "Betti table differs from the Eliahou-Kervaire diagram"
        return None
    if req.command == "decompose":
        if "--quotient" in req.argv:
            diagram = quotient(diagram)
        norm = "unit" if "unit" in req.argv else "lcm"
        return _chain_problem(parse_summands(stdout), diagram, norm)
    # explain: the chain section, lcm-normalized, of the ideal itself
    chain = stdout.split("chain:\n", 1)[-1].split("unused source summands:")[0]
    return _chain_problem(parse_summands(chain), diagram, "lcm")
