"""Write the golden parser corpus, tests/data/parse_cases.tsv, to stdout.

    PYTHONPATH=src python tests/data/make_parse_cases.py > tests/data/parse_cases.tsv

The texts are a pure function of SEED.  They are drawn from the grammar's
alphabet, plus other whitespace (no-break spaces, an ideographic space,
a tab), a superscript two, an Arabic-Indic three and numbers of 5000
digits, for n = 1, ..., 5 variables: some
start as valid generator lists and are then mutated, others are random
strings.  Each line is

    n <TAB> text as a JSON string <TAB> outcome

where the outcome is format_ideal of what parse_ideal(text, n) returns,
or the text of the IdealSyntaxError it raises.
"""

import json
import random
import sys

from lexbs.cli import IdealSyntaxError, parse_ideal
from lexbs.ideal import format_ideal

SEED = 22
PER_N = 800
SPACES = (" ", "\u00a0", "\u202f", "\u2007", "\u3000", "\t")
ODD = ("\u00b2", "\u0663")
ALPHABET = "xyz0123456789^*,() " + "".join(SPACES) + "".join(ODD)


def long_number(rng):
    return str(rng.randint(1, 9)) + "".join(
        rng.choice("0123456789") for _ in range(4999)
    )


def number(rng):
    r = rng.random()
    if r < 0.002:
        return long_number(rng)
    if r < 0.1:
        return "0" + str(rng.randint(0, 9))
    return str(rng.choice((0, 1, 2, 2, 3, 4, 5, 7, 10, 12, 31)))


def space(rng):
    return rng.choice(("", "", "", "", rng.choice(SPACES)))


def variable(rng, n):
    if n <= 3:
        letters = "xyz" if rng.random() < 0.05 else "xyz"[:n]
        return rng.choice(letters)
    if rng.random() < 0.05:
        return rng.choice(("x0", f"x{n + 1}", "x01"))
    return f"x{rng.randint(1, n)}"


def term(rng, n):
    v = variable(rng, n)
    r = rng.random()
    if r < 0.4:
        return v
    if r < 0.8 or n > 3:
        return v + "^" + number(rng)
    return v + number(rng)


def monomial(rng, n):
    if rng.random() < 0.03:
        return rng.choice(("1", "1", "1", "0", "2", "01"))
    parts = [term(rng, n)]
    for _ in range(rng.randint(0, 3)):
        sep = rng.choice(("*", "*", " * ", "*", "", " ", " "))
        if n > 3 and sep == "":
            sep = "*"
        parts.append(sep + term(rng, n))
    return "".join(parts)


def generator_list(rng, n):
    monos = [monomial(rng, n) for _ in range(rng.randint(1, 5))]
    text = (space(rng) + "," + space(rng)).join(monos)
    if rng.random() < 0.4:
        text = "(" + space(rng) + text + space(rng) + ")"
    return space(rng) + text + space(rng)


def mutate(rng, text):
    k = rng.randrange(len(text) + 1)
    r = rng.random()
    if r < 0.015:
        return text[:k] + long_number(rng) + text[k:]
    if r < 0.4:
        return text[:k] + rng.choice(ALPHABET) + text[k:]
    if r < 0.7:
        return text[:k] + text[k + 1 :]
    return text[:k] + rng.choice(ALPHABET) + text[k + 1 :]


def random_text(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 14)))


def texts(rng, n):
    for _ in range(PER_N):
        r = rng.random()
        if r < 0.35:
            yield generator_list(rng, n)
        elif r < 0.85:
            text = generator_list(rng, n)
            for _ in range(rng.randint(1, 2)):
                text = mutate(rng, text)
            yield text
        else:
            yield random_text(rng)


def outcome(text, n):
    try:
        return format_ideal(parse_ideal(text, n))
    except IdealSyntaxError as exc:
        return str(exc)


def main():
    rng = random.Random(SEED)
    for n in range(1, 6):
        for text in texts(rng, n):
            result = outcome(text, n)
            assert "\t" not in result and "\n" not in result
            sys.stdout.write(
                f"{n}\t{json.dumps(text, ensure_ascii=False)}\t{result}\n"
            )


if __name__ == "__main__":
    main()
