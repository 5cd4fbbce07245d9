"""Seeded request generator for the `queries` workload.

Every request is an argv list for `lexbs.cli.main` together with the
minimal generators of its ideal (exponent tuples), which the output gate
uses to compute the expected Betti diagram independently of lexbs.

The stream is cut into blocks of BLOCK requests with a fixed mix:
LIGHT requests whose generators have degree at most LIGHT_MAX_DEG (97%),
DEEP requests that raise the pure power of z to a degree in DEEP_DEGREES
(2.5%), and EXTREME requests that raise it to a degree in EXTREME_DEGREES
(0.4%).  Commands, families and degree bounds are stratified inside a
block and only the shapes of the ideals and the order are drawn at
random, so every block carries the same amount of work whatever the
seed; that keeps throughput and the tail percentile comparable between
seeds.  The deep and extreme requests of a block do not depend on the
seed at all (see `block`).  Block k depends only on (seed, k): the
stream is a pure function of the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from typing import Iterator, NamedTuple

BLOCK = 240
LIGHT = 233
DEEP = 6  # one per command in LEX_COMMANDS
EXTREME = 1

LIGHT_MAX_DEG = 30
# Generator degree of the Borel seeds, by number of variables.  Past
# these, lexify (behind `check bhp`) runs to tens of seconds in 4
# variables, which no longer counts as a light request.
BOREL_MAX_DEG = {3: 6, 4: 4}
DEEP_DEGREES = (60, 90)
EXTREME_DEGREES = (500, 600)

# Commands valid on an Artinian lex ideal in three variables, and on a
# Borel-fixed ideal (stable, but neither lex nor Artinian in general).
LEX_COMMANDS = ("betti", "decompose", "thm1", "thm2", "bhp", "explain")
BOREL_COMMANDS = ("betti", "decompose", "bhp")

# Commands that reach the stability test first.  On an extreme degree they
# die in a few milliseconds on recursion depth; the lex test behind
# thm1, thm2 and explain instead fills every degree piece up to that
# degree, which takes minutes and gigabytes.
EXTREME_COMMANDS = ("betti", "decompose", "bhp")

LETTERS = ("x", "y", "z")


class Request(NamedTuple):
    kind: str  # "light", "deep" or "extreme"
    command: str  # one of LEX_COMMANDS
    argv: tuple[str, ...]
    n: int
    gens: tuple[tuple[int, ...], ...]  # minimal generators, exponent tuples


@lru_cache(maxsize=None)
def glex_monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Degree-d exponent tuples in n variables, glex-descending."""
    if n == 1:
        return ((d,),)
    return tuple(
        (a,) + rest
        for a in range(d, -1, -1)
        for rest in glex_monomials(n - 1, d - a)
    )


@lru_cache(maxsize=None)
def shadow_size(d: int, t: int) -> int:
    """Number of monomials in (x, y, z) times the first t degree-d
    monomials of three variables in glex order."""
    out = set()
    for e in glex_monomials(3, d)[:t]:
        for i in range(3):
            out.add(e[:i] + (e[i] + 1,) + e[i + 1 :])
    return len(out)


def random_lex_ideal(
    rng: random.Random, max_deg: int, bias: float = 3.0
) -> list[tuple[int, ...]]:
    """Minimal generators of a random Artinian lex ideal in 3 variables.

    Degree d holds the initial glex segment of size t_d, with t_d at least
    the shadow of the previous segment and t_max_deg full; the degree-d
    generators are the segment minus that shadow.  A larger bias draws
    sizes closer to the shadow bound, so generators spread over more
    degrees.
    """
    gens: list[tuple[int, ...]] = []
    prev_t = 0
    for d in range(1, max_deg + 1):
        master = glex_monomials(3, d)
        lower = shadow_size(d - 1, prev_t) if prev_t else 0
        full = len(master)
        if d == max_deg:
            t = full
        else:
            t = lower + int((full - lower) * rng.random() ** bias)
        gens.extend(master[lower:t])
        prev_t = t
        if t == full:
            break
    return gens


def raise_z_power(gens, degree: int) -> list[tuple[int, ...]]:
    """Replace the pure power of z among the generators by z^degree.

    For an Artinian lex ideal whose pure z power is z^e, every other
    monomial of degree >= e stays in the ideal, so each graded piece is
    still an initial segment: the result is again Artinian lex.
    """
    out = [g for g in gens if not (g[0] == 0 and g[1] == 0)]
    out.append((0, 0, degree))
    return out


def random_monomial(rng: random.Random, n: int, degree: int) -> tuple[int, ...]:
    e = [0] * n
    for _ in range(degree):
        e[rng.randrange(n)] += 1
    return tuple(e)


def borel_closure(monos, n: int) -> list[tuple[int, ...]]:
    """Minimal generators of the smallest Borel-fixed ideal containing monos."""
    seen = set(monos)
    todo = list(monos)
    while todo:
        e = todo.pop()
        for j in range(1, n):
            if e[j] == 0:
                continue
            for i in range(j):
                f = list(e)
                f[j] -= 1
                f[i] += 1
                f = tuple(f)
                if f not in seen:
                    seen.add(f)
                    todo.append(f)
    return minimal_generators(seen)


def minimal_generators(monos) -> list[tuple[int, ...]]:
    kept: list[tuple[int, ...]] = []
    for m in sorted(set(monos), key=sum):
        if not any(all(a <= b for a, b in zip(g, m)) for g in kept):
            kept.append(m)
    return kept


def format_gens(gens, n: int) -> str:
    terms = []
    for e in sorted(gens, key=lambda g: (sum(g), g), reverse=True):
        parts = []
        for i, k in enumerate(e):
            if k == 0:
                continue
            name = LETTERS[i] if n <= 3 else f"x{i + 1}"
            parts.append(name if k == 1 else f"{name}^{k}")
        terms.append("*".join(parts))
    return ", ".join(terms)


def _argv(rng: random.Random, command: str, text: str, n: int) -> tuple[str, ...]:
    if command in ("thm1", "thm2", "bhp"):
        argv = ["check", command, text]
    else:
        argv = [command, text]
    if command == "betti" and rng.random() < 0.5:
        argv.append("--quotient")
    if command == "decompose":
        if rng.random() < 0.5:
            argv.append("--quotient")
        if rng.random() < 0.5:
            argv += ["--norm", "unit"]
        if rng.random() < 0.5:
            argv.append("--machine")
    if n != 3:
        argv += ["--vars", str(n)]
    return tuple(argv)


def _light(rng: random.Random, i: int) -> Request:
    """Light request i of a block: families, commands and degree bounds
    cycle with i, so every block has the same mix; shapes are random."""
    if i % 2 == 0:
        command = LEX_COMMANDS[(i // 2) % len(LEX_COMMANDS)]
        gens = random_lex_ideal(rng, 2 + (i // 2) % (LIGHT_MAX_DEG - 1))
        n = 3
    else:
        command = BOREL_COMMANDS[(i // 2) % len(BOREL_COMMANDS)]
        n = 3 if (i // 6) % 2 == 0 else 4
        seeds = [
            random_monomial(rng, n, rng.randint(1, BOREL_MAX_DEG[n]))
            for _ in range(rng.randint(1, 4))
        ]
        gens = borel_closure(seeds, n)
    text = format_gens(gens, n)
    return Request("light", command, _argv(rng, command, text, n), n, tuple(gens))


def _raised(rng: random.Random, kind: str, command: str, degree: int) -> Request:
    # Unbiased segment sizes give varied bases, so two deep requests
    # rarely share an ideal, and so the cache entries, by chance.
    base = random_lex_ideal(rng, rng.randint(3, 8), bias=1.0)
    gens = raise_z_power(base, degree)
    text = format_gens(gens, 3)
    return Request(kind, command, _argv(rng, command, text, 3), 3, tuple(gens))


def block(seed: int, k: int) -> list[Request]:
    """Block k of the request stream for this seed, in seeded random order.

    Each deep request has its own command, and the pure-power degrees
    are split into DEEP strata that rotate over the commands from block
    to block; only the offset inside a stratum is random.

    The deep and extreme requests of block k are the same for every
    seed, and sit at fixed, evenly spaced places; the seed draws the
    light requests and their order.  A deep request costs anything from
    milliseconds to over a second, even between ideals of the same
    shape, and part of that cost is filling caches (the monomials of each
    degree) that the deep requests after it reuse.  Drawing the few deep
    requests of a run, or their order, from the seed would make
    throughput and p99 depend on the seed more than on the program.
    """
    rng = random.Random(f"lexbs-queries/{seed}/{k}")
    light = [_light(rng, i) for i in range(LIGHT)]
    rng.shuffle(light)
    heavy = []
    fixed = random.Random(f"lexbs-queries/deep/{k}")
    lo, hi = DEEP_DEGREES
    width = (hi - lo) // DEEP
    for j, command in enumerate(LEX_COMMANDS):
        stratum = (j + k) % DEEP
        degree = lo + width * stratum + fixed.randrange(width)
        heavy.append(_raised(fixed, "deep", command, degree))
    command = EXTREME_COMMANDS[k % len(EXTREME_COMMANDS)]
    heavy.append(_raised(fixed, "extreme", command, fixed.randint(*EXTREME_DEGREES)))
    # equal runs of light requests, each followed by one heavy request
    reqs, step = [], LIGHT // len(heavy)
    for i, req in enumerate(heavy):
        reqs += light[i * step : (i + 1) * step] + [req]
    return reqs + light[len(heavy) * step :]


def stream(seed: int) -> Iterator[Request]:
    """The endless request stream for this seed, block after block."""
    k = 0
    while True:
        yield from block(seed, k)
        k += 1


def argv_digest(argvs) -> str:
    """sha256 over the issued argv lists, in order."""
    h = hashlib.sha256()
    for argv in argvs:
        h.update(json.dumps(list(argv)).encode())
        h.update(b"\n")
    return h.hexdigest()
