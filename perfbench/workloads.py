"""Seeded inputs, operations and independent output checks for each workload.

Everything here is derived from ``(workload, seed)`` with a private
``random.Random``; folcan only ever sees the generated argv lists,
documents and matrices. Each workload has a fixed shape, so its cost does
not depend on the seed: the seed draws values (k2 within a fixed parity,
chi values, chain lengths inside narrow bands, matrix entries, document
contents), never how many queries of each kind a pass holds.

Workloads (one pass each; a timed run repeats whole passes):

``enum_ladder``
    ``ENUM_LADDER``: eleven ``folcan enumerate`` queries through
    ``cli.run`` with JSON output, k1 = 1.
``chain_intersect``
    (-2)-chains of the ``CHAIN_LENGTHS`` plus dense negative-definite
    exceptional Grams of the ``GRAM_RANKS``; each resolution is built once,
    then answers ``QUERIES_PER_RESOLUTION`` ``weil_intersect`` calls.
``cli_docs``
    ``CLI_MIX`` in-process ``cli.run`` calls on small documents written at
    set-up, shuffled, about 5% of them malformed or invalid. Sizes that
    set a call's cost (model rank, mmax, basket size, sweep length) cycle
    through fixed lists, so only their order and the values around them
    are seeded.

Both ladders hold an odd number of cost classes that are far apart, so
the per-pass median and 90th percentile each fall on one class (the
inclusive percentile lands exactly on one operation) instead of between
two.

Checks never call folcan: they recompute what an output must say with
their own ``Fraction`` arithmetic (pullback orthogonality, table values,
bound formulas, closed forms of the double-cover families, q_index of
witnesses, exit and error codes).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable, Optional

DEFAULT_SEED = 1
WORKLOADS = ("enum_ladder", "chain_intersect", "cli_docs")

# s, cap, size of the chi set, max cusps, parity of k2, workers.
# The parity of k2 decides integrality (k2 -> k2 + 2j adds the integer -j*m
# to every value), so the seed moves k2 inside its parity class and the
# number of accepted functions stays fixed.
ENUM_LADDER = (
    (6, 4, 1, 2, 1, 1),
    (6, 4, 3, 2, 0, 1),
    (6, 5, 3, 2, 1, 2),
    (12, 4, 3, 2, 0, 1),
    (12, 5, 3, 2, 0, 2),
    (12, 6, 3, 2, 0, 1),  # high acceptance: 198 functions
    (12, 6, 1, 0, 0, 1),  # no chi x cusp fan-out
    (30, 4, 3, 2, 0, 1),
    (30, 5, 1, 2, 1, 1),
    (60, 4, 3, 2, 0, 1),  # 9180 baskets, 4635 of index 60, 0 functions
    (60, 4, 2, 2, 1, 2),
)

# rungs up to this many baskets are also enumerated by the brute-force oracle
ORACLE_MAX_BASKETS = 1500

CHAIN_LENGTHS = (16, 24, 32, 48, 64, 96, 128)
# exceptional rank of the dense Grams, -(B^T B + I) as in the acceptance tests
GRAM_RANKS = (8, 12, 16, 20, 24, 28)
QUERIES_PER_RESOLUTION = 3
STRICT_CURVES = 2

# kind -> calls per pass
CLI_MIX = {
    "intersect": 192,  # 48 model documents, 2 JSON and 2 CSV calls each
    "hilbert": 192,  # 48 numerics documents, 2 JSON and 2 CSV calls each
    "bounds": 128,
    "example": 128,
    "invalid": 32,  # 16 kinds, twice each
}


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One closed-loop operation; ``check`` sees (exit code, stdout, stderr)."""

    label: str
    argv: Optional[list] = None
    check: Callable = None
    query: Optional[tuple] = None  # chain_intersect: (u, v) integer vectors


@dataclass
class Resolution:
    """A chain_intersect input: integer Gram, exceptional positions, queries."""

    gram: list
    exceptional: tuple
    chain: bool
    ops: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    warmup: Optional["Workload"]
    description: object  # canonical JSON-able form of every input
    files: dict = field(default_factory=dict)
    resolutions: list = field(default_factory=list)
    built: list = field(default_factory=list)  # folcan ResolutionData per resolution, last pass

    @property
    def inputs_digest(self) -> str:
        text = json.dumps(self.description, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def fmt(value) -> str:
    """Canonical ``p/q`` text, ``p`` alone when q = 1."""
    return str(F(value))


def output_digest(rc: int, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()


def generate(name: str, seed: int, workdir: Optional[str] = None) -> Workload:
    """Inputs of one pass; ``cli_docs`` writes its documents into ``workdir``."""
    rng = random.Random(f"folcan-bench/{name}/{seed}")
    if name == "enum_ladder":
        return _enum_ladder(rng, seed)
    if name == "chain_intersect":
        return _chain_intersect(rng, seed)
    if name == "cli_docs":
        workload = _cli_docs(rng, seed, workdir or "")
        if workdir is not None:
            for file_name, text in workload.files.items():
                with open(os.path.join(workdir, file_name), "w", encoding="utf-8") as handle:
                    handle.write(text)
        return workload
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- oracles

def own_q_index(profiles) -> int:
    indices = []
    for p in profiles:
        if p["kind"] == "TerminalCyclic":
            indices.append(p["n"])
        elif p["kind"] == "DihedralZero":
            indices.append(p.get("n", 2))
        elif p["kind"] == "DihedralHalf":
            indices.append(2)
    return math.lcm(*indices) if indices else 1


def own_local_term(profile, m: int) -> F:
    if m == 0:
        return F(0)
    kind = profile["kind"]
    if kind == "NonQGorCusp":
        return F(-1)
    if kind == "DihedralZero":
        return F(0)
    if kind == "DihedralHalf":
        return F(-1, 2) if m % 2 else F(0)
    n = profile["n"]
    r = m % n
    if "override" in profile:
        return F(profile["override"][r])
    return F(-r * (n - r), 2 * n)


def own_value(k1: F, k2: F, chi: int, profiles, m: int) -> F:
    return (k1 * m * m - k2 * m) / 2 + chi + sum((own_local_term(p, m) for p in profiles), F(0))


def own_apply(gram, v) -> list:
    return [sum((a * b for a, b in zip(row, v) if a and b), F(0)) for row in gram]


def own_pair(gram, u, v) -> F:
    return sum((a * b for a, b in zip(u, own_apply(gram, v))), F(0))


def own_solve(matrix, rhs) -> list:
    """Gauss-Jordan over Fraction with a nonzero pivot search."""
    n = len(matrix)
    rows = [[F(x) for x in row] + [F(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [x / head for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def check_pullback(gram, exceptional, strict, pulled) -> None:
    """Pullback = strict + exceptional correction, orthogonal to every E_j."""
    expect(len(pulled) == len(strict), "pullback has the wrong length")
    for i, (a, b) in enumerate(zip(strict, pulled)):
        expect(i in exceptional or a == b, f"pullback moved non-exceptional position {i}")
    image = own_apply(gram, pulled)
    for j in exceptional:
        expect(image[j] == 0, f"pullback pairs to {image[j]} with exceptional curve {j}")


def weil_oracle(res: Resolution, u, v) -> F:
    """u.v plus the exceptional correction, without folcan.

    For a (-2)-chain of length L the negated Gram is the A_L Cartan matrix,
    whose inverse is min(i,j)(L+1-max(i,j))/(L+1); dense Grams go through
    ``own_solve``. With b_w = (A w) restricted to the chain, the pullback
    of w adds x_w = -G^{-1} b_w and u*.v* = u.v - b_u G^{-1} b_v.
    """
    gram, exc = res.gram, res.exceptional
    au = [sum(a * b for a, b in zip(row, u)) for row in gram]
    av = [sum(a * b for a, b in zip(row, v)) for row in gram]
    base = F(sum(a * b for a, b in zip(u, av)))
    bu = [au[j] for j in exc]
    bv = [av[j] for j in exc]
    if res.chain:
        length = len(exc)
        total = 0
        for i, x in enumerate(bu, start=1):
            if x:
                for j, y in enumerate(bv, start=1):
                    if y:
                        total += x * y * min(i, j) * (length + 1 - max(i, j))
        return base + F(total, length + 1)
    block = [[gram[i][j] for j in exc] for i in exc]
    y = own_solve(block, bv)
    return base - sum((F(a) * b for a, b in zip(bu, y)), F(0))


# ---------------------------------------------------------------- enum_ladder

def basket_count(s: int, cap: int, max_cusps: int) -> int:
    letters = 1 + (2 if s % 2 == 0 else 0) + sum(1 for n in range(2, s + 1) if s % n == 0)
    return math.comb(letters + cap, cap) * (max_cusps + 1)


def _enum_ladder(rng: random.Random, seed: int) -> Workload:
    ops = []
    for s, cap, chi_size, max_cusps, parity, workers in ENUM_LADDER:
        k2 = parity + 2 * rng.randint(-3, 3)
        chis = sorted(rng.sample((0, 1, 2), chi_size))
        argv = [
            "enumerate", "--k1", "1", f"--k2={k2}", "--s", str(s),
            "--chi", ",".join(map(str, chis)), "--cap", str(cap), "--max-cusps", str(max_cusps),
        ]
        if workers > 1:
            argv += ["--workers", str(workers)]
        check = _enum_check(F(1), F(k2), s, cap, set(chis), max_cusps)
        ops.append(Op(label=f"enumerate s={s} cap={cap}", argv=argv, check=check))
    rng.shuffle(ops)
    warm = Op("warmup", ["enumerate", "--k1", "1", "--k2", "0", "--s", "2", "--chi", "1", "--cap", "2"])
    warmup = Workload("enum_ladder", seed, [warm], None, None)
    return Workload("enum_ladder", seed, ops, warmup, [op.argv for op in ops])


def own_enumeration(k1: F, k2: F, s: int, cap: int, chis, max_cusps: int) -> set:
    """Every integral table (m = 0 .. 2L) over baskets of index exactly s.

    Brute force from the documented local terms: letters whose index
    divides s, multisets of at most ``cap`` of them, 0..max_cusps cusps.
    """
    letters = [{"kind": "DihedralZero", "n": 1}]
    if s % 2 == 0:
        letters += [{"kind": "DihedralZero", "n": 2}, {"kind": "DihedralHalf"}]
    letters += [{"kind": "TerminalCyclic", "n": n} for n in range(2, s + 1) if s % n == 0]
    window = math.lcm(s, 2 * k1.denominator, 2 * k2.denominator)
    tables = set()
    for size in range(cap + 1):
        for combo in itertools.combinations_with_replacement(letters, size):
            if own_q_index(combo) != s:
                continue
            for cusps in range(max_cusps + 1):
                basket = list(combo) + [{"kind": "NonQGorCusp"}] * cusps
                for chi in chis:
                    values = [own_value(k1, k2, chi, basket, m) for m in range(2 * window + 1)]
                    if all(v.denominator == 1 for v in values):
                        tables.add(tuple(values))
    return tables


def _enum_check(k1, k2, s, cap, chis, max_cusps):
    def check(rc, out, err):
        expect(rc == 0, f"exit {rc}: {err[:200]}")
        data = json.loads(out)
        functions = data["functions"]
        expect(data["count"] == len(functions), "count differs from the function list")
        query = data["query"]
        expect(query["s"] == s and query["basket_cap"] == cap, "query echo differs")
        expect(set(query["chi_set"]) == chis and query["max_cusps"] == max_cusps, "query echo differs")
        for entry in functions:
            h = entry["function"]
            expect(F(h["k1"]) == k1 and F(h["k2"]) == k2, "function carries another (k1, k2)")
            expect(h["chi"] in chis, f"chi {h['chi']} outside the query")
            values = entry["values"]
            for text in values.values():
                expect(F(text).denominator == 1, f"listed value {text} is not an integer")
            expect(entry["witnesses"], "function without a witness")
            for basket in entry["witnesses"]:
                expect(own_q_index(basket) == s, f"witness q_index {own_q_index(basket)} != {s}")
                finite = [p for p in basket if p["kind"] != "NonQGorCusp"]
                expect(len(finite) <= cap, "witness above the basket cap")
                expect(len(basket) - len(finite) <= max_cusps, "witness above the cusp cap")
            first = entry["witnesses"][0]
            for m, text in values.items():
                expect(
                    own_value(k1, k2, h["chi"], first, int(m)) == F(text),
                    f"value at m={m} differs from the first witness",
                )
        if basket_count(s, cap, max_cusps) <= ORACLE_MAX_BASKETS:
            listed = {tuple(F(v) for _, v in sorted(e["values"].items(), key=lambda kv: int(kv[0])))
                      for e in functions}
            oracle = own_enumeration(k1, k2, s, cap, chis, max_cusps)
            expect(listed == oracle, f"{len(listed)} functions listed, brute force finds {len(oracle)}")
    return check


# ---------------------------------------------------------------- chain_intersect

def _chain_gram(rng: random.Random, length: int):
    n = STRICT_CURVES + length
    gram = [[0] * n for _ in range(n)]
    gram[0][0], gram[1][1] = rng.randint(-1, 3), rng.randint(-1, 3)
    gram[0][1] = gram[1][0] = rng.randint(0, 2)
    for i in range(STRICT_CURVES, n):
        gram[i][i] = -2
        if i + 1 < n:
            gram[i][i + 1] = gram[i + 1][i] = 1
    for strict, meets in ((0, 1), (1, 2)):
        for j in rng.sample(range(STRICT_CURVES, n), meets):
            gram[strict][j] = gram[j][strict] = 1
    return gram


def _dense_gram(rng: random.Random, ne: int):
    n = STRICT_CURVES + ne
    b = [[rng.randint(-3, 3) for _ in range(ne)] for _ in range(ne)]
    gram = [[0] * n for _ in range(n)]
    for i in range(ne):
        for j in range(ne):
            gram[STRICT_CURVES + i][STRICT_CURVES + j] = -sum(b[k][i] * b[k][j] for k in range(ne)) - (i == j)
    for i in range(STRICT_CURVES):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = rng.randint(-4, 4)
        for j in range(STRICT_CURVES, n):
            gram[i][j] = gram[j][i] = rng.randint(-3, 3)
    return gram


def _chain_intersect(rng: random.Random, seed: int) -> Workload:
    resolutions = [(_chain_gram(rng, length), True) for length in CHAIN_LENGTHS]
    resolutions += [(_dense_gram(rng, rank), False) for rank in GRAM_RANKS]
    built = []
    for gram, chain in resolutions:
        n = len(gram)
        res = Resolution(gram, tuple(range(STRICT_CURVES, n)), chain)
        for q in range(QUERIES_PER_RESOLUTION):
            u, v = [0] * n, [0] * n
            for w in (u, v):
                w[0], w[1] = rng.randint(-3, 3), rng.randint(1, 3)
                w[rng.randrange(STRICT_CURVES, n)] = rng.randint(-1, 1)
            query = (tuple(u), tuple(v))
            res.ops.append(Op(f"weil_intersect rank={n}", query=query, check=_weil_check(res, *query)))
        built.append(res)
    ops = [op for res in built for op in res.ops]
    warm_gram = _chain_gram(random.Random(0), 4)
    warm = Resolution(warm_gram, tuple(range(STRICT_CURVES, len(warm_gram))), True)
    warm.ops.append(Op("warmup", query=(tuple([1, 1] + [0] * 4), tuple([0, 1] + [0] * 4))))
    warmup = Workload("chain_intersect", seed, warm.ops, None, None, resolutions=[warm])
    description = [[res.gram, [op.query for op in res.ops]] for res in built]
    return Workload("chain_intersect", seed, ops, warmup, description, resolutions=built)


def _weil_check(res: Resolution, u, v):
    def check(rc, out, err):
        expect(rc == 0, f"raised: {err[:200]}")
        expected = weil_oracle(res, u, v)
        expect(out == fmt(expected) + "\n", f"value {out.strip()} != {fmt(expected)}")
    return check


# ---------------------------------------------------------------- cli_docs

def _rat(rng: random.Random, lo: int, hi: int, dens=(1, 2)) -> F:
    return F(rng.randint(lo, hi), rng.choice(dens))


# (strict curves, exceptional curves) of the model documents, cycled
MODEL_SHAPES = ((1, 2), (2, 3), (1, 5), (3, 4), (2, 6), (1, 7))


def _model_doc(rng: random.Random, i: int):
    ns, ne = MODEL_SHAPES[i % len(MODEL_SHAPES)]
    rank = ns + ne
    exc_block = [[0] * ne for _ in range(ne)]
    if i // len(MODEL_SHAPES) % 2:
        for a in range(ne):
            exc_block[a][a] = -2 if a else -rng.randint(2, 3)
            if a + 1 < ne:
                exc_block[a][a + 1] = exc_block[a + 1][a] = 1
    else:
        b = [[rng.randint(-2, 2) for _ in range(ne)] for _ in range(ne)]
        for a in range(ne):
            for c in range(ne):
                exc_block[a][c] = -sum(b[k][a] * b[k][c] for k in range(ne)) - (a == c)
    exceptional = sorted(rng.sample(range(rank), ne))
    strict = [i for i in range(rank) if i not in exceptional]
    gram = [[F(0)] * rank for _ in range(rank)]
    for a, p in enumerate(exceptional):
        for c, q in enumerate(exceptional):
            gram[p][q] = F(exc_block[a][c])
    for a, p in enumerate(strict):
        for q in strict[: a + 1]:
            gram[p][q] = gram[q][p] = F(rng.randint(-3, 3))
        for q in exceptional:
            gram[p][q] = gram[q][p] = F(rng.randint(-2, 2))
    vec = lambda: [_rat(rng, -3, 3) for _ in range(rank)]  # noqa: E731
    return {
        "basis_labels": [f"c{p}" for p in range(rank)],
        "pairing": [[fmt(x) for x in row] for row in gram],
        "canonical_class": [fmt(x) for x in vec()],
        "distinguished_classes": {"D": [fmt(x) for x in vec()]},
        "resolution": {
            "exceptional_indices": exceptional,
            "strict_transforms": {"S": [fmt(x) for x in vec()], "T": [fmt(x) for x in vec()]},
        },
    }


def _class_arg(rng: random.Random, doc, choice: str):
    """A --left/--right value of the given kind and the class vector it names."""
    rank = len(doc["basis_labels"])
    if choice in ("S", "T"):
        return choice, [F(x) for x in doc["resolution"]["strict_transforms"][choice]]
    if choice == "K":
        return "K", [F(x) for x in doc["canonical_class"]]
    if choice == "D":
        return "D", [F(x) for x in doc["distinguished_classes"]["D"]]
    if choice == "label":
        i = rng.randrange(rank)
        return f"c{i}", [F(int(i == j)) for j in range(rank)]
    v = [_rat(rng, -2, 2) for _ in range(rank)]
    return ",".join(fmt(x) for x in v), v


def _intersect_check(doc, left, right, fmt_kind):
    def check(rc, out, err):
        expect(rc == 0, f"exit {rc}: {err[:200]}")
        gram = [[F(x) for x in row] for row in doc["pairing"]]
        exceptional = set(doc["resolution"]["exceptional_indices"])
        if fmt_kind == "json":
            data = json.loads(out)
            got = {k: [F(x) for x in data[k]] for k in ("left", "right", "pullback_left", "pullback_right")}
            value = F(data["value"])
        else:
            rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
            got = {k: [F(x) for x in rows[k].split(" ")] for k in ("left", "right", "pullback_left", "pullback_right")}
            value = F(rows["value"])
        expect(got["left"] == left and got["right"] == right, "classes differ from the arguments")
        check_pullback(gram, exceptional, left, got["pullback_left"])
        check_pullback(gram, exceptional, right, got["pullback_right"])
        expect(value == own_pair(gram, got["pullback_left"], got["pullback_right"]), "value differs")
    return check


def _numerics_doc(rng: random.Random, i: int):
    size = i // 2 % 5
    if i % 2:
        # integral by construction: k1 m(m-1)/2 and (k1-k2) m/2 are integers
        k1 = rng.randint(1, 8)
        k1, k2 = F(k1), F(k1 + 2 * rng.randint(-3, 3))
        basket = [rng.choice(({"kind": "NonQGorCusp"}, {"kind": "DihedralZero", "n": 1}, {"kind": "DihedralZero"}))
                  for _ in range(size)]
    else:
        k1, k2 = _rat(rng, 1, 12, (1, 2, 4)), _rat(rng, -10, 10)
        basket = []
        for _ in range(size):
            kind = rng.choice(("TerminalCyclic", "TerminalCyclic", "DihedralZero", "DihedralHalf", "NonQGorCusp"))
            profile = {"kind": kind}
            if kind == "TerminalCyclic":
                n = rng.randint(2, 7)
                profile["n"] = n
                if rng.random() < 0.2:
                    profile["override"] = ["0"] + [fmt(F(-rng.randint(0, 3), 2 * n)) for _ in range(n - 1)]
            elif kind == "DihedralZero" and rng.random() < 0.5:
                profile["n"] = rng.choice((1, 2))
            basket.append(profile)
    return {"k1": fmt(k1), "k2": fmt(k2), "chi": rng.randint(-3, 5), "basket": basket}


def _hilbert_check(doc, mmax, fmt_kind):
    def check(rc, out, err):
        expect(rc == 0, f"exit {rc}: {err[:200]}")
        k1, k2, chi, basket = F(doc["k1"]), F(doc["k2"]), doc["chi"], doc["basket"]
        expected = [own_value(k1, k2, chi, basket, m) for m in range(mmax + 1)]
        window = math.lcm(own_q_index(basket), 2 * k1.denominator, 2 * k2.denominator)
        integral = all(own_value(k1, k2, chi, basket, m).denominator == 1 for m in range(2 * window))
        if fmt_kind == "json":
            data = json.loads(out)
            got = [(m, F(v)) for m, v in data["values"]]
            expect(data["integral"] == integral, "integrality verdict differs")
            expect(("hilbert_function" in data) == integral, "hilbert_function presence differs")
        else:
            got = [(int(m), F(v)) for m, v in (line.split(",") for line in out.splitlines()[1:])]
        expect(got == list(enumerate(expected)), "table values differ")
    return check


def _bounds_case(rng: random.Random):
    k1, k2, s = _rat(rng, 1, 9, (1, 2, 3)), _rat(rng, -9, 9), rng.randint(1, 12)
    kx2 = _rat(rng, -50, 50, (1, 3)) if rng.random() < 0.5 else None
    argv = ["bounds", f"--k1={fmt(k1)}", f"--k2={fmt(k2)}", "--s", str(s)]
    if kx2 is not None:
        argv.append(f"--kx2={fmt(kx2)}")
    upper = k2 * k2 / k1
    lower = -(16 * s * s * k1 + 8 * s * k2)
    variant = -(16 * s * k1 + 8 * s * k2)
    expected = {"kx2_upper": fmt(upper), "kx2_lower_exclusive": fmt(lower), "interval_empty": lower >= upper}
    if variant != lower:
        expected["kx2_lower_exclusive_variant"] = fmt(variant)
    if kx2 is not None:
        expected["D_squared"] = fmt(16 * s * s * k1 + 8 * s * k2 + kx2)
        expected["D_dot_KX"] = fmt(4 * s * k2 + kx2)
        expected["kx2_in_window"] = lower < kx2 <= upper
    return argv, expected


def _bounds_check(expected, fmt_kind):
    def check(rc, out, err):
        expect(rc == 0, f"exit {rc}: {err[:200]}")
        if fmt_kind == "json":
            expect(json.loads(out) == expected, "bound window differs")
        else:
            rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
            want = {k: (str(v).lower() if isinstance(v, bool) else v) for k, v in expected.items()}
            expect(rows == want, "bound window differs")
    return check


def _example_case(rng: random.Random, i: int):
    if i // 2 % 2:
        params = {"k": 2 * rng.randint(1, 4), "g": rng.randint(2, 6), "q": rng.randint(0, 5)}
        family, sweepable = "ruled", {"g": (2, 6), "q": (0, 5)}
    else:
        params = {"d": rng.randint(2, 4), "n": rng.randint(0, 5)}
        family, sweepable = "abelian", {"d": (2, 5), "n": (0, 5)}
    argv = ["example", family] + [f"--{k}={v}" for k, v in params.items()]
    sweep = None
    if i // 4 % 2:
        name = rng.choice(sorted(sweepable))
        lo = rng.randint(*sweepable[name])
        sweep = (name, lo, lo + i // 8 % 5)
        argv.append(f"--sweep={name}={sweep[1]}..{sweep[2]}")
    return family, params, sweep, argv


def _family_numbers(family, p):
    if family == "ruled":
        kf2 = 2 * p["k"] * p["g"] * (p["g"] - 1)
        return kf2, kf2 + 4 * (p["g"] - 1) * (p["q"] - 1), p["g"]
    kf2 = 4 * p["d"] ** 2
    return kf2, kf2, p["d"] * (p["n"] ** 2 + 1) + 1


def _example_check(family, params, sweep, fmt_kind):
    if sweep is None:
        rows = [(None, _family_numbers(family, params))]
    else:
        name, lo, hi = sweep
        rows = [(v, _family_numbers(family, {**params, name: v})) for v in range(lo, hi + 1)]

    def check(rc, out, err):
        expect(rc == 0, f"exit {rc}: {err[:200]}")
        if fmt_kind == "json":
            data = json.loads(out)
            items = [data] if sweep is None else data
            expect(len(items) == len(rows), "sweep length differs")
            for item, (value, (kf2, kfkx, genus)) in zip(items, rows):
                expect(sweep is None or item[sweep[0]] == value, "sweep parameter differs")
                got = (F(item["kf2"]), F(item["kf_dot_kx"]), item["fiber_genus"])
                expect(got == (kf2, kfkx, genus), f"family numbers {got} differ")
        elif sweep is None:
            table = dict(line.split(",", 1) for line in out.splitlines()[1:])
            got = (F(table["kf2"]), F(table["kf_dot_kx"]), int(table["fiber_genus"]))
            expect(got == rows[0][1], f"family numbers {got} differ")
        else:
            lines = [line.split(",") for line in out.splitlines()[1:]]
            expect(len(lines) == len(rows), "sweep length differs")
            for (v, kf2, kfkx, genus), (value, numbers) in zip(lines, rows):
                expect(int(v) == value and (F(kf2), F(kfkx), int(genus)) == numbers, "sweep row differs")
    return check


def _error_check(code_expected: int, error_code: str):
    def check(rc, out, err):
        expect(rc == code_expected, f"exit {rc}, expected {code_expected}")
        expect(out == "", "stdout is not empty on error")
        expect(json.loads(err)["error"]["code"] == error_code, f"error code is not {error_code}")
    return check


def _invalid_cases(rng: random.Random, valid_model, valid_numerics):
    """(document text or None, function of the path giving argv, exit code, error code) per kind."""
    model = json.loads(json.dumps(valid_model))
    bad_nd = json.loads(json.dumps(valid_model))
    j = bad_nd["resolution"]["exceptional_indices"][0]
    bad_nd["pairing"][j][j] = rng.choice(("0", "1", "2"))
    asym = json.loads(json.dumps(valid_model))
    asym["basis_labels"].append("x")
    asym["pairing"] = [row + ["0"] for row in asym["pairing"]] + [["1"] * len(asym["basis_labels"])]
    asym["canonical_class"] = asym["canonical_class"] + ["0"]
    asym["distinguished_classes"] = {}
    asym.pop("resolution")
    missing = {k: v for k, v in model.items() if k != "pairing"}
    floaty = json.loads(json.dumps(valid_model))
    floaty["pairing"][0][0] = 1.5
    num = valid_numerics
    n = rng.randint(2, 5)
    dumps = lambda d: json.dumps(d, sort_keys=True)  # noqa: E731
    intersect = lambda path: ["intersect", "--model", path, "--left", "S", "--right", "T"]  # noqa: E731
    hilbert = lambda path: ["hilbert", "--numerics", path, "--mmax", "12"]  # noqa: E731
    return [
        (dumps(model)[: rng.randint(10, 40)], intersect, 1, "json_parse_error"),
        (dumps(missing), intersect, 1, "document_error"),
        (dumps(floaty), intersect, 1, "document_error"),
        (dumps(bad_nd), intersect, 2, "not_negative_definite"),
        (dumps(asym), lambda p: ["intersect", "--model", p, "--left", "K", "--right", "x"], 2, "invalid_input"),
        (dumps(model), lambda p: ["intersect", "--model", p, "--left", "S", "--right", "nope"], 2, "invalid_input"),
        (None, lambda p: ["intersect", "--model", p + ".missing", "--left", "S", "--right", "T"], 1, "io_error"),
        (dumps({**num, "basket": [{"kind": "Smooth"}]}), hilbert, 1, "document_error"),
        (dumps({**num, "basket": [{"kind": "TerminalCyclic", "n": 1}]}), hilbert, 2, "invalid_input"),
        (dumps({**num, "basket": [{"kind": "TerminalCyclic", "n": n, "override": ["0"] + ["1/2"] * (n - 1)}]}),
         hilbert, 2, "invalid_override"),
        (dumps({**num, "chi": str(num["chi"])}), hilbert, 1, "document_error"),
        (dumps({**num, "k1": f"{rng.randint(1, 9)}/0"}), hilbert, 1, "document_error"),
        (dumps(num), lambda p: ["hilbert", "--numerics", p, f"--mmax=-{rng.randint(1, 9)}"], 2, "invalid_input"),
        (None, lambda p: ["bounds", f"--k1={fmt(-_rat(rng, 0, 5))}", "--k2", "1", "--s", "2"], 2,
         "non_positive_volume"),
        (None, lambda p: ["example", "ruled", "--k", str(2 * rng.randint(0, 3) + 1), "--g", "2", "--q", "0"],
         2, "invalid_input"),
        (None, lambda p: ["example", "abelian", "--d", "2", "--n", "1", "--sweep", "q=1..3"], 2, "invalid_input"),
    ]


def _cli_docs(rng: random.Random, seed: int, workdir: str) -> Workload:
    files: dict[str, str] = {}
    ops: list[Op] = []

    def add_file(prefix: str, text: str) -> str:
        name = f"{prefix}_{len(files):04d}.json"
        files[name] = text
        return name

    docs_per_kind = CLI_MIX["intersect"] // 4
    models = [_model_doc(rng, i) for i in range(docs_per_kind)]
    class_kinds = itertools.cycle(("S", "T", "K", "D", "label", "vector", "T"))
    for doc in models:
        name = add_file("model", json.dumps(doc, sort_keys=True, indent=1))
        for fmt_kind in ("json", "json", "csv", "csv"):
            left, lvec = _class_arg(rng, doc, next(class_kinds))
            right, rvec = _class_arg(rng, doc, next(class_kinds))
            argv = ["--format", fmt_kind, "intersect", "--model", name, f"--left={left}", f"--right={right}"]
            ops.append(Op("intersect " + fmt_kind, argv, _intersect_check(doc, lvec, rvec, fmt_kind)))
    numerics = [_numerics_doc(rng, i) for i in range(CLI_MIX["hilbert"] // 4)]
    mmaxes = [10 + 50 * i // (CLI_MIX["hilbert"] - 1) for i in range(CLI_MIX["hilbert"])]
    rng.shuffle(mmaxes)
    for doc in numerics:
        name = add_file("numerics", json.dumps(doc, sort_keys=True, indent=1))
        for fmt_kind in ("json", "json", "csv", "csv"):
            mmax = mmaxes.pop()
            argv = ["hilbert", "--numerics", name, "--mmax", str(mmax), "--format", fmt_kind]
            ops.append(Op("hilbert " + fmt_kind, argv, _hilbert_check(doc, mmax, fmt_kind)))
    for i in range(CLI_MIX["bounds"]):
        fmt_kind = ("json", "csv")[i % 2]
        argv, expected = _bounds_case(rng)
        ops.append(Op("bounds " + fmt_kind, ["--format", fmt_kind] + argv, _bounds_check(expected, fmt_kind)))
    for i in range(CLI_MIX["example"]):
        fmt_kind = ("json", "csv")[i % 2]
        family, params, sweep, argv = _example_case(rng, i)
        ops.append(Op("example " + fmt_kind, argv + ["--format", fmt_kind],
                      _example_check(family, params, sweep, fmt_kind)))
    kinds = None
    for i in range(CLI_MIX["invalid"]):
        if i % 16 == 0:
            kinds = _invalid_cases(rng, rng.choice(models), rng.choice(numerics))
        text, build, rc, code = kinds[i % 16]
        name = add_file("invalid", text) if text is not None else f"absent_{i:04d}.json"
        ops.append(Op(f"invalid {code}", build(name), _error_check(rc, code)))
    rng.shuffle(ops)
    description = {"argv": [op.argv for op in ops], "files": files}
    for op in ops:
        op.argv = [os.path.join(workdir, a) if a.endswith((".json", ".missing")) else a for a in op.argv]
    warmup = Workload("cli_docs", seed, ops[:30], None, None)
    return Workload("cli_docs", seed, ops, warmup, description, files=files)


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    rc = cli.run(argv, out, err)
    return rc, out.getvalue(), err.getvalue()
