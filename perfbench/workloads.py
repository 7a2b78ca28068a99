"""The three benchmark workloads and their correctness oracles.

Each workload builds its inputs in `__init__` (the set-up the benchmark
times), runs one pass over them in `execute` (the part it times), and checks
the outputs of a pass in `check`, outside the timed region.  A unit is one
timed call into matchlab: a subset pair for `census` and `integers`, one CLI
invocation for `certify`.

The oracles do not reuse the code under test where that is cheap: integer
matching counts come from a bitmask DP here, the m = 2 / m = 6 closed forms
are recomputed with `math.comb`, and "no matching" certificates are checked
with a Hall violation.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import os
import random
import sys
import types
from dataclasses import dataclass, field
from time import perf_counter

MODULES = ("groups", "matching", "genfun", "certify", "cli")


class SetupError(Exception):
    """The workload's inputs cannot be built, for example because the
    checkout holds no matchlab source tree."""


def source_dir(root: str) -> str:
    """`root/src`, if it holds the matchlab package."""
    src = os.path.join(root, "src")
    init = os.path.join(src, "matchlab", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no matchlab package at {init}")
    return src


def load_matchlab(root: str) -> types.SimpleNamespace:
    """Import matchlab afresh from `root/src`, dropping any loaded copy, so
    that every call pays the import cost."""
    src = source_dir(root)
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "matchlab" or n.startswith("matchlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"matchlab.{name}") for name in MODULES}
    loaded = os.path.realpath(mods["groups"].__file__)
    if not loaded.startswith(os.path.realpath(src) + os.sep):
        raise SetupError(f"matchlab imported from {loaded}, not from {src}")
    return types.SimpleNamespace(**mods)


@dataclass
class PassOutput:
    """One pass: the time of each unit, the time of any other timed call
    (in a fixed order), the matching count of its inputs, deterministic work
    counts, and raw outputs for `check`."""

    unit_s: list[float]
    extra_s: list[float]
    matchings: int
    outputs: object
    work: dict[str, int] = field(default_factory=dict)


@dataclass
class Failure:
    op: str
    message: str
    known_defect: bool = False


def _closed_form(n: int, m: int) -> dict[tuple[int, int, int], int]:
    """Binomial closed form of the standard pair's generating function,
    computed independently of matchlab.genfun."""
    comb = lambda a, b: math.comb(a, b) if 0 <= b <= a else 0  # noqa: E731
    out = {}
    target = n + m - 4
    for w0 in range(target // 3 + 1):
        rest = target - 3 * w0
        if rest % 2:
            continue
        w1 = rest // 2
        w3 = n - 3 - w0 - w1
        if w3 < 0:
            continue
        s = w0 + w1
        if m == 2:
            c = comb(s, w1)
        else:
            c = comb(s - 2, w1) + comb(s - 3, w1 - 1) + comb(s - 3, w1 - 3)
        if c:
            out[(w0, w1, w3)] = c
    return out


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# census: every valid pair of Z/nZ


# pairs / matchable / acyclically matchable, from the exhaustive sweep
CENSUS_FIXTURE = {
    7: (1715, 1715, 1659),
    8: (6434, 6062, 5862),
    9: (24309, 23796, 23526),
    10: (92377, 89427, 87947),
}
AMP_HOLDS = frozenset({1, 2, 3, 5})


class Census:
    """`matching_exists` and `acyclicity_report` on every valid pair of
    Z/nZ, then `verify_group_amp` on Z/qZ for q = 2..n with and without
    unit-scaling symmetry.  The inputs are exhaustive, so the seed is
    unused."""

    name = "census"

    def __init__(self, ml, seed: int, n: int = 10):
        self.ml = ml
        self.n = n
        g = ml.groups.cyclic(n)
        pair = ml.matching.SubsetPair
        self.pairs = [
            pair(g, a, b)
            for k in range(1, n)
            for a in itertools.combinations(range(n), k)
            for b in itertools.combinations(range(1, n), k)
        ]
        self.groups = [ml.groups.cyclic(q) for q in range(2, n + 1)]
        self.units = len(self.pairs)
        self.attempted = len(self.pairs) + 2 * len(self.groups)

    def execute(self, mark=None) -> PassOutput:
        m = self.ml.matching
        unit_s = []
        matchable = acyclic = matchings = 0
        disagree = []
        for i, pair in enumerate(self.pairs):
            if mark is not None:
                mark(i)
            t0 = perf_counter()
            exists = m.matching_exists(pair)
            report = m.acyclicity_report(pair)
            unit_s.append(perf_counter() - t0)
            matchable += exists
            acyclic += report.has_acyclic
            matchings += report.total_matchings
            if exists != (report.total_matchings > 0):
                disagree.append(pair)
            del report
        verdicts, extra_s = [], []
        for g in self.groups:
            if mark is not None:
                mark(-g.modulus)
            t0 = perf_counter()
            reduced = m.verify_group_amp(g, True, exhaustive_bound=self.n)
            t1 = perf_counter()
            full = m.verify_group_amp(g, False, exhaustive_bound=self.n)
            extra_s += [t1 - t0, perf_counter() - t1]
            verdicts.append((g.modulus, reduced, full))
        totals = (len(self.pairs), matchable, acyclic)
        return PassOutput(unit_s, extra_s, matchings, (totals, disagree, verdicts),
                          {"pairs": len(self.pairs), "matchings": matchings})

    def check(self, out: PassOutput) -> list[Failure]:
        totals, disagree, verdicts = out.outputs
        failures = [
            Failure(f"pair A={list(p.a)} B={list(p.b)}",
                    "matching_exists disagrees with total_matchings > 0")
            for p in disagree
        ]
        expected = CENSUS_FIXTURE.get(self.n)
        if expected is not None and totals != expected:
            failures.append(Failure(f"census Z/{self.n}Z",
                                    f"totals {totals} != fixture {expected}"))
        for q, reduced, full in verdicts:
            op = f"verify_group_amp Z/{q}Z"
            if reduced.holds != (q in AMP_HOLDS) or full.holds != (q in AMP_HOLDS):
                failures.append(Failure(op, f"holds={reduced.holds}/{full.holds}"))
            ce = lambda r: r.counterexample and (r.counterexample.a, r.counterexample.b)  # noqa: E731
            if ce(reduced) != ce(full) or reduced.pairs_checked != full.pairs_checked:
                failures.append(Failure(op, "symmetric and unreduced searches disagree"))
        return failures


# ---------------------------------------------------------------------------
# integers: seeded dense pairs in Z

INT_SPAN = 12
INT_SIZES = (8, 9)
# Matching-count ladder: one pair per rung, with its count within
# RUNG_TOLERANCE of the rung.  Runs with different seeds then enumerate
# nearly the same number of matchings, so their times can be compared.
# A matching of a 9-element pair costs ~20% more than one of an 8-element
# pair, so the size is fixed per rung as well: 8 below SIZE_9_FROM matchings
# (where 95% of random 8-element pairs lie), 9 from there on.  The switch
# sits above the middle rungs, so unit_p50_ms does not straddle it.
RUNG_LOW, RUNG_HIGH, RUNGS = 3000, 33000, 68
RUNG_TOLERANCE = 0.03
SIZE_9_FROM = 12_000
# Each rung takes the closest unused pair from a pool of POOL_PER_SIZE random
# pairs of its size.  A fixed pool keeps set-up work the same for every seed,
# where drawing until a pair fits would not.
POOL_PER_SIZE = 1000


def count_matchings(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Number of bijections f: A -> B with a + f(a) not in A, by a DP over
    the set of used elements of B."""
    a_set = set(a)
    allowed = [[j for j, y in enumerate(b) if x + y not in a_set] for x in a]
    ways = {0: 1}
    for options in allowed:
        nxt: dict[int, int] = {}
        for used, c in ways.items():
            for j in options:
                bit = 1 << j
                if not used & bit:
                    nxt[used | bit] = nxt.get(used | bit, 0) + c
        ways = nxt
    return sum(ways.values())


def sample_integer_pairs(seed: int, rungs: int = RUNGS) -> list[tuple[tuple, tuple, int]]:
    """One pair (A, B, matching count) per rung of the ladder, drawn from
    `random.Random(seed)`: |A| = |B| in INT_SIZES, elements in
    [-INT_SPAN, INT_SPAN], 0 not in B."""
    rng = random.Random(seed)
    universe = list(range(-INT_SPAN, INT_SPAN + 1))
    universe_b = [x for x in universe if x != 0]
    pools = {}
    for k in INT_SIZES:
        pools[k] = []
        for _ in range(POOL_PER_SIZE):
            a = tuple(sorted(rng.sample(universe, k)))
            b = tuple(sorted(rng.sample(universe_b, k)))
            pools[k].append((a, b, count_matchings(a, b)))
    ratio = RUNG_HIGH / RUNG_LOW
    out, used = [], set()
    for r in range(rungs):
        target = RUNG_LOW * ratio ** (r / max(rungs - 1, 1))
        k = INT_SIZES[target >= SIZE_9_FROM]
        a, b, count = min((p for p in pools[k] if p[:2] not in used),
                          key=lambda p: abs(p[2] - target))
        if abs(count - target) > RUNG_TOLERANCE * target:
            raise SetupError(f"no pair near {target:.0f} matchings for seed {seed}")
        used.add((a, b))
        out.append((a, b, count))
    return out


class Integers:
    """`acyclicity_report` on seeded dense subset pairs of Z."""

    name = "integers"

    def __init__(self, ml, seed: int, rungs: int = RUNGS):
        self.ml = ml
        g = ml.groups.integers()
        self.inputs = sample_integer_pairs(seed, rungs)
        self.pairs = [ml.matching.SubsetPair(g, a, b) for a, b, _ in self.inputs]
        self.units = self.attempted = len(self.pairs)

    def execute(self, mark=None) -> PassOutput:
        report_of = self.ml.matching.acyclicity_report
        unit_s, results = [], []
        matchings = 0
        for i, pair in enumerate(self.pairs):
            if mark is not None:
                mark(i)
            # Start every pair from the same collector state, so its time
            # does not depend on garbage the previous pair left behind.
            gc.collect()
            t0 = perf_counter()
            report = report_of(pair)
            unit_s.append(perf_counter() - t0)
            witness = report.acyclic_witness
            results.append((report.total_matchings,
                            None if witness is None else witness.assignment))
            matchings += report.total_matchings
            # Free this pair's matchings before the next pair runs.
            del report, witness
        return PassOutput(unit_s, [], matchings, results,
                          {"pairs": len(self.pairs), "matchings": matchings})

    def check(self, out: PassOutput) -> list[Failure]:
        failures = []
        for (a, b, count), (total, witness) in zip(self.inputs, out.outputs):
            op = f"acyclicity_report A={list(a)} B={list(b)}"
            if total != count:
                failures.append(Failure(op, f"total_matchings {total} != {count}"))
            if witness is None:
                failures.append(Failure(op, "no acyclic witness in a torsion-free group"))
            elif sorted(witness) != list(b) or any(x + y in a for x, y in zip(a, witness)):
                failures.append(Failure(op, f"witness {list(witness)} is not a matching"))
        return failures


# ---------------------------------------------------------------------------
# certify: the CLI driven in-process

GENFUN_CASES = (
    (7, 2), (8, 2), (10, 6), (11, 6), (13, 2), (14, 6), (17, 2),
    (50, 2), (100, 2), (100, 6), (150, 2), (161, 6),
)
REPORT_RANGE = (1, 8)
I64_MAX = 2**63 - 1
EXIT_OK, EXIT_USAGE, EXIT_BOUND = 0, 2, 3

# Failures that are documented defects of the program, reported in `failed`
# on every pass rather than hidden by choosing other inputs.
KNOWN_DEFECTS = {
    "certify 167": "the 64-bit coefficient cap exits 2 (usage error); "
                   "documented meaning is 3 (resource bound), or 0 once the cap is lifted",
}


@dataclass
class CliOp:
    label: str
    argv: list[str]
    kind: str
    n: int = 0
    m: int = 0


class Certify:
    """`matchlab certify n` for n = 4..certify_max, `genfun n m --check` on
    GENFUN_CASES and `report 1..8 --format json`, each through
    `matchlab.cli.main`.  The inputs are a fixed list, so the seed is unused.

    Each call's standard output is captured in memory and re-checked, not
    written with `--out`: on a 2-core machine with ext4 mounted with
    `discard`, creating and removing some 4,000 files a run made the median
    call drift by ~20% from one run to the next."""

    name = "certify"

    def __init__(self, ml, seed: int, certify_max: int = 167):
        self.ml = ml
        self.ops: list[CliOp] = []
        for n in range(4, certify_max + 1):
            self.ops.append(CliOp(f"certify {n}", ["certify", str(n)], "certify", n))
        for n, m in GENFUN_CASES:
            self.ops.append(CliOp(f"genfun {n} {m} --check",
                                  ["--format", "json", "genfun", str(n), str(m), "--check"],
                                  "genfun", n, m))
        lo, hi = REPORT_RANGE
        self.ops.append(CliOp(f"report {lo}..{hi}",
                              ["--format", "json", "report", f"{lo}..{hi}"], "report"))
        # The matching count of every standard pair the workload certifies
        # or expands, from the closed form: a property of the inputs.
        self.expected = {}
        for op in self.ops:
            if op.kind == "certify" and op.n > 5 and _is_prime(op.n):
                op.m = 2 if op.n % 6 == 1 else 6
            if op.m:
                self.expected[op.label] = _closed_form(op.n, op.m)
        self.matchings = sum(sum(p.values()) for p in self.expected.values())
        self.units = self.attempted = len(self.ops)

    def execute(self, mark=None) -> PassOutput:
        main = self.ml.cli.main
        unit_s, results = [], []
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            for i, op in enumerate(self.ops):
                if mark is not None:
                    mark(i)
                for sink in (stdout, stderr):
                    sink.seek(0)
                    sink.truncate()
                t0 = perf_counter()
                try:
                    code = main(op.argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash is a failed operation, not the end of the run
                    code = f"{type(exc).__name__}: {exc}"
                unit_s.append(perf_counter() - t0)
                results.append((code, stdout.getvalue(), stderr.getvalue()[-300:].strip()))
        cert_bytes = sum(len(text.encode()) for op, (_, text, _) in zip(self.ops, results)
                         if op.kind == "certify")
        return PassOutput(unit_s, [], self.matchings, results, {"certify.bytes": cert_bytes})

    def check(self, out: PassOutput) -> list[Failure]:
        failures = []
        for op, (code, text, err) in zip(self.ops, out.outputs):
            try:
                problem = self._check_op(op, code, text)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                detail = f"{problem}; stderr: {err}" if err else problem
                failures.append(Failure(op.label, detail, op.label in KNOWN_DEFECTS))
        return failures

    def _poly_matches(self, op: CliOp, terms) -> str | None:
        parsed = self.ml.genfun.GenPoly.from_json_terms(terms)
        if dict(parsed.items()) != self.expected[op.label]:
            return "generating function differs from the closed form"
        return None

    def _check_op(self, op: CliOp, code, text: str) -> str | None:
        if op.kind == "certify":
            return self._check_certificate(op, code, text)
        if code != EXIT_OK:
            return f"exit {code}, expected 0"
        data = json.loads(text)
        if op.kind == "genfun":
            methods = {"transfer", "closed"} | ({"brute"} if op.n - 3 <= 20 else set())
            check = data.get("check") or {}
            if (data.get("n"), data.get("m")) != (op.n, op.m):
                return "wrong (n, m) in output"
            if not check.get("agree") or set(check.get("methods", ())) != methods:
                return f"cross-check {check} does not cover {sorted(methods)}"
            return self._poly_matches(op, data["terms"])
        rows = data.get("rows", [])
        lo, hi = REPORT_RANGE
        if [r["n"] for r in rows] != list(range(lo, hi + 1)):
            return "report rows do not cover the range"
        for r in rows:
            want = "holds" if r["n"] in AMP_HOLDS else "fails"
            if r["verdict"] != want or r["verified"] is not True:
                return f"row {r} should read {want}, verified"
        return None

    def _check_certificate(self, op: CliOp, code, text: str) -> str | None:
        n = op.n
        if n <= 5 and _is_prime(n):
            return None if code == EXIT_USAGE else f"exit {code}, expected 2 (no certificate applies)"
        past_cap = bool(op.m) and max(self.expected[op.label].values()) > I64_MAX
        if past_cap and code == EXIT_BOUND:
            return None
        if code != EXIT_OK:
            return f"exit {code}, expected {'3 or 0' if past_cap else '0'}"
        cert = json.loads(text)
        claim = "coprime6_failure" if op.m else "nonprime_failure"
        if (cert.get("schema_version"), cert.get("claim"), cert.get("descriptor")) != (
                1, claim, f"Z/{n}Z"):
            return f"unexpected header {cert.get('claim')} {cert.get('descriptor')}"
        if cert.get("verified") is not True:
            return "certificate not verified"
        ev = cert["evidence"]
        if op.m:
            if ev.get("m") != op.m:
                return f"witness m = {ev.get('m')}, expected {op.m}"
            if any(t["c"] < 2 for t in ev["genfun"]):
                return "a coefficient below 2 would give an acyclic matching"
            return self._poly_matches(op, ev["genfun"])
        a, b = ev["pair"]["a"], ev["pair"]["b"]
        a_set = set(a)
        neighbours = {y for x in a for y in b if (x + y) % n not in a_set}
        if len(a) != len(b) or 0 in b or len(neighbours) >= len(a):
            return "pair does not violate Hall's condition"
        return None


WORKLOADS = {w.name: w for w in (Census, Integers, Certify)}
