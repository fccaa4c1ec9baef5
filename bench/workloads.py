"""The benchmark's workloads: fixed lists of tcc CLI commands and their expected answers.

Each command is an Op.  Its check receives the exit code and the parsed
JSON object and returns the problems found; every expected value comes
from reference.py or from the command's own arguments, never from tcc.
"""

import json
import math
import random
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable

import reference as ref

BIG_PRIME = 2**31 - 1
EXIT_OK = 0
EXIT_FAILURE = 2


@dataclass
class Op:
    name: str
    argv: list[str]
    expect_exit: int
    check: Callable[[dict], list[str]]
    # Work units the op performs: sweep tuples, commands or decodes, per workload.
    work: int = 0

    def problems(self, exit_code: int, stdout: str) -> list[str]:
        if exit_code != self.expect_exit:
            return [f"exit code {exit_code}, expected {self.expect_exit}"]
        try:
            out = json.loads(stdout)
        except ValueError:
            return ["stdout is not one JSON object"]
        return self.check(out)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # The op whose time end-to-end key_op_s reports.
    key_op: str
    # The ops whose summed time guard_op_s reports: work an optimisation
    # aimed at key_op should leave unchanged.
    guard_ops: list[str]
    # Files the ops read, written into the work directory at set-up.
    files: dict[str, str] = field(default_factory=dict)
    # Reported rates: work units per second over the named ops.
    rates: dict[str, list[str]] = field(default_factory=dict)
    # The speed.py loop whose slowdown tracks this workload's.
    probe: str = "python"


def _mismatches(out: dict, expected: dict) -> list[str]:
    return [f"{k} = {out.get(k)!r}, expected {v!r}" for k, v in expected.items() if out.get(k) != v]


def _comb_flags(n, p, x, y, a=None) -> list[str]:
    flags = ["--n", str(n), "--p", str(p), "--x", str(x), "--y", str(y)]
    return flags + (["--a", str(a)] if a is not None else []) + ["--json"]


# --- verify-grid -----------------------------------------------------------


def verify_op(p_max: int, n_max: int) -> Op:
    """One `verify` sweep; every row is checked against the closed forms."""
    primes = list(filter(ref.is_prime, range(2, p_max + 1)))
    tuples = sum(p**3 for p in primes) * (n_max - 1)

    @cache
    def grid():
        # Built at the first check, not at set-up, so that neither setup_s
        # nor the first pass's peak_rss_mb includes it.
        expected = {}
        for p in primes:
            for n in range(2, n_max + 1):
                for x in range(p):
                    for y in range(p):
                        for a in range(p):
                            expected[(p, n, x, y, a)] = ref.hypotheses_met(p, n, x, y, a), ref.comb_dim(n, p, x, y, a)
        return expected, sum(hyp for hyp, _ in expected.values())

    def check(out):
        expected, hyp_count = grid()
        problems = _mismatches(out, {"ok": True, "tuples": tuples, "hypothesis_tuples": hyp_count})
        rows = out.get("rows", [])
        seen = set()
        for row in rows:
            key = tuple(row.get(k) for k in "pnxya")
            seen.add(key)
            if key not in expected:
                problems.append(f"unexpected row {key}")
                continue
            hyp, dim = expected[key]
            n = key[1]
            want = {"hypotheses_met": hyp}
            if hyp:
                # The theorem: C(A, a) = span(J), an [n^2, 1, n^2] MDS code.
                want.update(dim=1, min_distance=n * n, mds=True, matches_theorem=True)
            elif dim is not None:
                want["dim"] = dim
            problems += [f"row {key}: {m}" for m in _mismatches(row, want)]
        if len(rows) != len(expected) or seen != expected.keys():
            problems.append(f"{len(rows)} rows cover {len(seen)} of {len(expected)} tuples")
        return problems

    argv = ["verify", "--p-max", str(p_max), "--n-max", str(n_max), "--json"]
    return Op("sweep", argv, EXIT_OK, check, work=tuples)


def verify_grid(seed: int, tiny: bool) -> Workload:
    # The sweep is the same for every seed: its inputs are the whole grid.
    op = verify_op(5, 3) if tiny else verify_op(13, 6)
    # One command only, so the guard is the sweep itself.
    return Workload("verify-grid", [op], key_op="sweep", guard_ops=["sweep"], rates={"tuples_per_s": ["sweep"]})


# --- large-instance --------------------------------------------------------


def build_op(name: str, n: int, p: int, x: int, y: int, a: int) -> Op:
    dim = ref.comb_dim(n, p, x, y, a)
    expected = {"p": p, "n": n, "x": x, "y": y, "a": a, "length": n * n, "dimension": dim}
    return Op(name, ["build", *_comb_flags(n, p, x, y, a)], EXIT_OK, lambda out: _mismatches(out, expected), work=1)


def theorem_analyze_op(name: str, n: int, p: int, x: int, y: int, a: int) -> Op:
    big = n * n
    expected = {
        "length": big, "dimension": 1, "min_distance": big, "mds": True,
        "detect": big - 1, "correct": (big - 1) // 2, "rate": f"1/{big}",
    }
    return Op(name, ["analyze", *_comb_flags(n, p, x, y, a)], EXIT_OK, lambda out: _mismatches(out, expected), work=1)


def matrix_file_op(name: str, path: Path, n: int, p: int, a: int, diag: list[int]) -> Op:
    expected = {"p": p, "n": n, "a": a, "length": n * n, "dimension": ref.diagonal_dim(diag, a, p)}
    argv = ["build", "--matrix-file", str(path), "--a", str(a), "--json"]
    return Op(name, argv, EXIT_OK, lambda out: _mismatches(out, expected), work=1)


def spectrum_op(name: str, n: int, p: int, x: int, y: int) -> Op:
    lam = (x * n + y) % p
    expected = {
        "eigenvalues": sorted([[lam, 1], [y % p, n - 1]]),
        "diagonalizable": True,
        "diagonal": [lam] + [y % p] * (n - 1),
        "scan_agrees": True,
    }
    return Op(name, ["spectrum", *_comb_flags(n, p, x, y)], EXIT_OK, lambda out: _mismatches(out, expected), work=1)


def large_instance(seed: int, tiny: bool, work_dir: Path) -> Workload:
    rng = random.Random(f"large-instance:{seed}")
    n_small, n_big, n_mid, n_scan = (4, 6, 4, 5) if tiny else (16, 32, 24, 64)
    matrix, diag = ref.similar_to_diagonal(n_mid, 7, rng)
    path = work_dir / "general.mat"
    text = f"7 {n_mid} {n_mid}\n" + "".join(" ".join(map(str, row)) + "\n" for row in matrix)
    # Each theorem tuple needs p | x n + y; y is chosen to make it so.
    ops = [
        build_op(f"build_n{n_small}", n_small, 7, 1, 1, 3),
        build_op(f"build_n{n_big}", n_big, 7, 1, 1, 3),
        theorem_analyze_op("analyze_theorem", n_mid, 7, 1, -n_mid % 7, 2),
        build_op("build_big_prime", n_mid, BIG_PRIME, 1, -n_mid % BIG_PRIME, 2),
        matrix_file_op("general_build", path, n_mid, 7, 1, diag),
        spectrum_op("spectrum", n_scan, 997, 1, 1),
    ]
    return Workload(
        "large-instance",
        ops,
        key_op=f"build_n{n_big}",
        guard_ops=["general_build"],
        files={path.name: text},
        # Nearly all its time is in large numpy eliminations.
        probe="numpy",
    )


# --- channel-sim -----------------------------------------------------------


def simulate_op(name: str, n, p, x, y, a, t, trials=None, seed=None) -> Op:
    """A `simulate` command; trials=None means the exhaustive sweep."""
    if ref.hypotheses_met(p, n, x, y, a):
        length, dim, dist = n * n, 1, n * n
    else:
        length, dim, dist = ref.comb_code_params(n, p, x, y, a)
    capacity = (dist - 1) // 2
    within = t <= capacity
    expected = {
        "t": t, "length": length, "dimension": dim, "min_distance": dist, "capacity": capacity,
        "within_capacity": within, "verdict": "PASS" if within else "FAIL",
    }
    argv = ["simulate", *_comb_flags(n, p, x, y, a), "--t", str(t)]
    if trials is None:
        trials = math.comb(length, t) * (p - 1) ** t * p**dim
        argv.append("--exhaustive")
        expected["mode"] = "exhaustive"
    else:
        argv += ["--trials", str(trials), "--seed", str(seed)]
        expected.update(mode="monte-carlo", seed=seed)
    expected["trials"] = trials
    if within:
        expected.update(successes=trials, ambiguous=0, miscorrected=0)

    def check(out):
        problems = _mismatches(out, expected)
        outcomes = sum(out.get(k, 0) for k in ("successes", "ambiguous", "miscorrected"))
        if outcomes != trials:
            problems.append(f"outcomes sum to {outcomes}, expected {trials}")
        return problems

    # Beyond capacity, simulate reports FAIL and exits 2 by design.
    return Op(name, argv, EXIT_OK if within else EXIT_FAILURE, check, work=trials)


def channel_sim(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"channel-sim:{seed}")
    seeds = [rng.randrange(2**31) for _ in range(4)]
    k1_trials, k5_trials = (50, 20) if tiny else (10000, 5000)
    ops = [
        # [9, 1, 9] over GF(5); t = 2 keeps the tiny sweep short.
        simulate_op("exhaustive", 3, 5, 3, 1, 2, t=2 if tiny else 4),
        # [16, 1, 16] over GF(5), capacity 7: within and beyond it.
        simulate_op("k1_within", 4, 5, 1, 1, 2, t=7, trials=k1_trials, seed=seeds[0]),
        simulate_op("k1_beyond", 4, 5, 1, 1, 2, t=9, trials=k1_trials, seed=seeds[1]),
        # [9, 5, 3] over GF(5), capacity 1: the general table decoder.
        simulate_op("k5_within", 3, 5, 1, 1, 1, t=1, trials=k5_trials, seed=seeds[2]),
        simulate_op("k5_beyond", 3, 5, 1, 1, 1, t=2, trials=k5_trials, seed=seeds[3]),
    ]
    rates = {
        "decodes_per_s": [op.name for op in ops],
        "multi_dim_decodes_per_s": ["k5_within", "k5_beyond"],
    }
    return Workload("channel-sim", ops, key_op="exhaustive", guard_ops=rates["multi_dim_decodes_per_s"], rates=rates)


def make(name: str, seed: int, tiny: bool, work_dir: Path) -> Workload:
    if name == "verify-grid":
        return verify_grid(seed, tiny)
    if name == "large-instance":
        return large_instance(seed, tiny, work_dir)
    if name == "channel-sim":
        return channel_sim(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("verify-grid", "large-instance", "channel-sim")
