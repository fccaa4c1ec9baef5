"""Command-line front end: spectrum, build, analyze, verify, simulate.

Exit codes: 0 success/verified, 1 usage error, 2 verification or
simulation failure, 3 guard exceeded.  Each command returns its exit code
and one result dict; with --json main prints that dict as the single
machine-readable object, otherwise the command prints its human rendering
of the same fields.  verify's rows are the exception: it writes each row
as text from parts that many rows share (a head per (p, n) slice, a
fragment per (x, y, a) triple, a tail per code group, written in --json
by json.dumps), and main splices the rendered rows in as the last key.
"""

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np

from .centralizer import TwistSpec, centralizer_code, comb_codes
from .channel import exhaustive_stats, monte_carlo
from .code import LinearCode, analyze
from .comb import (
    EIGEN_SCAN_MAX_P,
    CombParams,
    comb_matrix,
    comb_spectrum,
    eigen_scan,
)
from .linalg import GuardExceededError, Matrix, MatrixFormatError, Prime, is_prime, parse_matrix_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_GUARD = 3

# Hard sweep caps keep the full verification desk-scale.
VERIFY_MAX_PRIME = 13
VERIFY_MAX_ORDER = 6
DEFAULT_TRIALS = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> _Parser:
    """The parser of every command, built on first use and shared by later calls to main."""
    parser = _Parser(prog="tcc", description="Twisted centralizer codes over GF(p).")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("spectrum", help="eigenvalues and diagonalizability of x*J + y*I")
    _add_comb_flags(sp, required=True)
    sp.set_defaults(func=cmd_spectrum)

    bp = sub.add_parser("build", help="dimension and generator of the code C(A, a)")
    _add_matrix_source_flags(bp)
    bp.set_defaults(func=cmd_build)

    ap = sub.add_parser("analyze", help="[N, k, d] parameters, MDS flag and capacities")
    _add_matrix_source_flags(ap)
    ap.set_defaults(func=cmd_analyze)

    vp = sub.add_parser("verify", help="sweep small fields and check the MDS construction")
    vp.add_argument("--p-max", type=int, default=7, help=f"largest prime, at most {VERIFY_MAX_PRIME} (default 7)")
    vp.add_argument("--n-max", type=int, default=5, help=f"largest order, at most {VERIFY_MAX_ORDER} (default 5)")
    vp.add_argument("--json", action="store_true", help="machine-readable output")
    vp.set_defaults(func=cmd_verify)

    mp = sub.add_parser("simulate", help="decode under a fixed-weight symbol-error channel")
    _add_comb_flags(mp, required=True)
    mp.add_argument("--a", type=int, required=True, help="twist constant")
    mp.add_argument("--t", type=int, required=True, help="number of corrupted symbols per trial")
    mp.add_argument("--trials", type=int, help=f"Monte Carlo trials (default {DEFAULT_TRIALS})")
    mp.add_argument("--seed", type=int, default=0, help="random seed (default 0, fixed)")
    mp.add_argument("--exhaustive", action="store_true", help="sweep every weight-t pattern instead")
    mp.set_defaults(func=cmd_simulate, matrix_file=None)

    return parser


def _add_comb_flags(sp, required: bool):
    sp.add_argument("--n", type=int, required=required, help="matrix order (at least 2)")
    sp.add_argument("--p", type=int, required=required, help="field characteristic (prime)")
    sp.add_argument("--x", type=int, required=required, help="all-ones coefficient")
    sp.add_argument("--y", type=int, required=required, help="identity coefficient")
    sp.add_argument("--json", action="store_true", help="machine-readable output")


def _add_matrix_source_flags(sp):
    _add_comb_flags(sp, required=False)
    sp.add_argument("--matrix-file", help="read A from a file instead of building x*J + y*I")
    sp.add_argument("--a", type=int, required=True, help="twist constant")


def _comb_params(args) -> CombParams:
    return CombParams(args.n, args.x, args.y, Prime(args.p))


class _ZeroCodeError(Exception):
    """C(A, a) is the zero code, which the command cannot work on."""


def _solve(args) -> tuple[LinearCode, dict]:
    """Resolve A from flags or file and solve C(A, a); returns the code and the JSON header fields.

    Either way centralizer_code solves; it recognises a comb matrix
    x*J + y*I, from flags or file, and writes its code in closed form.
    """
    comb_flags = [f"--{name}" for name in ("n", "p", "x", "y") if getattr(args, name) is not None]
    if args.matrix_file is not None:
        if comb_flags:
            raise ValueError(f"--matrix-file cannot be combined with {' '.join(comb_flags)}")
        try:
            text = Path(args.matrix_file).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read matrix file: {exc}") from None
        matrix = parse_matrix_text(text)
        if not matrix.is_square:
            raise ValueError(f"matrix file holds a {matrix.rows}x{matrix.cols} matrix, need square")
        source = {"p": matrix.prime.p, "n": matrix.rows}
    elif len(comb_flags) < 4:
        raise ValueError("either --matrix-file or all of --n --p --x --y must be given")
    else:
        params = _comb_params(args)
        matrix = comb_matrix(params)
        source = {"p": params.prime.p, "n": params.n, "x": params.x, "y": params.y}
    spec = TwistSpec(matrix, args.a)
    return centralizer_code(spec), {**source, "a": spec.twist}


def _nonzero_code(args) -> tuple[LinearCode, dict]:
    """_solve, refusing the zero code, which has no parameters and carries no message."""
    code, header = _solve(args)
    if code.dim == 0:
        raise _ZeroCodeError
    return code, header


def _hypotheses_met(p: int, n: int, x, y, a):
    """The MDS construction needs p | x n + y, x != 0, y != 0 and a outside {0, 1}.

    x, y and a are ints, giving a bool, or int64 arrays, giving one bool per
    entry; the arrays' products must fit int64.
    """
    return ((x * n + y) % p == 0) & (x % p != 0) & (y % p != 0) & (a % p > 1)


def cmd_spectrum(args) -> tuple[int, dict]:
    params = _comb_params(args)
    matrix = comb_matrix(params)
    spectrum = comb_spectrum(params)
    out = {
        "p": params.prime.p,
        "n": params.n,
        "x": params.x,
        "y": params.y,
        "eigenvalues": [[lam, mult] for lam, mult in spectrum.pairs],
        "diagonalizable": spectrum.total_multiplicity == params.n,
    }
    if out["diagonalizable"]:
        # A is then similar to diag(x n + y, y, ..., y), which also covers x = 0.
        out["diagonal"] = [(params.x * params.n + params.y) % params.prime.p] + [params.y] * (params.n - 1)
    if params.prime.p <= EIGEN_SCAN_MAX_P:
        out["scan_agrees"] = eigen_scan(matrix) == spectrum
    if not args.json:
        print(f"A = {out['x']}*J + {out['y']}*I over GF({out['p']}), n = {out['n']}")
        print(matrix)
        print("spectrum: " + "; ".join(f"eigenvalue {lam} with multiplicity {m}" for lam, m in spectrum.pairs))
        if "scan_agrees" not in out:
            print(f"eigen scan cross-check: skipped (p > {EIGEN_SCAN_MAX_P})")
        else:
            print(f"eigen scan cross-check: {'agrees' if out['scan_agrees'] else 'DISAGREES'}")
        if out["diagonalizable"]:
            print(f"diagonalizable: yes, D = diag({', '.join(str(v) for v in out['diagonal'])})")
        else:
            print(
                f"diagonalizable: no (eigenspaces span {spectrum.total_multiplicity} "
                f"of {params.n} dimensions)"
            )
    if out.get("scan_agrees") is False:
        print("tcc: spectrum formula and eigen scan disagree", file=sys.stderr)
        return EXIT_FAILURE, out
    return EXIT_OK, out


def cmd_build(args) -> tuple[int, dict]:
    code, header = _solve(args)
    out = {**header, "length": code.length, "dimension": code.dim}
    if not args.json:
        # Read before anything prints: a solve that left its rows unreduced reduces them
        # here, and raises here if they are dependent.  --json never reads it.
        generator = Matrix(code.generator, code.prime) if code.dim else None
        print(f"C(A, {out['a']}) over GF({out['p']}), n = {out['n']}")
        print(f"dim = {out['dimension']}")
        if generator is None:
            print("generator: (zero code)")
        else:
            print("generator (RREF):")
            print(generator)
    return EXIT_OK, out


def cmd_analyze(args) -> tuple[int, dict]:
    code, header = _nonzero_code(args)
    report = analyze(code)
    out = {
        **header,
        "length": report.length,
        "dimension": report.dim,
        "min_distance": report.min_distance,
        "mds": report.mds,
        "detect": report.detect,
        "correct": report.correct,
        "rate": "{}/{}".format(*report.rate),
    }
    if not args.json:
        print(f"code parameters [{out['length']}, {out['dimension']}, {out['min_distance']}] over GF({out['p']})")
        print(f"MDS: {'yes' if out['mds'] else 'no'}")
        print(f"detects up to {out['detect']} errors; corrects up to {out['correct']}")
        print(f"rate: {out['rate']}")
    return EXIT_OK, out


def cmd_verify(args) -> tuple[int, dict]:
    if not 2 <= args.p_max <= VERIFY_MAX_PRIME:
        raise ValueError(f"--p-max must lie in [2, {VERIFY_MAX_PRIME}], got {args.p_max}")
    if not 2 <= args.n_max <= VERIFY_MAX_ORDER:
        raise ValueError(f"--n-max must lie in [2, {VERIFY_MAX_ORDER}], got {args.n_max}")

    # Each row is text from shared parts: a head per slice, a fragment per triple, a tail per group.
    if args.json:
        sep, head_of, triple_of = ", ", '{{"p": {}, "n": {}, '.format, '"x": {}, "y": {}, "a": {}, '.format
    else:
        sep, head_of, triple_of = "\n", "{:>3} {:>2}".format, " {:>3} {:>3} {:>3}  ".format
    slices, tuples, hypothesis_tuples, mismatches = [], 0, 0, []
    for p in (q for q in range(2, args.p_max + 1) if is_prime(q)):
        prime = Prime(p)
        # Every (x, y, a) of the slice, in product order; x, y and a are columns.
        x, y, a = np.indices((p, p, p)).reshape(3, -1)
        triples = list(map(triple_of, x.tolist(), y.tolist(), a.tolist()))
        for n in range(2, args.n_max + 1):
            # One batch per (p, n): tuples that share a closed form share one code and one theorem check.
            codes, group = comb_codes(n, prime, x, y, a)
            hyp = _hypotheses_met(p, n, x, y, a)
            checks = {g: _theorem_check(n, codes[g]) for g in set(group[hyp].tolist())}
            # A row's tail is keyed 2 g + hypotheses_met; only groups with hypothesis rows have a check.
            tails = {2 * g: _row_tail(args.json, False, code.dim, {}) for g, code in enumerate(codes)}
            tails.update({2 * g + 1: _row_tail(args.json, True, codes[g].dim, c) for g, c in checks.items()})
            head = head_of(p, n)
            row_tails = map(tails.__getitem__, (2 * group + hyp).tolist())
            slices.append(head + (sep + head).join(map(str.__add__, triples, row_tails)))
            tuples += group.size
            hypothesis_tuples += int(hyp.sum())
            failed = [g for g, c in checks.items() if not c["matches_theorem"]]
            for i in np.flatnonzero(hyp & np.isin(group, failed)).tolist():
                mismatches.append(f"MISMATCH: p={p} n={n} x={x[i]} y={y[i]} a={a[i]} dim={codes[group[i]].dim}")

    out = {
        "p_max": args.p_max,
        "n_max": args.n_max,
        "tuples": tuples,
        "hypothesis_tuples": hypothesis_tuples,
        "ok": not mismatches,
    }
    if args.json:
        out["rows"] = "[" + sep.join(slices) + "]"
    else:
        summary = f"summary: {tuples} tuples, {hypothesis_tuples} met the hypotheses, {len(mismatches)} mismatches"
        columns = f"{'p':>3} {'n':>2} {'x':>3} {'y':>3} {'a':>3}  {'hyp':<3} {'dim':>4} {'d':>4}  {'mds':<3} {'ok':<3}"
        print("\n".join([columns, *slices, summary, *mismatches]))
    return (EXIT_OK if out["ok"] else EXIT_FAILURE), out


def _row_tail(as_json: bool, met: bool, dim: int, check: dict) -> str:
    """The end of a sweep row, shared by its group: the JSON keys from hypotheses_met on, whose
    opening brace is dropped, or the human columns from hyp on."""
    if as_json:
        return json.dumps({"hypotheses_met": met, "dim": dim, **check})[1:]
    d = check.get("min_distance", "-")
    mds = "-" if "mds" not in check else ("yes" if check["mds"] else "no")
    okc = "-" if "matches_theorem" not in check else ("yes" if check["matches_theorem"] else "NO")
    return f"{'yes' if met else 'no':<3} {dim:>4} {d!s:>4}  {mds:<3} {okc:<3}"


def _theorem_check(n: int, code: LinearCode) -> dict:
    """The theorem keys of a sweep row whose tuple meets the hypotheses."""
    if code.dim == 0:
        return {"matches_theorem": False}
    report = analyze(code)
    generator_is_all_ones = bool((code.generator == 1).all())
    matches = (
        code.dim == 1
        and generator_is_all_ones
        and report.min_distance == n * n
        and report.mds
        and report.detect == n * n - 1
        and report.correct == (n * n - 1) // 2
        and report.rate == (1, n * n)
    )
    return {"min_distance": report.min_distance, "mds": report.mds, "matches_theorem": matches}


def cmd_simulate(args) -> tuple[int, dict]:
    if args.exhaustive and args.trials is not None:
        raise ValueError("--trials cannot be combined with --exhaustive, which sweeps every pattern")
    if not args.exhaustive and args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    # The note precedes a zero-code refusal, and --t is checked before analyze's distance guard.
    params = _comb_params(args)
    hyp = _hypotheses_met(params.prime.p, params.n, params.x, params.y, args.a)
    if not hyp:
        print(
            "tcc: note: these parameters miss the MDS construction hypotheses "
            "(need p | x*n + y, x != 0, y != 0, a outside {0, 1}); no guarantee applies",
            file=sys.stderr,
        )
    code, header = _nonzero_code(args)
    if not 0 <= args.t <= code.length:
        raise ValueError(f"--t must lie in [0, {code.length}], got {args.t}")
    report = analyze(code)

    if args.exhaustive:
        stats = exhaustive_stats(code, args.t)
    else:
        trials = DEFAULT_TRIALS if args.trials is None else args.trials
        stats = monte_carlo(code, args.t, trials, args.seed)

    failures = stats.trials - stats.successes
    within = args.t <= report.correct
    out = {
        **header,
        "t": args.t,
        "length": report.length,
        "dimension": report.dim,
        "min_distance": report.min_distance,
        "capacity": report.correct,
        "hypotheses_met": hyp,
        "mode": "exhaustive" if args.exhaustive else "monte-carlo",
        **({} if args.exhaustive else {"seed": args.seed}),
        **asdict(stats),
        "within_capacity": within,
        "verdict": "PASS" if within and failures == 0 else "FAIL",
    }
    if not args.json:
        print(
            f"code [{out['length']}, {out['dimension']}, {out['min_distance']}] over GF({out['p']}), "
            f"correction capacity {out['capacity']}"
        )
        print(f"mode: {out['mode']}" + (f" (seed {out['seed']})" if "seed" in out else ""))
        print(
            f"trials {out['trials']}: {out['successes']} success, "
            f"{out['ambiguous']} ambiguous, {out['miscorrected']} miscorrected"
        )
        if within:
            print(f"{out['verdict']}: {failures} failures at t={args.t} (within capacity {out['capacity']})")
        else:
            print(f"FAIL: t={args.t} exceeds correction capacity {out['capacity']} ({failures} failures)")
    return (EXIT_OK if out["verdict"] == "PASS" else EXIT_FAILURE), out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status, out = args.func(args)
    except _ZeroCodeError:
        print(f"tcc: zero code: C(A, a) contains only the zero matrix, nothing to {args.command}", file=sys.stderr)
        return EXIT_USAGE
    except GuardExceededError as exc:
        print(f"tcc: guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MatrixFormatError as exc:
        print(f"tcc: matrix file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError) as exc:
        print(f"tcc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        # verify hands its rows already rendered, spliced in as the document's last key.
        rows = out.pop("rows") if args.command == "verify" else None
        text = json.dumps(out, check_circular=False)
        print(text if rows is None else f'{text[:-1]}, "rows": {rows}}}')
    return status


if __name__ == "__main__":
    sys.exit(main())
