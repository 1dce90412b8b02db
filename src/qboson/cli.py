"""Command-line surface: build and export operators, verify identities,
sweep cutoffs, print closed-form spectra, and dump phase states.

Exit codes: 0 success, 1 a verification check failed, 2 bad usage, an
invalid configuration, or a cutoff whose operators do not fit in memory,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import algebra
from .cmatrix import matrix_to_dict, vector_to_dict
from .qnumerics import AlgebraConfig, q_number
from .verify import run_all, sweep

BUILD_OPS = {
    "a": algebra.annihilation,
    "adag": algebra.creation,
    "n": algebra.number,
    "g": algebra.clock,
    "h": algebra.shift,
    "hdag": algebra.shift_dag,
    "f": algebra.fourier,
    "bigh": algebra.cyclic_shift,
    "atilde": lambda cfg: algebra.fourier_conjugate(algebra.annihilation(cfg), cfg),
    "atildedag": lambda cfg: algebra.fourier_conjugate(algebra.creation(cfg), cfg),
    # the operator set's expression for its n_tilde, without the rest of the set
    "ntilde": lambda cfg: algebra._rotate_diagonal(
        algebra.fourier(cfg), algebra.number(cfg).diagonal()).kept(),
    "braceHdag": lambda cfg: algebra.phase_braces(cfg)[0],
    "braceHdag1": lambda cfg: algebra.phase_braces(cfg)[1],
    "sqrtBraceHdag": lambda cfg: algebra.phase_brace_roots(cfg)[0],
    "sqrtBraceHdag1": lambda cfg: algebra.phase_brace_roots(cfg)[1],
}

SPECTRUM_OPS = ("g", "bigh", "braceHdag", "braceHdag1")


def _write_or_print(payload: str, out: str | None) -> None:
    if out is None:
        print(payload)
    else:
        Path(out).write_text(payload + "\n", encoding="utf-8")


def _cmd_build(args: argparse.Namespace) -> int:
    cfg = AlgebraConfig(s=args.s, k=args.k)
    mat = BUILD_OPS[args.op](cfg)
    _write_or_print(json.dumps(matrix_to_dict(mat), allow_nan=False), args.out)
    return 0


def _format_check_line(check) -> str:
    verdict = "PASS" if check.passed else "FAIL"
    return f"  {check.name:<24} dev={check.deviation:.3e}  thr={check.threshold:.3e}  {verdict}"


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = AlgebraConfig(s=args.s, k=args.k, tol=args.tol)
    report = run_all(cfg)
    if args.json:
        print(json.dumps(report.to_json_dict(), allow_nan=False))
    else:
        print(f"identity checks for s={cfg.s}, k={cfg.k}, tol={cfg.tol:g}")
        for check in report.checks:
            print(_format_check_line(check))
        passed = sum(c.passed for c in report.checks)
        print(f"overall: {'PASS' if report.overall_pass else 'FAIL'} ({passed}/{len(report.checks)})")
    return 0 if report.overall_pass else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    reports = sweep(args.s_min, args.s_max, k=args.k, tol=args.tol)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], allow_nan=False))
    else:
        for report in reports:
            passed = sum(c.passed for c in report.checks)
            verdict = "PASS" if report.overall_pass else "FAIL"
            print(f"s={report.config.s:<3} {verdict} ({passed}/{len(report.checks)})")
        good = sum(r.overall_pass for r in reports)
        print(f"passed {good}/{len(reports)}")
    return 0 if all(r.overall_pass for r in reports) else 1


def _fmt_scalar(z: complex) -> str:
    if abs(z.imag) < 1e-15:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = AlgebraConfig(s=args.s, k=args.k)
    if args.op in ("g", "bigh"):
        z = algebra._clock_diagonal(cfg)  # the diagonals of clock(cfg) and its adjoint
        values = z if args.op == "g" else z.conj()
    else:
        offset = int(args.op == "braceHdag1")
        values = [q_number(n + offset, cfg) for n in range(cfg.dim)]
    print(", ".join(_fmt_scalar(complex(v)) for v in values))
    return 0


def _cmd_phase_states(args: argparse.Namespace) -> int:
    cfg = AlgebraConfig(s=args.s, k=args.k)
    # the phase states are the columns of the Fourier matrix
    f = algebra.fourier(cfg)
    states = [vector_to_dict(f[:, m]) for m in range(cfg.dim)]
    _write_or_print(json.dumps(states, allow_nan=False), args.out)
    return 0


def _add_config_flags(parser: argparse.ArgumentParser, with_tol: bool = False) -> None:
    parser.add_argument("--s", type=int, required=True, help="Fock cutoff (dimension is s+1)")
    parser.add_argument("--k", type=int, default=1, help="root index, coprime to s+1 (default 1)")
    if with_tol:
        parser.add_argument("--tol", type=float, default=1e-9,
                            help="base tolerance; checks use tol*(s+1) (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qboson",
        description="Finite q-boson algebra at a primitive root of unity: "
                    "operators, identity verification, polar decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct one operator and write it as JSON")
    _add_config_flags(p)
    p.add_argument("--op", required=True, choices=sorted(BUILD_OPS),
                   help="operator to build")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run the identity catalog for one configuration")
    _add_config_flags(p, with_tol=True)
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run the identity catalog across a range of cutoffs")
    p.add_argument("--s-min", type=int, required=True)
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true", help="emit all reports as a JSON array")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("spectrum", help="print a closed-form spectrum, ordered by level")
    _add_config_flags(p)
    p.add_argument("--op", required=True, choices=SPECTRUM_OPS,
                   help="operator with a closed-form spectrum")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("phase-states", help="write all s+1 phase states as a JSON array")
    _add_config_flags(p)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_phase_states)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"qboson: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a construction self-check failed: the operators are wrong, which
        # is a failed check, not bad input
        print(f"qboson: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"qboson: error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # the d x d operators of a cutoff this large cannot be allocated:
        # the input is too large, not the operators wrong
        cutoff = f"s={args.s}" if "s" in args else f"s in [{args.s_min}, {args.s_max}]"
        print(f"qboson: error: not enough memory for the operators at {cutoff}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
