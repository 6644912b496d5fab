"""Command-line front end.

Grammar:
    cyclo-knot <subcommand> --knot <spec> [--n A..B] [--N k] [--p k]
               [--format json|text] [--normalized] [--exploratory]
               [--suite name|all] [--quick]

Subcommands: coeffs, jones, ado, wrt, cgp, verify.  Knot specs follow the
knots module syntax (dt:l,m / t2:t, prefix ! for mirror).  All regular output
goes to stdout; failing verification reports are repeated on stderr.  Exit
codes: 0 success (all verifications passed), 1 verification failure,
2 usage or parse error, 141 stdout closed by its reader.  Identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable

from .invariants import (
    ado,
    cgp_torus_direct,
    cgp_zero,
    colored_jones,
    normalized_wrt,
    wrt_torus_direct,
    wrt_zero,
)
from .knots import (
    KnotParseError,
    KnotSpec,
    TorusTwoStrand,
    a_at_root,
    habiro_a,
    is_double_twist_family,
    knot_str,
    parse_knot,
)
from .verify import SUITES, run_suite


class UsageError(Exception):
    """Command-line level error: reported on stderr with exit code 2."""


def _parse_range(text: str, *, minimum: int, what: str) -> range:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(
            f"bad {what} {text!r}: expected an integer or a range A..B"
        ) from None
    if lo < minimum or hi < lo:
        raise UsageError(f"bad {what} {text!r}: need {minimum} <= A <= B")
    return range(lo, hi + 1)


def _parse_knot_arg(text: str) -> KnotSpec:
    try:
        return parse_knot(text)
    except KnotParseError as exc:
        raise UsageError(str(exc)) from None


def _check_root_order(p: int | None) -> None:
    if p is not None and p < 1:
        raise UsageError(f"--p must be >= 1, got {p}")


def _check_odd_order(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise UsageError(f"--p must be odd and >= 3, got {p}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclo-knot",
        description="Exact Habiro coefficients and quantum invariants of double "
        "twist and (2,2t+1) torus knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text")

    p_coeffs = sub.add_parser("coeffs", help="Habiro coefficients a_n(K; q)")
    p_coeffs.add_argument("--knot", required=True)
    p_coeffs.add_argument("--n", default="0..6", help="index or range A..B")
    p_coeffs.add_argument("--p", type=int, help="evaluate at the p-th root of unity")
    add_format(p_coeffs)

    p_jones = sub.add_parser("jones", help="colored Jones polynomial J_K(q^N, q)")
    p_jones.add_argument("--knot", required=True)
    p_jones.add_argument("--N", required=True, help="color or range A..B")
    add_format(p_jones)

    p_ado = sub.add_parser("ado", help="ADO invariant at a p-th root of unity")
    p_ado.add_argument("--knot", required=True)
    p_ado.add_argument("--p", type=int, required=True)
    add_format(p_ado)

    p_wrt = sub.add_parser("wrt", help="WRT invariant of the 0-surgery (odd p)")
    p_wrt.add_argument("--knot", required=True)
    p_wrt.add_argument("--p", type=int, required=True)
    p_wrt.add_argument("--normalized", action="store_true")
    add_format(p_wrt)

    p_cgp = sub.add_parser("cgp", help="CGP numerator of the 0-surgery, symbolic in u")
    p_cgp.add_argument("--knot", required=True)
    p_cgp.add_argument("--p", type=int, required=True)
    add_format(p_cgp)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite", default="all", help="suite name or 'all' (%s)" % ", ".join(SUITES)
    )
    p_verify.add_argument("--quick", action="store_true")
    p_verify.add_argument("--exploratory", action="store_true")
    p_verify.add_argument("--knot")
    p_verify.add_argument("--p", type=int)
    add_format(p_verify)

    return parser


def _write(args, knot: KnotSpec, fields: dict, text: Iterable[tuple[str, object]]) -> int:
    """Print one JSON object, the command, the knot and then fields, or one
    line "label = value" per pair of text; exit status 0.

    Values print through str in text and through to_json_obj in JSON, so
    text mode serializes no JSON.
    """
    if args.format == "json":
        obj = {"command": args.command, "knot": knot_str(knot), **fields}
        print(json.dumps(obj, indent=2, default=lambda value: value.to_json_obj()))
    else:
        for label, value in text:
            print(f"{label} = {value}")
    return 0


def _cmd_coeffs(args) -> int:
    knot = _parse_knot_arg(args.knot)
    ns = _parse_range(args.n, minimum=0, what="--n")
    _check_root_order(args.p)
    if args.p is None:
        rows, key, suffix = [(n, habiro_a(knot, n)) for n in ns], "a", ""
    else:
        rows, key, suffix = [(n, a_at_root(knot, n, args.p)) for n in ns], "a_at_root", f"(e_{args.p})"
    fields = {"p": args.p, "values": [{"n": n, key: v} for n, v in rows]}
    return _write(args, knot, fields, ((f"a_{n}{suffix}", v) for n, v in rows))


def _cmd_jones(args) -> int:
    knot = _parse_knot_arg(args.knot)
    rows = [(N, colored_jones(knot, N)) for N in _parse_range(args.N, minimum=1, what="--N")]
    fields = {"values": [{"N": N, "jones": v} for N, v in rows]}
    return _write(args, knot, fields, ((f"J_{N}", v) for N, v in rows))


def _cmd_ado(args) -> int:
    knot = _parse_knot_arg(args.knot)
    _check_root_order(args.p)
    poly = ado(knot, args.p).poly
    return _write(args, knot, {"p": args.p, "ado": poly}, [("ADO", poly)])


def _zero_surgery(args, double_twist: Callable, torus: Callable) -> tuple[KnotSpec, object]:
    """The knot of args and the invariant of its 0-surgery at the odd root
    order --p: double_twist(knot, p) on the double twist family, torus(t, p)
    on t2:t, and a usage error naming the subcommand on any other knot."""
    knot = _parse_knot_arg(args.knot)
    _check_odd_order(args.p)
    if is_double_twist_family(knot):
        return knot, double_twist(knot, args.p)
    if isinstance(knot, TorusTwoStrand):
        return knot, torus(knot.t, args.p)
    raise UsageError(f"{args.command} supports double twist knots and t2:t, not {args.knot!r}")


def _cmd_wrt(args) -> int:
    knot, value = _zero_surgery(args, wrt_zero, wrt_torus_direct)
    norm, factor = normalized_wrt(value, args.p) if args.normalized else (None, None)
    text = [("WRT", value)]
    if factor is not None:
        text.append(("{1}^2", f"{factor} (does not divide; value left unnormalized)"))
    elif norm is not None:
        text.append(("WRT/{1}^2", norm))
    fields = {
        "p": args.p,
        "wrt": value,
        "normalized": None if factor is not None else norm,
        "normalization_remainder_factor": factor,
    }
    return _write(args, knot, fields, text)


def _cmd_cgp(args) -> int:
    knot, result = _zero_surgery(args, cgp_zero, cgp_torus_direct)
    parts = {
        "numerator": result.numerator,
        "denominator": result.denominator_tag,
        "numerator_prefactor": result.numerator_prefactor_tag,
        "denominator_extra": result.denominator_extra_tag,
    }
    text = [(label, part) for label, part in parts.items() if part is not None]
    return _write(args, knot, {"p": args.p, **parts}, text)


def _cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from: all, " + ", ".join(SUITES)
        )
    knot = _parse_knot_arg(args.knot) if args.knot is not None else None
    _check_root_order(args.p)
    failures = []
    suites_out = []
    checks = passed = informational = 0
    for name in names:
        reports = run_suite(
            name, quick=args.quick, knot=knot, p=args.p, exploratory=args.exploratory
        )
        suites_out.append((name, reports))
        for r in reports:
            checks += 1
            if r.params.get("exploratory"):
                informational += 1
            elif r.passed:
                passed += 1
            else:
                failures.append(r)
    if not checks:
        chosen = " ".join(
            f"--{flag} {value}"
            for flag, value in (("suite", args.suite), ("knot", args.knot), ("p", args.p))
            if value is not None
        )
        raise UsageError(f"{chosen} selects no checks: it matches no point of the suite grids")
    if args.format == "json":
        obj = {
            "command": "verify",
            "suites": [
                {"suite": name, "reports": [r.to_json_obj() for r in reports]}
                for name, reports in suites_out
            ],
            "summary": {
                "checks": checks,
                "passed": passed,
                "failed": len(failures),
                "informational": informational,
            },
        }
        print(json.dumps(obj, indent=2))
    else:
        for name, reports in suites_out:
            print(f"== suite {name}: {len(reports)} checks")
            for r in reports:
                params = " ".join(f"{k}={v}" for k, v in r.params.items())
                if r.params.get("exploratory"):
                    status = "INFO(pass)" if r.passed else "INFO(fail)"
                elif r.passed:
                    status = "PASS"
                else:
                    status = "FAIL"
                print(f"{status} {r.identity} {params}")
        print(
            f"== summary: {checks} checks, {passed} passed, {len(failures)} failed, "
            f"{informational} informational"
        )
    for r in failures:
        payload = json.dumps(r.to_json_obj())
        print(f"FAIL {r.identity}: {payload}", file=sys.stderr)
    return 1 if failures else 0


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "jones": _cmd_jones,
    "ado": _cmd_ado,
    "wrt": _cmd_wrt,
    "cgp": _cmd_cgp,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does).  Exit quietly with the
        # shell's SIGPIPE status, since 1 means a verification failure, and
        # point stdout at devnull so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    main()
