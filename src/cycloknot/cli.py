"""Command-line front end.

Grammar:
    cyclo-knot <subcommand> --knot <spec> [--n A..B] [--N k] [--p k]
               [--format json|text] [--normalized] [--exploratory]
               [--suite name|all] [--quick]

Subcommands: coeffs, jones, ado, wrt, cgp, verify.  Knot specs follow the
knots module syntax (dt:l,m / t2:t, prefix ! for mirror).  All regular output
goes to stdout; failing verification reports are repeated on stderr.  Exit
codes: 0 success (all verifications passed), 1 verification failure,
2 usage or parse error.  Identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exactring import CycNumber, LaurentPoly
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


def _fmt_value(v) -> str:
    if isinstance(v, LaurentPoly):
        return v.render_text()
    if isinstance(v, CycNumber):
        return v.render()
    return str(v)


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


def _cmd_coeffs(args) -> int:
    knot = _parse_knot_arg(args.knot)
    ns = _parse_range(args.n, minimum=0, what="--n")
    _check_root_order(args.p)
    rows = []
    for n in ns:
        if args.p is not None:
            rows.append((n, a_at_root(knot, n, args.p)))
        else:
            rows.append((n, habiro_a(knot, n)))
    if args.format == "json":
        values = [
            {"n": n, ("a_at_root" if args.p is not None else "a"): v.to_json_obj()}
            for n, v in rows
        ]
        obj = {"command": "coeffs", "knot": knot_str(knot), "p": args.p, "values": values}
        print(json.dumps(obj, indent=2))
    else:
        suffix = f"(e_{args.p})" if args.p is not None else ""
        for n, v in rows:
            print(f"a_{n}{suffix} = {_fmt_value(v)}")
    return 0


def _cmd_jones(args) -> int:
    knot = _parse_knot_arg(args.knot)
    colors = _parse_range(args.N, minimum=1, what="--N")
    rows = [(N, colored_jones(knot, N)) for N in colors]
    if args.format == "json":
        obj = {
            "command": "jones",
            "knot": knot_str(knot),
            "values": [{"N": N, "jones": v.to_json_obj()} for N, v in rows],
        }
        print(json.dumps(obj, indent=2))
    else:
        for N, v in rows:
            print(f"J_{N} = {_fmt_value(v)}")
    return 0


def _cmd_ado(args) -> int:
    knot = _parse_knot_arg(args.knot)
    _check_root_order(args.p)
    result = ado(knot, args.p)
    if args.format == "json":
        obj = {
            "command": "ado",
            "knot": knot_str(knot),
            "p": args.p,
            "ado": result.poly.to_json_obj(),
        }
        print(json.dumps(obj, indent=2))
    else:
        print(f"ADO = {result.poly.render_text()}")
    return 0


def _cmd_wrt(args) -> int:
    knot = _parse_knot_arg(args.knot)
    _check_odd_order(args.p)
    if is_double_twist_family(knot):
        value = wrt_zero(knot, args.p)
    elif isinstance(knot, TorusTwoStrand):
        value = wrt_torus_direct(knot.t, args.p)
    else:
        raise UsageError(f"wrt supports double twist knots and t2:t, not {args.knot!r}")
    norm = factor = None
    if args.normalized:
        norm, factor = normalized_wrt(value, args.p)
    if args.format == "json":
        obj = {
            "command": "wrt",
            "knot": knot_str(knot),
            "p": args.p,
            "wrt": value.to_json_obj(),
            "normalized": None if norm is None or factor is not None else norm.to_json_obj(),
            "normalization_remainder_factor": None if factor is None else factor.to_json_obj(),
        }
        print(json.dumps(obj, indent=2))
    else:
        print(f"WRT = {value.render()}")
        if args.normalized:
            if factor is None:
                print(f"WRT/{{1}}^2 = {norm.render()}")
            else:
                print(f"{{1}}^2 = {factor.render()} (does not divide; value left unnormalized)")
    return 0


def _cmd_cgp(args) -> int:
    knot = _parse_knot_arg(args.knot)
    _check_odd_order(args.p)
    if is_double_twist_family(knot):
        result = cgp_zero(knot, args.p)
    elif isinstance(knot, TorusTwoStrand):
        result = cgp_torus_direct(knot.t, args.p)
    else:
        raise UsageError(f"cgp supports double twist knots and t2:t, not {args.knot!r}")
    if args.format == "json":
        obj = {
            "command": "cgp",
            "knot": knot_str(knot),
            "p": args.p,
            "numerator": result.numerator.to_json_obj(),
            "denominator": result.denominator_tag,
            "numerator_prefactor": result.numerator_prefactor_tag,
            "denominator_extra": result.denominator_extra_tag,
        }
        print(json.dumps(obj, indent=2))
    else:
        print(f"numerator = {result.numerator.render_text()}")
        print(f"denominator = {result.denominator_tag}")
        if result.numerator_prefactor_tag:
            print(f"numerator_prefactor = {result.numerator_prefactor_tag}")
        if result.denominator_extra_tag:
            print(f"denominator_extra = {result.denominator_extra_tag}")
    return 0


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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
