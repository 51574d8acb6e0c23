"""Command line interface: analyze | scan | selftest.

Exit codes: 0 success, 2 build/usage error (including a --prime that
is not a prime, and a group the analysis cannot handle, such as the
oracle forced onto a group with no dense table or of order above
1024), 3 internal consistency failure (a cross-check mismatch or a
failed acceptance criterion).
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import run_all
from .catalog import Catalog
from .classify import corollary_sharpness
from .errors import LieNilpError, NoWitnessFoundError
from .groups import is_prime
from .oracle import DEFAULT_ORACLE_CAP, ORACLE_ORDER_LIMIT
from .report import LieReport, analyze, render_text

EXIT_OK = 0
EXIT_BUILD = 2
EXIT_CONSISTENCY = 3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--catalog", metavar="FILE",
                     help="catalog file (defaults to the shipped one)")
    sub.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP,
                     metavar="N",
                     help="oracle cap: run the explicit group-algebra "
                          "oracle only for orders up to N (default "
                          f"{DEFAULT_ORACLE_CAP})")
    sub.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--oracle", action="store_true",
                      help="force the oracle regardless of the cap, "
                           f"up to order {ORACLE_ORDER_LIMIT}")
    mode.add_argument("--no-oracle", action="store_true",
                      help="never run the oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lienilp",
        description="Lie nilpotency indices of modular group algebras "
                    "over GF(p)")
    subs = parser.add_subparsers(dest="command", required=True)

    p_an = subs.add_parser("analyze", help="analyze one catalog group")
    p_an.add_argument("group", help="catalog entry name")
    p_an.add_argument("--prime", type=int, required=True)
    _add_common(p_an)

    p_sc = subs.add_parser("scan", help="analyze every catalog entry")
    p_sc.add_argument("--prime", type=int, required=True)
    p_sc.add_argument("--max-order", type=int, default=None, metavar="N",
                      help="skip entries larger than N")
    _add_common(p_sc)

    p_st = subs.add_parser("selftest", help="run the acceptance suite")
    p_st.add_argument("--catalog", metavar="FILE")
    p_st.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP,
                      metavar="N")
    p_st.add_argument("--json", action="store_true")
    return parser


def _oracle_choice(args) -> bool | None:
    if args.oracle:
        return True
    if args.no_oracle:
        return False
    return None


def _dump_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_analyze(args) -> int:
    try:
        catalog = Catalog.load(args.catalog)
        group = catalog.build(args.group)
    except (LieNilpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    try:
        report = analyze(group, args.prime, name=args.group,
                         run_oracle=_oracle_choice(args),
                         oracle_cap=args.cap)
    except LieNilpError as exc:
        print(f"error: {args.group}: {exc}", file=sys.stderr)
        return EXIT_BUILD
    if args.json:
        _dump_json(report.to_json_dict())
    else:
        print(render_text(report))
    return EXIT_OK if report.all_checks_pass else EXIT_CONSISTENCY


def _scan_summary(reports: list[LieReport], prime: int) -> dict:
    """Verdict counts, failed checks and the sharpness witnesses among
    the scanned groups."""
    verdicts: dict[str, int] = {}
    violations = []
    for r in reports:
        verdicts[r.verdict] = verdicts.get(r.verdict, 0) + 1
        bad = sorted(k for k, v in r.checks.items() if v is False)
        if bad:
            violations.append({"name": r.name, "failed_checks": bad})
    witnesses = []
    if prime in (2, 3):
        try:
            rep = corollary_sharpness(prime, reports)
            witnesses = [{"name": w.name, "n": w.n, "t_upper": w.t_upper}
                         for w in rep.witnesses]
        except NoWitnessFoundError:
            pass
    return {
        "prime": prime,
        "groups_scanned": len(reports),
        "verdict_counts": {k: verdicts[k] for k in sorted(verdicts)},
        "biconditional_violations": violations,
        "sharpness_witnesses": witnesses,
    }


def cmd_scan(args) -> int:
    try:
        catalog = Catalog.load(args.catalog)
        selected = []
        for entry in catalog.entries:
            group = catalog.build(entry.name)
            if args.max_order is None or group.order <= args.max_order:
                selected.append((entry.name, group))
    except (LieNilpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    reports = []
    for name, g in selected:
        try:
            reports.append(analyze(g, args.prime, name=name,
                                   run_oracle=_oracle_choice(args),
                                   oracle_cap=args.cap))
        except LieNilpError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return EXIT_BUILD
    summary = _scan_summary(reports, args.prime)
    if args.json:
        _dump_json({"reports": [r.to_json_dict() for r in reports],
                    "summary": summary})
    else:
        for r in reports:
            flags = ("ok" if r.all_checks_pass else "CHECK-FAILED")
            print(f"{r.name:<10} order {r.order:>6}  p={r.prime}  "
                  f"t={str(r.t_upper_jennings):>4}  {r.verdict:<18} {flags}")
        print(f"-- scanned {summary['groups_scanned']} groups at "
              f"p={args.prime}")
        print(f"-- verdicts: {summary['verdict_counts']}")
        print(f"-- biconditional violations: "
              f"{len(summary['biconditional_violations'])}")
        if summary["sharpness_witnesses"]:
            names = ", ".join(f"{w['name']} (t={w['t_upper']})"
                              for w in summary["sharpness_witnesses"])
            print(f"-- sharpness witnesses: {names}")
    if summary["biconditional_violations"] or \
            not all(r.all_checks_pass for r in reports):
        return EXIT_CONSISTENCY
    return EXIT_OK


def cmd_selftest(args) -> int:
    try:
        catalog = Catalog.load(args.catalog)
    except (LieNilpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    results = run_all(catalog, oracle_cap=args.cap)
    if args.json:
        _dump_json({"criteria": [
            {"key": r.key, "title": r.title, "status": r.status,
             "detail": r.detail}
            for r in results]})
    else:
        for r in results:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[r.status]
            print(f"[{mark}] {r.key:<26} {r.seconds:6.2f}s  {r.detail}")
        passed = sum(r.status == "pass" for r in results)
        print(f"selftest: {passed}/{len(results)} criteria passed, "
              f"{sum(r.status == 'skip' for r in results)} skipped")
    return EXIT_OK if all(r.ok for r in results) else EXIT_CONSISTENCY


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command != "selftest" and not is_prime(args.prime):
        print(f"error: --prime must be a prime >= 2, got {args.prime}",
              file=sys.stderr)
        return EXIT_BUILD
    handler = {"analyze": cmd_analyze, "scan": cmd_scan,
               "selftest": cmd_selftest}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
