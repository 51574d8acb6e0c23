"""Command line interface: analyze | scan | selftest.

Exit codes: 0 success, 1 standard output closed before everything was
written (as by ``| head``; no traceback), 2 build/usage error (including
a --prime that is not a prime, a negative --cap, and a group the
analysis cannot handle, such as --oracle on a group of order above 1024,
whatever its backing),
3 internal consistency failure (a cross-check mismatch or a failed
acceptance criterion).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .acceptance import run_all
from .catalog import Catalog
from .classify import corollary_sharpness
from .errors import LieNilpError
from .groups import ORACLE_ORDER_LIMIT, is_prime
from .oracle import DEFAULT_ORACLE_CAP
from .report import LieReport, analyze, render_text

EXIT_OK = 0
EXIT_CLOSED_PIPE = 1
EXIT_BUILD = 2
EXIT_CONSISTENCY = 3


def _add_common(sub: argparse.ArgumentParser, cap_help: str) -> None:
    sub.add_argument("--catalog", metavar="FILE",
                     help="catalog file (defaults to the shipped one)")
    sub.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP,
                     metavar="N", help=f"oracle cap: {cap_help} (default "
                                       f"{DEFAULT_ORACLE_CAP})")
    sub.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON")


def _add_analysis(sub: argparse.ArgumentParser) -> None:
    """The options of the commands that analyse at one prime."""
    sub.add_argument("--prime", type=int, required=True,
                     help="the characteristic p of the field GF(p)")
    _add_common(sub, "run the explicit group-algebra oracle only for "
                     "orders up to N")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--oracle", dest="run_oracle", action="store_const",
                      const=True, help="force the oracle regardless of the "
                                       f"cap, up to order {ORACLE_ORDER_LIMIT}")
    mode.add_argument("--no-oracle", dest="run_oracle", action="store_const",
                      const=False, help="never run the oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lienilp",
        description="Lie nilpotency indices of modular group algebras "
                    "over GF(p)")
    subs = parser.add_subparsers(dest="command", required=True)

    p_an = subs.add_parser("analyze", help="analyze one catalog group")
    p_an.add_argument("group", help="catalog entry name")
    _add_analysis(p_an)

    p_sc = subs.add_parser("scan", help="analyze every catalog entry")
    p_sc.add_argument("--max-order", type=int, default=None, metavar="N",
                      help="skip entries larger than N")
    _add_analysis(p_sc)

    p_st = subs.add_parser("selftest", help="run the acceptance suite")
    _add_common(p_st, "the criteria that read the group-algebra oracle "
                      "check only the catalog groups of order up to N")
    return parser


def _dump_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _analyze_entries(args, catalog: Catalog, names: list[str],
                     max_order: int | None = None) -> list[LieReport]:
    """Build the named entries, so that a build error reaches ``main``
    before any analysis runs, then analyse at ``--prime`` those of
    order up to ``max_order`` (all when None).  An analysis error is
    re-raised with its message prefixed by the entry's name."""
    built = [(name, catalog.build(name)) for name in names]
    reports = []
    for name, g in built:
        if max_order is None or g.order <= max_order:
            try:
                reports.append(analyze(g, args.prime, name=name,
                                       run_oracle=args.run_oracle,
                                       oracle_cap=args.cap))
            except LieNilpError as exc:
                exc.args = (f"{name}: {exc}",)
                raise
    return reports


def _exit_code(reports: list[LieReport]) -> int:
    return EXIT_CONSISTENCY if any(r.failed_checks for r in reports) \
        else EXIT_OK


def cmd_analyze(args, catalog: Catalog) -> int:
    reports = _analyze_entries(args, catalog, [args.group])
    if args.json:
        _dump_json(reports[0].to_json_dict())
    else:
        print(render_text(reports[0]))
    return _exit_code(reports)


def _scan_summary(reports: list[LieReport], prime: int) -> dict:
    """Verdict counts, failed checks and the sharpness witnesses among
    the scanned groups."""
    verdicts = Counter(r.verdict for r in reports)
    witnesses = corollary_sharpness(prime, reports) if prime in (2, 3) \
        else []
    return {
        "prime": prime,
        "groups_scanned": len(reports),
        "verdict_counts": dict(sorted(verdicts.items())),
        "failed_checks": [{"name": r.name, "failed_checks": r.failed_checks}
                          for r in reports if r.failed_checks],
        "sharpness_witnesses": [vars(w) for w in witnesses],
    }


def cmd_scan(args, catalog: Catalog) -> int:
    reports = _analyze_entries(args, catalog,
                               [entry.name for entry in catalog.entries],
                               args.max_order)
    summary = _scan_summary(reports, args.prime)
    if args.json:
        _dump_json({"reports": [r.to_json_dict() for r in reports],
                    "summary": summary})
    else:
        for r in reports:
            flags = "CHECK-FAILED" if r.failed_checks else "ok"
            print(f"{r.name:<10} order {r.order:>6}  p={r.prime}  "
                  f"t={str(r.t_upper_jennings):>4}  {r.verdict:<18} {flags}")
        print(f"-- scanned {summary['groups_scanned']} groups at "
              f"p={args.prime}")
        print(f"-- verdicts: {summary['verdict_counts']}")
        print(f"-- failed checks: {len(summary['failed_checks'])}")
        if summary["sharpness_witnesses"]:
            names = ", ".join(f"{w['name']} (t={w['t_upper']}, p>=5 bound "
                              f"{w['small_p_bound']})"
                              for w in summary["sharpness_witnesses"])
            print(f"-- sharpness witnesses: {names}")
    return _exit_code(reports)


def cmd_selftest(args, catalog: Catalog) -> int:
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
    if args.cap < 0:
        print(f"error: --cap must be >= 0, got {args.cap}", file=sys.stderr)
        return EXIT_BUILD
    handler = {"analyze": cmd_analyze, "scan": cmd_scan,
               "selftest": cmd_selftest}[args.command]
    try:
        code = handler(args, Catalog.load(args.catalog))
        sys.stdout.flush()      # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader left early.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except (LieNilpError, OSError, ValueError) as exc:
        # The catalog cannot be read, an entry cannot be built, or an
        # analysis fails (its message then starts with the entry's name).
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    return code


if __name__ == "__main__":
    sys.exit(main())
