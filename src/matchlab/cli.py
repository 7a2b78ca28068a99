"""Command-line surface for the verification workflows.

Verbs: classify, verify-amp, enumerate, genfun, certify, report.

Global options are --format and --out; csv is a format of report only, and
certify prints JSON in either other format.  The only bound a user sets is
verify-amp's --bound on the group order; the enumeration bound, the
enumerate verb's listing bound, the exhaustive bound of classify and report,
the symmetry reduction and the integer sample's seed and count are module
constants.

Exit codes: 0 success, 1 verification failure (a claim failed to re-verify;
diagnostic dump emitted), 2 usage error (also genfun --check when fewer than
two methods apply), 3 resource bound exceeded (|A| past the enumeration bound
in enumerate and genfun --method brute, more matchings than enumerate's
`LISTING_BOUND`, or a group order past verify-amp's --bound).  Reports are
byte-identical for identical inputs; wall time lives in a separate metadata
block, never in data rows.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .certify import classify, failure_certificate
from .errors import (
    BoundExceededError,
    MatchlabError,
    VerificationFailure,
)
from .genfun import genfun_by_method, genfun_routes
from .groups import cyclic, integers
from .matching import (
    DEFAULT_EXHAUSTIVE_BOUND,
    SubsetPair,
    acyclicity_report,
    verify_group_amp,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_BOUND = 3
# enumerate lists the classes of at most this many matchings; listing them
# walks every matching and keeps every class, about 1 GB at 10**6
LISTING_BOUND = 10**6


def _emit(text: str, path: str | None):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise MatchlabError(f"cannot write {path}: {exc}") from exc
    else:
        print(text)


def _parse_elements(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")


def _join_element_lists(argv: list[str]) -> list[str]:
    """`argv` with each `--a` or `--b` joined by `=` to a following element
    list that starts with a negative number, which argparse would otherwise
    read as an option."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in ("--a", "--b") and arg[:1] == "-" and arg[1:2].isdigit():
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _parse_group(raw: str) -> str | int:
    """The group argument: "Z" for the integers, else the order n of Z/nZ."""
    if raw.upper() == "Z":
        return "Z"
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"group must be a positive integer or Z, got {raw!r}") from None


def cmd_classify(args) -> int:
    cert = classify(_parse_group(args.group))
    if args.format == "json":
        _emit(json.dumps(cert.to_json_dict(), indent=2, sort_keys=True), args.out)
    else:
        holds = cert.evidence.get("holds")
        if holds:
            detail = cert.evidence.get("method", "")
            if detail == "torsion_free_sampled":
                line = "holds (torsion-free, sampled)"
            elif cert.evidence.get("vacuous"):
                line = "holds (vacuous: no valid pair exists)"
            else:
                line = f"holds ({detail})"
        else:
            line = f"fails ({cert.evidence.get('method', '')})"
        _emit(f"{cert.descriptor}: {line}", args.out)
    return EXIT_OK if cert.verified else EXIT_VERIFICATION_FAILURE


def cmd_verify_amp(args) -> int:
    if args.bound < 1:
        raise ValueError(f"--bound must be positive, got {args.bound}")
    result = verify_group_amp(cyclic(args.n), exhaustive_bound=args.bound)
    payload = {
        "group": f"Z/{args.n}Z",
        "holds": result.holds,
        "pairs_checked": result.pairs_checked,
        "counterexample": (
            {"a": list(result.counterexample.a), "b": list(result.counterexample.b)}
            if result.counterexample
            else None
        ),
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        if result.holds:
            _emit(
                f"Z/{args.n}Z: acyclic matching property holds ({result.pairs_checked} pairs)",
                args.out,
            )
        else:
            ce = result.counterexample
            _emit(
                f"Z/{args.n}Z: fails; first counterexample A={list(ce.a)} B={list(ce.b)}",
                args.out,
            )
    return EXIT_OK


def cmd_enumerate(args) -> int:
    descriptor = _parse_group(args.group)
    g = integers() if descriptor == "Z" else cyclic(descriptor)
    pair = SubsetPair(g, args.a, args.b)
    report = acyclicity_report(pair)
    if report.total_matchings > LISTING_BOUND:
        raise BoundExceededError(
            f"{report.total_matchings} matchings exceed the listing bound {LISTING_BOUND}"
        )
    payload = {
        "group": g.describe(),
        "a": list(pair.a),
        "b": list(pair.b),
        "total_matchings": report.total_matchings,
        "classes": [
            {
                "multiplicity": [[x, c] for x, c in key],
                "size": count,
                "witness_assignment": list(first.assignment),
            }
            for key, count, first in report.classes
        ],
        "acyclic_witness": (
            list(report.acyclic_witness.assignment) if report.acyclic_witness else None
        ),
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = [
            f"{g.describe()} A={list(pair.a)} B={list(pair.b)}",
            f"matchings: {report.total_matchings}",
        ]
        for key, count, first in report.classes:
            mult = ", ".join(f"{x}:{c}" for x, c in key)
            lines.append(f"  class {{{mult}}} size {count} witness {list(first.assignment)}")
        lines.append(
            f"acyclic witness: {list(report.acyclic_witness.assignment) if report.acyclic_witness else 'none'}"
        )
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_genfun(args) -> int:
    poly = genfun_by_method(args.method, args.n, args.m)
    agreement = None
    if args.check:
        values = genfun_routes(args.n, args.m, {args.method: poly})
        if len(values) < 2:
            raise ValueError(
                f"--check needs two methods, but only {'+'.join(values)} ran"
                f" for n = {args.n}, m = {args.m}"
            )
        agreement = {
            "methods": sorted(values),
            "agree": all(p == poly for p in values.values()),
        }
        if not agreement["agree"]:
            dump = {m: p.to_text() for m, p in values.items()}
            print(f"error: method disagreement: {json.dumps(dump)}", file=sys.stderr)
            return EXIT_VERIFICATION_FAILURE
    if args.format == "json":
        payload = {
            "n": args.n,
            "m": args.m,
            "method": args.method,
            "terms": poly.to_json_terms(),
            "text": poly.to_text(),
        }
        if agreement is not None:
            payload["check"] = agreement
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = [poly.to_text()]
        if agreement is not None:
            lines.append(f"check: {'+'.join(agreement['methods'])} agree")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    cert = failure_certificate(args.n)
    _emit(json.dumps(cert.to_json_dict(), indent=2, sort_keys=True), args.out)
    return EXIT_OK if cert.verified else EXIT_VERIFICATION_FAILURE


def _report_row(n: int) -> dict:
    cert = classify(n)
    holds = bool(cert.evidence.get("holds"))
    method = cert.evidence.get("method", "")
    matchings = None
    min_coeff = None
    inner = cert.evidence.get("evidence")
    if inner:
        ev = inner.get("evidence", {})
        min_coeff = ev.get("min_coefficient")
        enum = ev.get("enumeration")
        if enum:
            matchings = enum.get("total_matchings")
        elif inner.get("claim") == "nonprime_failure":
            matchings = 0
    return {
        "n": n,
        "verdict": "holds" if holds else "fails",
        "evidence": method,
        "matchings": matchings,
        "min_coefficient": min_coeff,
        "verified": cert.verified,
    }


def cmd_report(args) -> int:
    raw = args.range
    try:
        if ".." in raw:
            lo_s, hi_s = raw.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(raw)
    except ValueError:
        raise ValueError(f"range must be N or LO..HI, got {raw!r}") from None
    ns = range(max(lo, 1), hi + 1)
    if not ns:
        raise ValueError(f"range {raw!r} contains no n >= 1")
    start = time.perf_counter()
    rows = [_report_row(n) for n in ns]
    wall = time.perf_counter() - start
    all_verified = all(r["verified"] for r in rows)

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=["n", "verdict", "evidence", "matchings", "min_coefficient", "verified"]
        )
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue().rstrip("\n"), args.out)
    elif args.format == "json":
        _emit(json.dumps({"rows": rows}, indent=2, sort_keys=True), args.out)
    else:
        lines = [f"{'n':>3}  {'verdict':7}  {'evidence':20}  {'matchings':>9}  {'min_coeff':>9}"]
        for r in rows:
            lines.append(
                f"{r['n']:>3}  {r['verdict']:7}  {r['evidence']:20}  "
                f"{'' if r['matchings'] is None else r['matchings']:>9}  "
                f"{'' if r['min_coefficient'] is None else r['min_coefficient']:>9}"
            )
        _emit("\n".join(lines), args.out)
    print(f"# wall_time_s={wall:.3f}", file=sys.stderr)
    return EXIT_OK if all_verified else EXIT_VERIFICATION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchlab",
        description="Verification lab for acyclic matchings in abelian groups.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--out", help="write output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification verdict for Z/nZ or Z")
    p.add_argument("group", help="group order n, or Z for the integers")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-amp", help="exhaustive acyclic-matching-property check for Z/nZ")
    p.add_argument("n", type=int)
    p.add_argument("--bound", type=int, default=DEFAULT_EXHAUSTIVE_BOUND,
                   help="exhaustive group-order bound")
    p.set_defaults(func=cmd_verify_amp)

    p = sub.add_parser("enumerate", help="enumerate matchings of one pair and bucket them")
    p.add_argument("group", help="group order n, or Z for the integers")
    p.add_argument("--a", type=_parse_elements, required=True, help="comma-separated elements of A")
    p.add_argument("--b", type=_parse_elements, required=True, help="comma-separated elements of B")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("genfun", help="matching generating function for the standard pair")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--method", choices=["transfer", "brute", "closed"], default="transfer")
    p.add_argument("--check", action="store_true", help="cross-validate all applicable methods")
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("certify", help="failure certificate for Z/nZ")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("report", help="classification table over a range of n (LO..HI)")
    p.add_argument("range", help="N or LO..HI (inclusive)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_element_lists(sys.argv[1:] if argv is None else argv))
    try:
        if args.format == "csv" and args.func is not cmd_report:
            raise ValueError(f"--format csv applies only to report, not {args.command}")
        return args.func(args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    except (ValueError, MatchlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
