"""Command-line surface for the verification workflows.

Verbs: classify, verify-amp, enumerate, genfun, certify, report.

Exit codes: 0 success, 1 verification failure (a claim failed to re-verify;
diagnostic dump emitted), 2 usage error, 3 resource bound exceeded.
Reports are byte-identical for identical config and inputs; wall time lives
in a separate metadata block, never in data rows.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .certify import classify, failure_certificate
from .config import CONFIG_ENV_VAR, OUTPUT_FORMATS, RunConfig
from .errors import (
    BoundExceededError,
    MatchlabError,
    VerificationFailure,
)
from .genfun import genfun_by_method
from .groups import cyclic, integers
from .matching import SubsetPair, acyclicity_report, verify_group_amp

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


def _emit(text: str, cfg: RunConfig):
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise MatchlabError(f"cannot write {cfg.output_path}: {exc}") from exc
    else:
        print(text)


def _parse_elements(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")


def _parse_group(raw: str) -> str | int:
    """The group argument: "Z" for the integers, else the order n of Z/nZ."""
    if raw.upper() == "Z":
        return "Z"
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"group must be a positive integer or Z, got {raw!r}") from None


def cmd_classify(args, cfg: RunConfig) -> int:
    cert = classify(
        _parse_group(args.group),
        exhaustive_bound=cfg.exhaustive_group_bound,
        enumeration_bound=cfg.enumeration_bound,
        use_symmetry=cfg.symmetry_reduction,
        seed=cfg.seed,
    )
    if cfg.output_format == "json":
        _emit(json.dumps(cert.to_json_dict(), indent=2, sort_keys=True), cfg)
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
        _emit(f"{cert.descriptor}: {line}", cfg)
    return EXIT_OK if cert.verified else EXIT_VERIFICATION_FAILURE


def cmd_verify_amp(args, cfg: RunConfig) -> int:
    result = verify_group_amp(
        cyclic(args.n),
        use_symmetry=cfg.symmetry_reduction,
        exhaustive_bound=cfg.exhaustive_group_bound,
        enumeration_bound=cfg.enumeration_bound,
    )
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
    if cfg.output_format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg)
    else:
        if result.holds:
            _emit(f"Z/{args.n}Z: acyclic matching property holds ({result.pairs_checked} pairs)", cfg)
        else:
            ce = result.counterexample
            _emit(
                f"Z/{args.n}Z: fails; first counterexample A={list(ce.a)} B={list(ce.b)}",
                cfg,
            )
    return EXIT_OK


def cmd_enumerate(args, cfg: RunConfig) -> int:
    descriptor = _parse_group(args.group)
    g = integers() if descriptor == "Z" else cyclic(descriptor)
    pair = SubsetPair(g, args.a, args.b)
    report = acyclicity_report(pair, cfg.enumeration_bound)
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
    if cfg.output_format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg)
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
        _emit("\n".join(lines), cfg)
    return EXIT_OK


def cmd_genfun(args, cfg: RunConfig) -> int:
    try:
        poly = genfun_by_method(args.method, args.n, args.m, cfg.enumeration_bound)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    agreement = None
    if args.check:
        candidates = ["transfer", "brute"]
        if args.m in (2, 6):
            candidates.append("closed")
        values = {}
        for method in candidates:
            if method == args.method:
                values[method] = poly
                continue
            try:
                values[method] = genfun_by_method(method, args.n, args.m, cfg.enumeration_bound)
            except (ValueError, BoundExceededError):
                continue
        agreement = {
            "methods": sorted(values),
            "agree": len(set(values.values())) == 1,
        }
        if not agreement["agree"]:
            dump = {m: p.to_text() for m, p in values.items()}
            print(f"error: method disagreement: {json.dumps(dump)}", file=sys.stderr)
            return EXIT_VERIFICATION_FAILURE
    if cfg.output_format == "json":
        payload = {
            "n": args.n,
            "m": args.m,
            "method": args.method,
            "terms": poly.to_json_terms(),
            "text": poly.to_text(),
        }
        if agreement is not None:
            payload["check"] = agreement
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg)
    else:
        lines = [poly.to_text()]
        if agreement is not None:
            lines.append(f"check: {'+'.join(agreement['methods'])} agree")
        _emit("\n".join(lines), cfg)
    return EXIT_OK


def cmd_certify(args, cfg: RunConfig) -> int:
    cert = failure_certificate(args.n, cfg.enumeration_bound)
    _emit(json.dumps(cert.to_json_dict(), indent=2, sort_keys=True), cfg)
    return EXIT_OK if cert.verified else EXIT_VERIFICATION_FAILURE


def _report_row(n: int, cfg: RunConfig) -> dict:
    cert = classify(
        n,
        exhaustive_bound=cfg.exhaustive_group_bound,
        enumeration_bound=cfg.enumeration_bound,
        use_symmetry=cfg.symmetry_reduction,
        seed=cfg.seed,
    )
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


def cmd_report(args, cfg: RunConfig) -> int:
    raw = args.range
    try:
        if ".." in raw:
            lo_s, hi_s = raw.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(raw)
    except ValueError:
        print(f"error: range must be N or LO..HI, got {raw!r}", file=sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    rows = [_report_row(n, cfg) for n in range(max(lo, 1), hi + 1)]
    wall = time.perf_counter() - start
    all_verified = all(r["verified"] for r in rows)

    if cfg.output_format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=["n", "verdict", "evidence", "matchings", "min_coefficient", "verified"]
        )
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue().rstrip("\n"), cfg)
    elif cfg.output_format == "json":
        payload = {
            "rows": rows,
            "config": {
                "enumeration_bound": cfg.enumeration_bound,
                "exhaustive_group_bound": cfg.exhaustive_group_bound,
                "symmetry_reduction": cfg.symmetry_reduction,
                "seed": cfg.seed,
            },
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg)
    else:
        lines = [f"{'n':>3}  {'verdict':7}  {'evidence':20}  {'matchings':>9}  {'min_coeff':>9}"]
        for r in rows:
            lines.append(
                f"{r['n']:>3}  {r['verdict']:7}  {r['evidence']:20}  "
                f"{'' if r['matchings'] is None else r['matchings']:>9}  "
                f"{'' if r['min_coefficient'] is None else r['min_coefficient']:>9}"
            )
        _emit("\n".join(lines), cfg)
    print(f"# wall_time_s={wall:.3f}", file=sys.stderr)
    return EXIT_OK if all_verified else EXIT_VERIFICATION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchlab",
        description=(
            "Verification lab for acyclic matchings in abelian groups. "
            f"Default config may be supplied via ${CONFIG_ENV_VAR}."
        ),
    )
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, dest="output_format")
    parser.add_argument("--out", dest="output_path", help="write output to this file")
    parser.add_argument("--seed", type=int, help="seed for sampled checks")
    parser.add_argument(
        "--no-symmetry",
        action="store_true",
        help="disable unit-scaling symmetry reduction in exhaustive search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification verdict for Z/nZ or Z")
    p.add_argument("group", help="group order n, or Z for the integers")
    p.add_argument("--bound", type=int, help="exhaustive group-order bound")
    p.set_defaults(func=cmd_classify, bound_field="exhaustive_group_bound")

    p = sub.add_parser("verify-amp", help="exhaustive acyclic-matching-property check for Z/nZ")
    p.add_argument("n", type=int)
    p.add_argument("--bound", type=int, help="exhaustive group-order bound")
    p.set_defaults(func=cmd_verify_amp, bound_field="exhaustive_group_bound")

    p = sub.add_parser("enumerate", help="enumerate matchings of one pair and bucket them")
    p.add_argument("group", help="group order n, or Z for the integers")
    p.add_argument("--a", type=_parse_elements, required=True, help="comma-separated elements of A")
    p.add_argument("--b", type=_parse_elements, required=True, help="comma-separated elements of B")
    p.add_argument("--bound", type=int, help="enumeration size bound")
    p.set_defaults(func=cmd_enumerate, bound_field="enumeration_bound")

    p = sub.add_parser("genfun", help="matching generating function for the standard pair")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--method", choices=["transfer", "brute", "closed"], default="transfer")
    p.add_argument("--check", action="store_true", help="cross-validate all applicable methods")
    p.add_argument("--bound", type=int, help="enumeration size bound")
    p.set_defaults(func=cmd_genfun, bound_field="enumeration_bound")

    p = sub.add_parser("certify", help="failure certificate for Z/nZ")
    p.add_argument("n", type=int)
    p.add_argument("--bound", type=int, help="enumeration size bound")
    p.set_defaults(func=cmd_certify, bound_field="enumeration_bound")

    p = sub.add_parser("report", help="classification table over a range of n (LO..HI)")
    p.add_argument("range", help="N or LO..HI (inclusive)")
    p.add_argument("--bound", type=int, help="exhaustive group-order bound")
    p.set_defaults(func=cmd_report, bound_field="exhaustive_group_bound")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig.from_env()
        overrides = {
            "output_format": args.output_format,
            "output_path": args.output_path,
            "seed": args.seed,
        }
        if args.no_symmetry:
            overrides["symmetry_reduction"] = False
        if getattr(args, "bound", None) is not None:
            overrides[args.bound_field] = args.bound
        cfg = cfg.override(**overrides)
        return args.func(args, cfg)
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
