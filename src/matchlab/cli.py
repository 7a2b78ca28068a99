"""Command-line surface for the verification workflows.

Verbs: classify, verify-amp, enumerate, genfun, certify, report.  Each verb
returns (payload, text, verified): the dict --format json prints, the text
form (None for certify, which prints JSON in every format), and whether its
claims re-verified.  `main` alone renders the result, writes it and picks the
exit code.

Global options are --format and --out; csv is a format of report only, built
from its payload's rows, with a dict or list cell written as JSON.  The only
bound a user sets is verify-amp's --bound on the group order; the
enumeration bound, the enumerate verb's listing bound, the exhaustive bound
of classify and report, and the integer sample's seed and count are module
constants, and the symmetry reduction is `verify_group_amp`'s default.
JSON output is byte for byte `json.dumps(payload, indent=2,
sort_keys=True)`, written by `_json` without `json`'s indented encoder,
which runs in pure Python before 3.13.

Exit codes: 0 success; 1 verification failure: a failure raised on the way
prints `verification failure: ` and its evidence on stderr (a genfun --check
disagreement names each method's polynomial), while a result that did not
verify (certify's certificate, classify's verdict, a report row) is printed
as usual; 2 usage error (also genfun --check when fewer than two methods
apply); 3 resource bound exceeded (|A| past the enumeration bound in
enumerate and genfun --method brute, more matchings than enumerate's
`LISTING_BOUND`, or a group order past verify-amp's --bound).  Reports are
byte-identical for identical inputs; wall time lives in a separate metadata
block, never in data rows.

`main` may be called many times in one process (the reproduction script and
the golden tests do): `build_parser` builds the parser on the first call and
returns that one parser after, so a call costs its verb's work and not the
argparse set-up.  Each call parses into a fresh namespace, so calls share no
state; but `set_defaults` captures the `cmd_*` functions and the --bound
default when the parser is built, so rebinding either later in the process
does not reach `main`.  Every usage error comes back as the return value 2:
a malformed command line prints on stderr what argparse prints (the usage
line, then `matchlab: error: ...`, with the verb after `matchlab` when its
own arguments are at fault), and `main` returns 2 rather than raising
SystemExit.  Only --help raises argparse's SystemExit(0), after printing
the help.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from .certify import classify, failure_certificate
from .errors import (
    BoundExceededError,
    MatchlabError,
    VerificationFailure,
)
from .genfun import genfun_by_method, genfun_routes
from .groups import cyclic, parse_group
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


def cmd_classify(args) -> tuple[dict, str | None, bool]:
    cert = classify(parse_group(args.group))
    ev = cert.evidence
    if not ev["holds"]:
        line = f"fails ({ev['method']})"
        ce = ev.get("counterexample")
        if ce:
            line += f"; counterexample A={ce['a']} B={ce['b']}"
        elif ev.get("failures"):
            first = ev["failures"][0]
            line += f"; first failure A={first['a']} B={first['b']}"
    elif ev["method"] == "torsion_free_sampled":
        line = "holds (torsion-free, sampled)"
    elif ev.get("vacuous"):
        line = "holds (vacuous: no valid pair exists)"
    else:
        line = f"holds ({ev['method']})"
    return cert.to_json_dict(), f"{cert.descriptor}: {line}", cert.verified


def cmd_verify_amp(args) -> tuple[dict, str | None, bool]:
    if args.bound < 1:
        raise ValueError(f"--bound must be positive, got {args.bound}")
    result = verify_group_amp(cyclic(args.n), exhaustive_bound=args.bound)
    ce = result.counterexample
    payload = {
        "group": f"Z/{args.n}Z",
        "holds": result.holds,
        "pairs_checked": result.pairs_checked,
        "counterexample": None if ce is None else {"a": list(ce.a), "b": list(ce.b)},
    }
    if result.holds:
        text = f"Z/{args.n}Z: acyclic matching property holds ({result.pairs_checked} pairs)"
    else:
        text = f"Z/{args.n}Z: fails; first counterexample A={list(ce.a)} B={list(ce.b)}"
    return payload, text, True


def cmd_enumerate(args) -> tuple[dict, str | None, bool]:
    g = parse_group(args.group)
    pair = SubsetPair(g, args.a, args.b)
    report = acyclicity_report(pair)
    if report.total_matchings > LISTING_BOUND:
        raise BoundExceededError(
            f"{report.total_matchings} matchings exceed the listing bound {LISTING_BOUND}"
        )
    witness = report.acyclic_witness
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
        "acyclic_witness": None if witness is None else list(witness.assignment),
    }
    lines = [
        f"{g.describe()} A={payload['a']} B={payload['b']}",
        f"matchings: {report.total_matchings}",
    ]
    for cls in payload["classes"]:
        mult = ", ".join(f"{x}:{c}" for x, c in cls["multiplicity"])
        lines.append(f"  class {{{mult}}} size {cls['size']} witness {cls['witness_assignment']}")
    lines.append(f"acyclic witness: {'none' if witness is None else payload['acyclic_witness']}")
    return payload, "\n".join(lines), True


def cmd_genfun(args) -> tuple[dict, str | None, bool]:
    values = genfun_routes(args.n, args.m) if args.check else {}
    if args.method in values:
        poly = values[args.method]
    else:
        # without --check; with it, this raises the error that kept the
        # method out of the routes
        poly = genfun_by_method(args.method, args.n, args.m)
    text = poly.to_text()
    payload = {
        "n": args.n,
        "m": args.m,
        "method": args.method,
        "terms": poly.to_json_terms(),
        "text": text,
    }
    if args.check:
        if len(values) < 2:
            raise ValueError(
                f"--check needs two methods, but only {'+'.join(values)} ran"
                f" for n = {args.n}, m = {args.m}"
            )
        if any(p != poly for p in values.values()):
            dump = {m: p.to_text() for m, p in values.items()}
            raise VerificationFailure(f"method disagreement: {json.dumps(dump)}")
        methods = sorted(values)
        payload["check"] = {"methods": methods, "agree": True}
        text += f"\ncheck: {'+'.join(methods)} agree"
    return payload, text, True


def cmd_certify(args) -> tuple[dict, str | None, bool]:
    cert = failure_certificate(args.n)
    return cert.to_json_dict(), None, cert.verified


def _report_row(n: int) -> dict:
    cert = classify(cyclic(n))
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
    row = {
        "n": n,
        "verdict": "holds" if holds else "fails",
        "evidence": method,
        "matchings": matchings,
        "min_coefficient": min_coeff,
        "verified": cert.verified,
    }
    if "counterexample" in cert.evidence:
        row["counterexample"] = cert.evidence["counterexample"]
    return row


def cmd_report(args) -> tuple[dict, str | None, bool]:
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
    print(f"# wall_time_s={time.perf_counter() - start:.3f}", file=sys.stderr)
    lines = [f"{'n':>3}  {'verdict':7}  {'evidence':20}  {'matchings':>9}  {'min_coeff':>9}"]
    for r in rows:
        line = (
            f"{r['n']:>3}  {r['verdict']:7}  {r['evidence']:20}  "
            f"{'' if r['matchings'] is None else r['matchings']:>9}  "
            f"{'' if r['min_coefficient'] is None else r['min_coefficient']:>9}"
        )
        ce = r.get("counterexample")
        if ce:
            line += f"  A={ce['a']} B={ce['b']}"
        lines.append(line)
    return {"rows": rows}, "\n".join(lines), all(r["verified"] for r in rows)


def _render(fmt: str, payload: dict, text: str | None) -> str:
    """A verb's result in format `fmt`: csv from the payload's rows, json
    from the payload, text from the text, or the payload as json when the
    verb has no text form."""
    if fmt == "csv":
        buf = io.StringIO()
        # a row that names a counterexample has one more key than the rest
        fields = dict.fromkeys(key for row in payload["rows"] for key in row)
        writer = csv.DictWriter(buf, fieldnames=list(fields))
        writer.writeheader()
        for row in payload["rows"]:
            writer.writerow({key: json.dumps(value, sort_keys=True)
                             if isinstance(value, (dict, list)) else value
                             for key, value in row.items()})
        return buf.getvalue().rstrip("\n")
    if fmt == "json" or text is None:
        return _json(payload)
    return text


def _json(value, pad: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, with
    each newline written as `pad`.  Writes str-keyed dicts, int lists (one
    join) and scalars itself, and hands everything else (floats, empty
    containers, other keys, subclasses) to `json.dumps`, whose output holds
    a raw newline only between lines."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    inner = pad + "  "
    sep = "," + inner
    if kind is dict and value and all(type(key) is str for key in value):
        return "{" + inner + sep.join(
            _quote(key) + ": " + _json(value[key], inner) for key in sorted(value)) + pad + "}"
    if (kind is list or kind is tuple) and value:
        if set(map(type, value)) == {int}:
            return "[" + inner + sep.join(map(int.__repr__, value)) + pad + "]"
        return "[" + inner + sep.join(_json(item, inner) for item in value) + pad + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


class _CommandLineError(Exception):
    """A malformed command line, carrying what argparse would print on
    stderr before exiting 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors return to `main`, which prints them
    and returns 2, instead of raising SystemExit; its subparsers inherit
    the class."""

    def error(self, message: str):
        raise _CommandLineError(f"{self.format_usage()}{self.prog}: error: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(
            _join_element_lists(sys.argv[1:] if argv is None else argv))
        if args.format == "csv" and args.func is not cmd_report:
            raise ValueError(f"--format csv applies only to report, not {args.command}")
        payload, text, verified = args.func(args)
        _emit(_render(args.format, payload, text), args.out)
        return EXIT_OK if verified else EXIT_VERIFICATION_FAILURE
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    except _CommandLineError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, MatchlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
