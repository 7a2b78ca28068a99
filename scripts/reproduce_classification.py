#!/usr/bin/env python3
"""Reproduce the full desk-scale classification run and write the artifacts.

Outputs (under --out-dir, default ./artifacts):
  report_1_8.json            classification table for Z/nZ, n = 1..8
  cert_coprime6_n<k>.json    failure certificates for n coprime to 6, 7..35
  cert_nonprime_n<k>.json    subgroup counterexamples for composite n, 4..16
  integers_spot_check.json   torsion-free sampling evidence (fixed seed and count)
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

from matchlab.certify import (
    certify_coprime6,
    classify,
    nonprime_counterexample,
    spot_check_integers,
)
from matchlab.groups import cyclic


def require_verified(cert, what: str):
    """Exit 1, naming the failed checks, unless `cert` verified.  An explicit
    check, not an assert, so it holds under `python -O` too."""
    if not cert.verified:
        print(f"{what} failed to verify; failed checks: {cert.evidence['failed_checks']}",
              file=sys.stderr)
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="artifacts")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()

    rows = []
    for n in range(1, 9):
        cert = classify(cyclic(n))
        rows.append(cert.to_json_dict())
        print(f"Z/{n}Z: {'holds' if cert.evidence.get('holds') else 'fails'} "
              f"({cert.evidence.get('method')})")
    (out / "report_1_8.json").write_text(json.dumps(rows, indent=2, sort_keys=True))

    for n in range(7, 36):
        if math.gcd(n, 6) != 1:
            continue
        cert = certify_coprime6(n)
        require_verified(cert, f"certificate for n={n}")
        (out / f"cert_coprime6_n{n}.json").write_text(
            json.dumps(cert.to_json_dict(), indent=2, sort_keys=True)
        )
        print(f"coprime6 n={n}: min coefficient {cert.evidence['min_coefficient']}")

    for n in range(4, 17):
        if all(n % d for d in range(2, n)):
            continue
        cert = nonprime_counterexample(n)
        require_verified(cert, f"counterexample for n={n}")
        (out / f"cert_nonprime_n{n}.json").write_text(
            json.dumps(cert.to_json_dict(), indent=2, sort_keys=True)
        )
        print(f"nonprime n={n}: pair {cert.evidence['pair']}")

    spot = spot_check_integers()
    (out / "integers_spot_check.json").write_text(json.dumps(spot, indent=2, sort_keys=True))
    print(f"integers spot check: {spot['samples']} samples, {len(spot['failures'])} failures")

    print(f"done in {time.perf_counter() - start:.1f}s; artifacts in {out}/")


if __name__ == "__main__":
    main()
