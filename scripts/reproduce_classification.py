#!/usr/bin/env python3
"""Reproduce the full desk-scale classification run and write the artifacts.

Each artifact is the output of one `matchlab` command, byte for byte
(under --out-dir, default ./artifacts):
  classify_n<k>.json   matchlab --format json classify k, for k = 1..8
  classify_Z.json      matchlab --format json classify Z
  certify_n<k>.json    matchlab certify k, for k = 4..35 except the prime 5

Exits with the first non-zero code a command returns: 1 verification
failure, 2 usage error, 3 resource bound exceeded.
"""

import argparse
import sys
from pathlib import Path

from matchlab.cli import main as matchlab


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="artifacts")
    out = Path(parser.parse_args().out_dir)
    out.mkdir(parents=True, exist_ok=True)

    commands = [(f"classify_n{n}", ["--format", "json", "classify", str(n)]) for n in range(1, 9)]
    commands.append(("classify_Z", ["--format", "json", "classify", "Z"]))
    commands += [(f"certify_n{n}", ["certify", str(n)]) for n in range(4, 36) if n != 5]
    for name, argv in commands:
        code = matchlab(["--out", str(out / f"{name}.json"), *argv])
        if code:
            sys.exit(code)


if __name__ == "__main__":
    main()
