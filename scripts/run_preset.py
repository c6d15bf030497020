#!/usr/bin/env python3
"""Run one benchmark row end to end: meta pipeline plus the method comparison.

Example:

    python scripts/run_preset.py --preset ip_stochastic_l --out out

Writes the meta checkpoint, the adapted checkpoint, validity/ROA artifacts and
the comparison table into <out>/<preset>/. The meta chain (train-meta, adapt,
verify, roa) stops at its first failing step, as each step reads the one
before it; compare needs no meta checkpoint and runs regardless. The exit code
is the first nonzero step's, else 0.
"""

import argparse
import sys
from pathlib import Path

from lyapcert import cli
from lyapcert.config import PRESETS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", required=True, choices=sorted(PRESETS))
    parser.add_argument("--out", default="out")
    parser.add_argument("--skip-compare", action="store_true",
                        help="only run the meta pipeline")
    args = parser.parse_args(argv)

    common = ["--preset", args.preset, "--out", args.out]
    base = Path(args.out) / args.preset
    adapted = str(base / "adapted_checkpoint.json")
    codes = []
    for step in (["train-meta"], ["adapt", "--checkpoint", str(base / "meta_checkpoint.json")],
                 ["verify", "--checkpoint", adapted], ["roa", "--checkpoint", adapted]):
        codes.append(cli.main([*step, *common]))
        if codes[-1]:
            break
    if not args.skip_compare:
        codes.append(cli.main(["compare", *common]))
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    sys.exit(main())
