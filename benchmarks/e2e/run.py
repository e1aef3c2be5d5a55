#!/usr/bin/env python3
"""End-to-end benchmark of the dissemination service (one command).

    python benchmarks/e2e/run.py [--workload W] [--seed S] [--traced]
    python benchmarks/e2e/run.py selfcheck --runs 5
    python benchmarks/e2e/run.py --regen-golden

Each workload starts its own ``repro serve`` process tree, drives it
from this (single) process, checks every subscriber's delivered stream
against a golden digest, prints every metric by name with its unit,
writes a manifest, and ends with one JSON result line.  README.md in
this directory has the definitions.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]


def main() -> int:
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        # Nothing to measure: this is not a checkout of the repository.
        sys.stderr.write(
            f"benchmarks/e2e: no src/repro under {REPO_ROOT}; "
            "run from a full checkout\n"
        )
        return 2
    if not sys.platform.startswith("linux"):
        sys.stderr.write(
            "benchmarks/e2e: the server tree is measured through /proc; "
            "Linux only\n"
        )
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The generator process hashes like the server it starts.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from harness import cli

    return cli.main(sys.argv[1:], usage=__doc__)


if __name__ == "__main__":
    sys.exit(main())
