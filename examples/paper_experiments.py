#!/usr/bin/env python3
"""Regenerate the experiment tables (what ``lucky-storage run-experiment`` prints).

Runs every experiment E1-E10, the ablations A1-A2 and the store sweeps S1-S8
and prints the result tables.  Pass experiment ids to run a subset,
``--markdown`` for markdown output.

Usage::

    python examples/paper_experiments.py            # everything (~2 seconds)
    python examples/paper_experiments.py E1 E4      # a subset
    python examples/paper_experiments.py --markdown # markdown tables
"""

import sys

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.report import generate_report


def main() -> None:
    args = [arg for arg in sys.argv[1:]]
    markdown = "--markdown" in args
    ids = [arg for arg in args if arg in ALL_EXPERIMENTS]
    print(generate_report(ids or None, markdown=markdown))


if __name__ == "__main__":
    main()
