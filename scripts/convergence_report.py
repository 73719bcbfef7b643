#!/usr/bin/env python3
"""Emit a CSV of total-variation distances between the exact finite-size
conditional law and the limiting law along a ladder of sizes.  The distances
shrink roughly like 1/n."""

import argparse
import csv
import sys

from endprox import Model, Stat, conditional_law, limit_of, pmf_expand
from endprox.pipeline import tail_tv


def tv_against_law(arr, law) -> float:
    """The exact law arr against the limit law on arr's range; arr's tail is
    the mass it misses."""
    return tail_tv(arr, max(0.0, 1 - float(arr.sum())), pmf_expand(law, len(arr) - 1))


SUPPORTED = [
    (Model.DYCK, Stat.DEG),
    (Model.MOTZKIN, Stat.DEG),
    (Model.PFOLD, Stat.DEG),
    (Model.MOTZKIN, Stat.UNP),
    (Model.PFOLD, Stat.UNP),
    (Model.DYCK, Stat.HEL),
    (Model.MOTZKIN, Stat.HEL),
    (Model.PFOLD, Stat.HEL),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000])
    args = parser.parse_args()

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["model", "stat", "n", "tv"])
    for model, stat in SUPPORTED:
        law = limit_of(model, stat)
        for n in args.sizes:
            writer.writerow([model.value, stat.value, n, tv_against_law(conditional_law(model, stat, n), law)])


if __name__ == "__main__":
    main()
