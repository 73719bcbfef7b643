#!/usr/bin/env python3
"""Print the limiting-law table: every supported (model, statistic) pair with
its law parameters, mean, and variance; distance moments are certified to the
given tolerance."""

import argparse

from endprox import Model, Stat, ete_limit_moments, limit_of, moments
from endprox.exact import UnsupportedCombination

SCALAR_STATS = [Stat.DEG, Stat.UNP, Stat.CHN, Stat.LEN, Stat.HEL, Stat.STM, Stat.STEM_HELICES]

FORMATS = {  # by the kind that a law's own description names
    "neg_binomial": "NB({r}, {p:.4g})",
    "substituted_len": "len subst. of joint(a={a:.4g}, b={b:.4g})",
    "joint_nb": "joint(a={a:.4g}, b={b:.4g})",
}


def describe(law) -> str:
    fields = law.describe()
    prefix = f"{fields['offset']} + " if fields.get("offset") else ""
    return prefix + FORMATS[fields["kind"]].format(**fields)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol", type=float, default=1e-3)
    args = parser.parse_args()

    header = f"{'model':<9}{'stat':<14}{'law':<38}{'mean':>10}{'variance':>12}"
    print(header)
    print("-" * len(header))
    for model in Model:
        for stat in SCALAR_STATS:
            try:
                law = limit_of(model, stat)
            except UnsupportedCombination:
                continue
            summary = moments(law)
            print(
                f"{model.value:<9}{stat.value:<14}{describe(law):<38}"
                f"{float(summary.mean):>10.4f}{float(summary.variance):>12.4f}"
            )
        summary = ete_limit_moments(model, tol=args.tol)
        print(
            f"{model.value:<9}{'ete':<14}{'two-scale distance (tol %.0e)' % args.tol:<38}"
            f"{float(summary.mean):>10.4f}{float(summary.variance):>12.4f}"
        )


if __name__ == "__main__":
    main()
