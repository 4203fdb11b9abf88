#!/usr/bin/env python3
"""Survey the characteristics-built charts against their closed forms.

Runs the chart and recurrence checks of `flowbox.verify` (the ones
`flowbox verify-all` runs) and prints, for each, the worst value with where
and at which point it occurred, the work the crossing searches did and the
time taken: the largest gap between traced and analytic coordinates, and
the recurrence verdicts that justify (or reject) each surface choice.
"""
import argparse
import sys
import time

from flowbox import verify


def survey(name, check, seed):
    t0 = time.perf_counter()
    ok, detail, metrics = check(seed)
    print(f"{name} {'PASS' if ok else 'FAIL'} in {time.perf_counter() - t0:.2f}s:"
          f" {detail}")
    print(f"  worst {metrics['worst']} at {metrics['worst_point']}"
          f" ({metrics['worst_at']}) over {metrics['points']} values,"
          f" {metrics['stats']['rhs_evals']} RHS evaluations")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    verdicts = [survey(name, check, args.seed) for name, check in verify.VERIFY_SUITES
                if name in ("chart-vs-refsol", "recurrence-audit")]
    return 0 if all(verdicts) else 2


if __name__ == "__main__":
    sys.exit(main())
