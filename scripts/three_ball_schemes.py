#!/usr/bin/env python3
"""Run all three iteration schemes on the three-ball instance and compare.

Usage:
    python scripts/three_ball_schemes.py
    python scripts/three_ball_schemes.py --x0 12 -9 --seed 4 --max-iters 20000
"""

import argparse

from drfeas import (
    Ball,
    Cyclic,
    FeasibilityProblem,
    Point,
    Projection,
    RandomBlock,
    Relaxation,
    StopRule,
    build_composite_Q,
    feasibility_report,
    run_composite,
    run_unrestricted_dr,
    run_unrestricted_product,
)


def summarize(label, trace, problem):
    final = trace.final
    print(f"{label:24s} status={trace.terminal_status:>22s} "
          f"iters={trace.iterations:5d} max_dist={final.max_set_distance:.3e}")
    for idx, dist in feasibility_report(problem, final.iterate):
        print(f"{'':24s}   set {idx}: distance {dist:.3e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--x0", nargs=2, type=float, default=[5.0, 5.0])
    ap.add_argument("--seed", type=int, default=1, help="random-block control seed")
    ap.add_argument("--max-iters", type=int, default=10_000)
    args = ap.parse_args()

    problem = FeasibilityProblem(
        [Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0), Ball([0.5, 0.8], 1.0)],
        interior_point=Point([0.5, 0.3]),
    )
    x0 = Point(args.x0)
    stop = StopRule(args.max_iters, 1e-10, 1e-8)
    f = Cyclic(3)

    summarize("per-step DR (cyclic)",
              run_unrestricted_dr(problem, f, 2, x0, stop), problem)
    summarize("per-step DR (random)",
              run_unrestricted_dr(problem, RandomBlock(3, 5, args.seed), 2, x0, stop),
              problem)
    summarize("composite Q",
              run_composite(problem, f, 2, x0, stop), problem)

    family = list(build_composite_Q(problem, f, 2).factors)  # S_0, ..., S_jf
    family += [Projection(problem.sets[0]), Relaxation(Projection(problem.sets[1]), 1.5)]
    h = RandomBlock(len(family), 2 * len(family), args.seed)
    summarize("interlaced product",
              run_unrestricted_product(family, h, x0, stop, problem=problem), problem)


if __name__ == "__main__":
    main()
