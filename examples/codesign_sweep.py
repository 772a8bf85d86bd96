"""Control-scheduling co-design: choosing sampling periods on a budget.

The paper's Fig. 2 motivates co-design: control cost generally *increases*
with the sampling period (slower sampling = worse control), but CPU demand
*decreases* (fewer jobs).  This example gives three control loops sharing
one processor a menu of candidate periods each and lets
:func:`repro.codesign.assign_periods` pick the cheapest design:

* each candidate period gets the loop's LQG cost (the Fig. 2 curve) and
  its stability bound ``L + a J <= b`` (the Fig. 4 fit);
* combinations are checked in increasing total-cost order, each validated
  exactly with the backtracking priority assignment (Algorithm 1), and the
  first valid one is the cheapest on the grid.

This is the kind of design-space exploration whose complexity the paper
analyses, and why monotonicity matters: the search orders on the cost
trend but never extrapolates feasibility from one combination to another.

Run:  python examples/codesign_sweep.py
"""

from __future__ import annotations

from repro.codesign import ControlLoopSpec, assign_periods, candidate_table

#: Fixed execution-time demand of each controller (seconds per job).
WCETS = {"dc_servo": 0.0012, "inverted_pendulum": 0.004, "dc_servo_slow": 0.008}
BCET_FRACTION = 0.45
CANDIDATE_POINTS = 4

LOOPS = [
    ControlLoopSpec(name=name, plant=name, wcet=wcet, bcet_fraction=BCET_FRACTION)
    for name, wcet in WCETS.items()
]


def main() -> None:
    for loop in LOOPS:
        print(f"{loop.name}: candidate periods and LQG costs")
        table = candidate_table(loop, points=CANDIDATE_POINTS)
        for c in sorted(table, key=lambda c: c.period):
            print(
                f"   h={c.period * 1e3:7.2f} ms  cost={c.cost:10.4g}  "
                f"(L + {c.bound.a:.2f} J <= {c.bound.b * 1e3:.2f} ms)"
            )

    result = assign_periods(LOOPS, points=CANDIDATE_POINTS)
    if result is None:
        raise SystemExit("no feasible design found")
    print(
        f"\nChecked {result.combinations_checked} period combinations "
        "in increasing total-cost order."
    )
    print(f"Best valid design (total LQG cost {result.total_cost:.4g}):")
    for loop in LOOPS:
        chosen = result.chosen[loop.name]
        print(
            f"  {loop.name:18s} h={chosen.period * 1e3:7.2f} ms  "
            f"cost={chosen.cost:8.4g}  priority={result.priorities[loop.name]}"
        )
    print(
        f"(priority assignment took {result.assignment_evaluations} "
        f"constraint evaluations, {result.assignment_cache_hits} of them "
        "answered by the analysis memo)"
    )


if __name__ == "__main__":
    main()
