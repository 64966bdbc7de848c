#!/usr/bin/env python
"""Compare every Table-2 recovery scheme on one workload.

Reproduces the paper's core experiment at example scale: one matrix, ten
evenly spaced node failures, every recovery scheme, everything
normalized to the fault-free run — then answers "which scheme would you
pick?" for each optimization target (time, power, energy), as in
Section 5.3's discussion of Figure 8.

Run:  python examples/compare_recovery_schemes.py [matrix-name]
"""

import sys

from repro import scheme_names
from repro.campaign import CampaignSpec, run_campaign
from repro.harness import normalize_reports
from repro.harness.reporting import format_table
from repro.matrices import suite


def main(matrix: str = "cvxbqp1") -> None:
    if matrix not in suite.names():
        raise SystemExit(
            f"unknown matrix {matrix!r}; pick one of: {', '.join(suite.names())}"
        )
    print(f"matrix: {matrix}  (suite stand-in, {suite.build(matrix).shape[0]} rows)")

    spec = CampaignSpec(
        matrices=(matrix,),
        schemes=[s for s in scheme_names() if s not in ("LI-LU", "LSI-QR")],
        nranks=(64,),
        fault_loads=(10,),
        cr_interval="young",
    )
    [(_, reports)] = run_campaign(spec).groups()  # FF first, then each scheme
    norm = normalize_reports(reports)

    rows = [
        [name, m.iterations, m.time, m.power, m.energy]
        for name, m in norm.items()
    ]
    print(
        format_table(
            ["scheme", "iters", "time", "power", "energy"],
            rows,
            title="normalized to the fault-free run (10 faults, 64 ranks)",
            precision=2,
        )
    )

    recovery = {k: v for k, v in norm.items() if k != "FF"}
    print("\nbest scheme per optimization target:")
    for target in ("time", "power", "energy"):
        best = min(recovery, key=lambda s: getattr(recovery[s], target))
        print(f"  {target:<7} -> {best} ({getattr(recovery[best], target):.2f}x)")
    print(
        "\n(the winner changes with the matrix — try "
        "`python examples/compare_recovery_schemes.py x104`)"
    )


if __name__ == "__main__":
    main(*sys.argv[1:2])
