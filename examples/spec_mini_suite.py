#!/usr/bin/env python3
"""Mini SPEC-like suite: a four-benchmark slice of the paper's Table 1/2.

Runs the full FDO protocol (train-profile, A/B/C compiles, ref-input
measurement) on two CINT-like and two CFP-like synthetic benchmarks and
prints the paper-style table rows plus the EFG-size summary of Figure 11.

The full 29-benchmark versions are the `tables` and `sec4` sections of
`python -m repro.perf`.

Run:  python examples/spec_mini_suite.py
"""

from repro.bench.figures import EFGSizeDistribution
from repro.bench.tables import Table, measure_workload
from repro.bench.workloads import load_workload

BENCHMARKS = ("mcf", "sjeng", "milc", "lbm")


def main() -> None:
    table = Table(title="Mini suite (2 CINT-like + 2 CFP-like benchmarks)")
    sizes = EFGSizeDistribution()
    for name in BENCHMARKS:
        workload = load_workload(name)
        row = measure_workload(workload)
        table.rows.append(row)
        sizes.sizes.extend(row.efg_sizes)
        print(f"measured {name} ({workload.family}) ...")

    print()
    print(table.render())
    print()
    print(
        f"EFGs formed: {sizes.total}, min {sizes.minimum} nodes, "
        f"max {sizes.maximum} nodes; "
        f"{sizes.share_at(4):.0%} have exactly 4 nodes, "
        f"{sizes.cumulative_at_most(10):.0%} have <= 10 nodes"
    )
    print("(compare paper Section 5.2: 50% at 4 nodes, 86.5% <= 10 nodes)")


if __name__ == "__main__":
    main()
