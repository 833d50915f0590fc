#!/usr/bin/env python3
"""A JIT-shaped workflow over the textual IR.

The paper argues MC-SSAPRE suits just-in-time compilers: it needs only
node frequencies (cheap counters) and its min-cut problems are tiny.  This
example plays that scenario out:

1. parse a function from its textual IR (as a JIT would receive bytecode),
2. interpret it "warm" to accumulate node counters,
3. recompile with MC-SSAPRE using those counters,
4. keep serving requests, now faster,
5. print the before/after IR side by side.

Run:  python examples/textual_ir_jit.py
"""

from repro.lang.parser import parse_function
from repro.ir.printer import format_function
from repro.passes import compile
from repro.pipeline import prepare
from repro.profiles.counts import normalize_expr_counts
from repro.profiles.interp import run_function
from repro.profiles.profile import ExecutionProfile

SOURCE = """
func polyval(x, k, n) {
entry:
  i = 0
  acc = 0
  jump head
head:
  c = lt i, n
  br c, body, done
body:
  # Horner-ish step; x*k is invariant in the loop.
  scale = mul x, k
  acc = mul acc, 2
  acc = add acc, scale
  t = gt acc, 1000000
  br t, clip, next
clip:
  acc = mod acc, 1000003
  jump next
next:
  i = add i, 1
  jump head
done:
  # epilogue reuses x*k once more
  fin = mul x, k
  acc = add acc, fin
  ret acc
}
"""


def main() -> None:
    func = parse_function(SOURCE)
    prepared = prepare(func)

    # --- warm-up: run interpreted, collecting node counters ----------
    counters = ExecutionProfile()
    warmup_inputs = [[3, 7, 40], [5, 2, 55], [2, 9, 30]]
    for args in warmup_inputs:
        run = run_function(prepared, args)
        for label, count in run.profile.node_freq.items():
            counters.node_freq[label] = counters.node_freq.get(label, 0) + count
    print(f"warmed up on {len(warmup_inputs)} calls; "
          f"{sum(counters.node_freq.values())} block executions profiled")

    # --- recompile with the accumulated node counters -----------------
    compiled = compile(prepared, "mc-ssapre", counters)

    # --- measure a fresh request --------------------------------------
    request = [4, 6, 60]
    cold = run_function(prepared, request)
    hot = run_function(compiled.func, request)
    assert cold.observable() == hot.observable()

    key = ("mul", ("var", "x"), ("var", "k"))
    cold_counts = normalize_expr_counts(cold.expr_counts)
    hot_counts = normalize_expr_counts(hot.expr_counts)
    print(f"\nrequest {request}:")
    print(f"  x*k evaluations: {cold_counts.get(key, 0)} -> {hot_counts.get(key, 0)}")
    print(f"  weighted dynamic cost: {cold.dynamic_cost} -> {hot.dynamic_cost} "
          f"({(cold.dynamic_cost - hot.dynamic_cost) / cold.dynamic_cost:.1%} faster)")

    print("\n--- before " + "-" * 50)
    print(format_function(prepared))
    print("\n--- after (MC-SSAPRE, node-frequency profile only) " + "-" * 12)
    print(format_function(compiled.func))


if __name__ == "__main__":
    main()
