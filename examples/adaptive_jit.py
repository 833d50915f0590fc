#!/usr/bin/env python3
"""Adaptive recompilation with the serving layer's adaptation tier.

The paper's conclusion argues MC-SSAPRE is a natural fit for just-in-time
compilers: block counters are the cheapest kind of profile, and the tiny
EFGs make recompilation fast.  ``CompileService(adapt=AdaptConfig(...))``
is that tier.  This example runs a service-shaped loop:

1. requests arrive and execute under the profiling interpreter, whose
   node counters accumulate in a live profile;
2. after ``warmup`` requests the function is promoted: MC-SSAPRE
   recompiles it from the live profile, off the request path;
3. later requests run the optimised artifact — cheaper, same answers.

Run:  python examples/adaptive_jit.py
"""

from repro.serve.adapt import AdaptConfig
from repro.serve.server import CompileRequest, CompileService

SOURCE = """
func kernel(key, salt, rounds) {
entry:
  h = 0
  i = 0
  jump head
head:
  c = lt i, rounds
  br c, body, done
body:
  # loop-invariant, hot
  base = mul key, salt
  h = xor h, base
  h = add h, i
  m = and h, 1
  br m, odd, even
odd:
  h = shl h, 1
  jump latch
even:
  # partially redundant
  extra = mul key, salt
  h = add h, extra
  jump latch
latch:
  i = add i, 1
  jump head
done:
  ret h
}
"""


def main() -> None:
    requests = [(k, 7, 25 + (k % 9)) for k in range(1, 25)]
    cold_costs, hot_costs = [], []
    with CompileService(adapt=AdaptConfig(warmup=6)) as service:
        for number, args in enumerate(requests, start=1):
            response = service.handle(
                CompileRequest(source=SOURCE, args=args, variant="mc-ssapre")
            )
            assert response.status == "ok", response.error
            if response.served_by == "interp":
                cold_costs.append(response.dynamic_cost)
            else:
                if not hot_costs:
                    print(
                        f"request {number:>2}: function went hot -> served "
                        f"by MC-SSAPRE compiled from the live profile"
                    )
                hot_costs.append(response.dynamic_cost)
            # Let a promotion build land before the next request, so the
            # tier-up point is the same on every run.
            service.adapt.drain(timeout=30.0)

    avg = lambda xs: sum(xs) / len(xs) if xs else 0.0
    print(f"\ninterpreted requests: {len(cold_costs)}  "
          f"avg dynamic cost {avg(cold_costs):.0f}")
    print(f"optimised   requests: {len(hot_costs)}  "
          f"avg dynamic cost {avg(hot_costs):.0f}")
    if hot_costs and cold_costs:
        print(f"per-request saving after tier-up: "
              f"{1 - avg(hot_costs) / avg(cold_costs):.1%}")


if __name__ == "__main__":
    main()
