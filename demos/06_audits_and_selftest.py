"""Upper-bound audits and the library selftest.

The sweeps measure growth from below; the audits check the other direction.
For random inputs and random admissible weights (power laws and dyadic
steps), the quotient

    (operator norm ratio) / (weight constant)^(predicted exponent)

should stay bounded — the predicted power really is an upper bound.  The
report records the worst quotient seen and, for the sparse operator, the
largest stopping-time family.  The selftest runs the invariant
checks that acceptance criteria 3-6, 8 and 9 run at full scale, at sizes
small enough for a quick health check.
"""
from mweights import upper_bound_audit
from mweights.selftest import run_selftest

for operator, P in (("sparse", (2.0, 2.0)), ("sparse", (4.0, 4.0)), ("maximal", (2.0, 3.0))):
    report = upper_bound_audit(P, L=6, trials=25, seed=3, operator=operator)
    family = f", largest family {report.largest_family}" if operator == "sparse" else ""
    print(f"{operator:8s} P={P}: target exponent {report.target_exponent:.3f}, "
          f"max quotient {report.max_quotient:.4f} over "
          f"{report.trials - report.skipped} trials ({report.skipped} degenerate){family}")

print("\nselftest:")
results = run_selftest(seed=0)
for name, ok, detail in results:
    print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
failures = sum(1 for _, ok, _ in results if not ok)
print(f"{len(results) - failures}/{len(results)} checks passed")
