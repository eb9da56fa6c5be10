"""One round of a workload in a fresh interpreter; prints one JSON line.

    python3 benchmarks/round.py --workload sweeps --seed 1 [--check] [--trace]
    python3 benchmarks/round.py --workload sweeps --setup-only

The round times its set-up (``import mweights`` plus the workload's
lattices), then the workload itself, then reads the peak resident memory
and runs the checks.  With ``--trace`` the public calls are wrapped in spans
and the round reports per-layer metrics instead.  ``run.py`` starts the
rounds; ``MWEIGHTS_THREADS`` and ``PYTHONPATH`` come from its environment.
"""
import argparse
import json
import resource
import time
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check", action="store_true", help="run the full checks")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import mweights as mw

    import_s = time.perf_counter() - t0
    import workloads  # after mweights, so numpy is already loaded

    wl = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    lattices = {(n, L): mw.Lattice(mw.default_box(n), L) for n, L in wl.shapes}
    setup_s = import_s + time.perf_counter() - t0
    record = {"setup_s": setup_s, "mweights": mw.__file__}
    if args.setup_only:
        print(json.dumps(record))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(mw)
    t1 = time.perf_counter()
    attempted, failed, result = workloads.run(mw, args.workload, args.seed)
    run_s = time.perf_counter() - t1
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = []
    if tracer is not None:
        tracer.stop()
        record["layers"] = tracer.metrics()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-trace.json")
        if wl.trials:
            workloads.check_families(mw, tracer.families, failures)
    if args.check:
        workloads.check(mw, args.workload, args.seed, lattices, result, failures)
    if not wl.trials:
        out_dir = OUT / args.workload
        out_dir.mkdir(parents=True, exist_ok=True)
        record["csv_sha256"] = workloads.csv_digests(mw, result, out_dir)
    record.update(
        run_s=run_s,
        peak_rss_mb=peak_rss_mb,
        attempted=attempted,
        failed=failed,
        failures=failures,
    )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
