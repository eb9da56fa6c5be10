"""mweights benchmark: runs one workload and prints its metrics as JSON.

    python3 benchmarks/run.py --workload sweeps --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout of the repository; it imports the
package from ``src/`` of that checkout.  Every round runs in a fresh
interpreter (see ``round.py``) with one sweep worker.  The run first starts
one untimed interpreter to compile and cache the package, then whole rounds
(at least two) while the next one should end within half a round of
``--seconds``.  The first round also runs the full correctness checks, and
every sweep round's CSV must be byte-identical to the first one's.

With ``--trace 0`` the last line reports ``setup_s``, ``run_s`` and
``peak_rss_mb``, medians over the rounds.  With ``--trace 1`` untraced and
traced rounds alternate, and the last line reports the per-layer metrics
(medians over the traced rounds) and ``trace.overhead_s``, the traced
rounds' median ``run_s`` minus the untraced rounds'.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweeps", "audit-sparse")
MIN_ROUNDS = 2
DEADLINE_S = 170.0  # the whole run, child interpreters included

sys.path.insert(0, str(HERE))
from tracing import METRICS as LAYER_METRICS  # noqa: E402


class RoundError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["MWEIGHTS_THREADS"] = "1"
    return env


def run_round(args, extra, deadline):
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundError("out of time before the round started")
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundError(f"round {extra} ran past the deadline") from None
    if proc.returncode != 0:
        raise RoundError(f"round {extra} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(record["mweights"]).resolve().parent != (SRC / "mweights").resolve():
        raise RoundError(f"imported mweights from {record['mweights']}, not {SRC}")
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "mweights" / "__init__.py").is_file():
        print(f"no mweights package under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        run_round(args, ["--setup-only"], deadline)  # compiles and caches the package
        rounds, traced = [], []
        start = time.monotonic()
        # a round starts only if it should end within half a round of
        # --seconds, judged by the median of the rounds so far after the first
        # (which also runs the checks), so runs last --seconds on average
        walls = []
        while len(walls) < MIN_ROUNDS or (
            time.monotonic() - start + statistics.median(walls[1:]) / 2 <= args.seconds
        ):
            trace_round = bool(args.trace) and len(rounds) > len(traced)
            extra = ["--check"] if not rounds else []
            if trace_round:
                extra.append("--trace")
            t0 = time.monotonic()
            record = run_round(args, extra, deadline)
            walls.append(time.monotonic() - t0)
            (traced if trace_round else rounds).append(record)
    except RoundError as err:
        print(err, file=sys.stderr)
        return 1

    everything = rounds + traced
    failures = [msg for r in everything for msg in r["failures"]]
    digests = {json.dumps(r.get("csv_sha256"), sort_keys=True) for r in everything}
    if len(digests) != 1:
        failures.append("sweep CSVs differ between rounds of the same seed")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    median = lambda rs, key: statistics.median(r[key] for r in rs)  # noqa: E731
    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                          "unit": unit}
                   for name, unit in LAYER_METRICS.items() if name != "trace.overhead_s"}
        overhead = median(traced, "run_s") - median(rounds, "run_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": median(everything, "setup_s"), "unit": "s"},
            "run_s": {"value": median(rounds, "run_s"), "unit": "s"},
            "peak_rss_mb": {"value": median(rounds, "peak_rss_mb"), "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {len(rounds)} untraced and {len(traced)} traced rounds, "
          f"run_s per round {[round(r['run_s'], 3) for r in everything]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
