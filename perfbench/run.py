"""ts-groups benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The program is used straight from
``src/`` and the naive references from ``tests/``; nothing is built.

The workload's fixed item set is run back to back in one process (a
closed loop with one client) in whole passes until ``--seconds`` have
elapsed.  Each item is timed on its own and checked afterwards, outside
the timed region; an item that raises, fails its check, or gives a
different output on a later pass counts as failed and the run goes on.

--trace 0 reports the end-to-end metrics:
  setup_s       median over separate processes, run one after another
                once the timed passes are done, of the time from process
                start until the first item is ready (imports, oracle
                construction, seeded input generation), rescaled
  items_per_s   item-set size / sum over items of each item's time
  item_p50_ms   median over items of each item's time
  item_tail_ms  the same per-item times at the highest percentile with at
                least 10 items beyond it
  peak_rss_mb   peak resident memory of this process
An item's time is the median over the passes of its rescaled wall time.
Rescaling divides out the machine's speed at that moment: a fixed
calibration loop, which shares no code with the program, is timed
before every item, and a wall time t becomes t * CAL_REF_S / (median of
the calibration times around it).  On a shared host the same code runs
up to twice as slow for seconds to minutes at a time; the loop slows
with it, so the rescaled times move far less than wall times.  They are
times at the speed at which the loop takes CAL_REF_S.  Each run also
prints the plain wall-clock figures and the speed factor on a ``wall``
line.
--trace 1 alternates untraced passes with passes under the layer spans
of ``spans.py`` for ``--seconds`` and reports the per-layer metrics.

The last line of standard output is the JSON result; the lines before it
give the run record, the output digest and every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/ts_groups/__init__.py", "tests/oracles.py", "tests/instances.py")
SETUP_PROBES = 7
MIN_PASSES = 3
TRACE_PAIRS = 3
TAIL_BEYOND = 10

# Calibration (see the module docstring): integer arithmetic and reads
# scattered over a list small enough to stay in cache, so the loop's time
# does not depend on what the item before it left in the caches.  The
# best of CAL_REPS runs is taken, which drops the first, cold one.
# CAL_REF_S is fixed for good, near the loop's time on an idle 2-vCPU
# VM; changing it changes every figure.
CAL_TABLE = list(range(1 << 12))
CAL_STEPS = 500
CAL_REPS = 3
CAL_REF_S = 1.0e-4
CAL_WINDOW = 4  # calibration samples on each side of an item
SETUP_CALS = 21  # calibration samples a set-up probe takes once ready


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes exist for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the workload, print 'ready' and exit (setup_s probe)")
    return parser.parse_args(argv)


def _load_program():
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"perfbench: program sources missing from {ROOT}: {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    return workloads


def _commit():
    if not (ROOT / ".git").exists():  # else git would name an enclosing repository's commit
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def calibration_time():
    """Seconds the calibration loop takes now: the best of CAL_REPS runs."""
    table, mask = CAL_TABLE, len(CAL_TABLE) - 1
    best = float("inf")
    for _ in range(CAL_REPS):
        x = total = 0
        start = time.perf_counter()
        for _ in range(CAL_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += table[(x >> 8) & mask]
        best = min(best, time.perf_counter() - start)
    return best


def _setup_probe(args):
    """Wall time of a fresh process from its start until the workload is
    ready, plain and rescaled by the calibration loop the probe times
    right after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale, "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read().split()
    if proc.returncode != 0 or line.strip() != "ready" or len(rest) != 1:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed, elapsed * CAL_REF_S / float(rest[0])


class Runner:
    """Runs passes over the item set and keeps what the checks need."""

    def __init__(self, items):
        self.items = items
        self.pass_times = []  # per pass, per item wall seconds
        self.pass_scaled = []  # per pass, per item rescaled seconds
        self.cals = []  # every calibration time
        self.first = [None] * len(items)  # first-pass outputs (or the exception)
        self.views = [None] * len(items)
        self.failed_runs = [0] * len(items)
        self.runs = 0

    def run_pass(self):
        """One pass; returns its per-item rescaled times."""
        times, cals = [], []
        for i, item in enumerate(self.items):
            cals.append(calibration_time())
            start = time.perf_counter()
            try:
                out = item.run()
            except Exception as exc:  # a raising item is a failed item
                elapsed = time.perf_counter() - start
                if self.first[i] is None:
                    traceback.print_exc(file=sys.stderr)
                    self.first[i] = exc
                self.failed_runs[i] += 1
            else:
                elapsed = time.perf_counter() - start
                self._record(i, item, out)
            times.append(elapsed)
        cals.append(calibration_time())
        self.runs += 1
        gc.collect()
        # cals[i] is taken just before item i and cals[i + 1] just after
        scaled = [t * CAL_REF_S / statistics.median(cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 2])
                  for i, t in enumerate(times)]
        self.pass_times.append(times)
        self.pass_scaled.append(scaled)
        self.cals += cals
        return scaled

    def _record(self, i, item, out):
        view = item.view(out)
        if self.first[i] is None:
            self.first[i], self.views[i] = out, view
        elif view != self.views[i]:
            print(f"perfbench: item {i} changed output between passes", file=sys.stderr)
            self.failed_runs[i] += 1

    def timed_passes(self, seconds):
        """Whole passes until ``seconds`` have elapsed (at least MIN_PASSES)."""
        start = time.perf_counter()
        while self.runs < MIN_PASSES or time.perf_counter() - start < seconds:
            self.run_pass()

    def check(self):
        """Failed item runs after the output checks (untimed)."""
        failed = 0
        for i, item in enumerate(self.items):
            out = self.first[i]
            problems = []
            if out is not None and not isinstance(out, Exception):
                try:
                    problems = item.check(out)
                except Exception as exc:  # a check that cannot run fails the item
                    problems = [f"check raised {exc!r}"]
            if problems:
                print(f"perfbench: item {i} ({type(item).__name__}) failed: "
                      + "; ".join(problems[:3]), file=sys.stderr)
                failed += self.runs
            else:
                failed += self.failed_runs[i]
        return failed

    def digest(self):
        return hashlib.sha256(repr(self.views).encode()).hexdigest()


def tail_percentile(n):
    """Highest integer percentile (nearest rank) with at least
    TAIL_BEYOND of n items beyond it; 100 when n is too small."""
    for p in range(99, 0, -1):
        if n - -(-p * n // 100) >= TAIL_BEYOND:
            return p
    return 100


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(1, -(-p * len(ordered) // 100)) - 1]


def _item_times(passes):
    """Each item's median time over the passes."""
    return [statistics.median(col) for col in zip(*passes)]


def _timed(passes, setup_s, pct):
    per_item = _item_times(passes)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(per_item) / sum(per_item), "1/s"),
        "item_p50_ms": (statistics.median(per_item) * 1e3, "ms"),
        "item_tail_ms": (nearest_rank(per_item, pct) * 1e3, "ms"),
    }


def end_to_end(runner, probes, rss_mb, pct):
    """The metrics from rescaled times; prints the wall-clock ones."""
    wall = _timed(runner.pass_times, statistics.median(p[0] for p in probes), pct)
    speed_factor = statistics.median(runner.cals) / CAL_REF_S
    print("wall " + " ".join(f"{name}={value:.6g}" for name, (value, _) in wall.items())
          + f" speed_factor={speed_factor:.4g}")
    metrics = _timed(runner.pass_scaled, statistics.median(p[1] for p in probes), pct)
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics


def traced(runner, seconds):
    """Per-layer metrics from alternating untraced and traced passes.

    Pairs run until ``seconds`` have elapsed (at least TRACE_PAIRS), so a
    swing in machine speed hits both kinds of pass.  The counts and span
    times are those of the last traced pass.  trace.overhead_frac is the
    items' summed traced time over their summed untraced time, minus 1,
    with item times as for items_per_s.
    """
    import spans

    runner.run_pass()  # warm-up, untimed
    plain, wrapped = [], []
    start = time.perf_counter()
    while len(wrapped) < TRACE_PAIRS or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass())
        with spans.Tracer() as tracer:
            wrapped.append(runner.run_pass())
    return tracer.metrics(sum(_item_times(wrapped)) / sum(_item_times(plain)) - 1)


def main(argv=None):
    workloads = _load_program()
    args = _parse(argv, workloads.BUILDERS)
    if args.setup_probe:
        workloads.build(args.workload, args.seed, args.scale)
        print("ready", flush=True)
        print(statistics.median(calibration_time() for _ in range(SETUP_CALS)))
        return 0

    items = workloads.build(args.workload, args.seed, args.scale)
    runner = Runner(items)
    pct = tail_percentile(len(items))
    if args.trace:
        metrics = traced(runner, args.seconds)
    else:
        runner.timed_passes(args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = [_setup_probe(args) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(runner, probes, rss_mb, pct)

    failed = runner.check()
    attempted = runner.runs * len(items)
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "commit": _commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "items": len(items), "passes": runner.runs, "tail_percentile": pct,
        "seconds": args.seconds,
    }
    print("record " + json.dumps(record))
    print(f"digest {args.workload} seed={args.seed} {runner.digest()}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
