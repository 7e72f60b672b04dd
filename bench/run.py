"""Run one workload of the wildprim benchmark and print its metrics.

    python3 bench/run.py --workload kummer --seed 1 --seconds 50 --trace 0

The library is imported from the `src/` directory beside `bench/`, in one
process with one thread.  Shuffled passes over the workload fill
`--seconds`: the first pass is complete, and after it an operation starts
only while its previous time still fits in what is left.  The time of a
pass is the sum over the operations of each one's median time in the run.

--trace 0  end-to-end metrics, nothing wrapped, plus `setup_s` measured in
           fresh processes.
--trace 1  untraced passes for half the time, then traced passes for the
           other half; prints the per-layer metrics and `trace.overhead_s`.

Every operation is checked (catalog digests and record counts, oracle
reports).  The next-to-last line of standard output holds diagnostics (pass
samples, the known-defect probe, machine speed); the last line is the
result: {"correct", "attempted", "failed", "metrics"}.  Per-operation
timings, and spans when traced, are written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 9

# Imports wildprim and builds the first tiny catalog (Q_2, n=1) in a fresh
# interpreter; prints the elapsed time and the catalog digest.
SETUP_SNIPPET = """
import time
start = time.perf_counter()
import wildprim
from wildprim import serialize
result = wildprim.enumerate_primitive(wildprim.BaseField(2, 1, 0), 1, use_cache=False)
data = serialize.to_json_bytes(result)
elapsed = time.perf_counter() - start
import hashlib, json
print(json.dumps({"seconds": elapsed, "sha256": hashlib.sha256(data).hexdigest()}))
"""


def _library_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["WILDPRIM_CACHE_DIR"] = ""
    return env


def measure_setup(reference_sha: str) -> tuple[list[float], int]:
    """setup_s samples from fresh processes, and how many built a wrong catalog."""
    samples, bad = [], 0
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=_library_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(row["seconds"])
        bad += row["sha256"] != reference_sha
    return samples, bad


# -- machine-speed diagnostics -------------------------------------------

def calibration_s() -> float:
    """Time of a fixed pure-Python loop; it drifts with the host, not the code."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - start


def steal_ticks() -> int | None:
    """The `steal` column of the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


class MachineProbe:
    def __init__(self):
        self.calibration_before = calibration_s()
        self.steal_before = steal_ticks()
        self.wall_before = time.perf_counter()
        self.cpu_before = time.process_time()

    def finish(self) -> dict:
        steal = steal_ticks()
        return {
            "calibration_s": [self.calibration_before, calibration_s()],
            "steal_ticks": (None if steal is None or self.steal_before is None
                            else steal - self.steal_before),
            "wall_s": time.perf_counter() - self.wall_before,
            "cpu_s": time.process_time() - self.cpu_before,
        }


# -- passes ----------------------------------------------------------------

def run_passes(workload: wl.Workload, seed: int, rng: random.Random, budget_s: float,
               tracer: tracing.Tracer | None = None) -> list[dict]:
    """Shuffled passes that fill budget_s.  The first pass runs every
    operation; later ones run an operation only while its previous time
    still fits in the budget, and end the run when none fits.  Pass k gives
    the library the seed 1000 * seed + k, so a run averages over several
    random paths of the chop."""
    passes, last = [], {}
    start = time.perf_counter()

    def fits(op: wl.Operation) -> bool:
        return not passes or time.perf_counter() - start + last[op.label] <= budget_s

    while True:
        order = list(workload.operations)
        rng.shuffle(order)
        with tracer if tracer is not None else nullcontext():
            outcomes = wl.run_pass(order, 1000 * seed + len(passes), tracer, fits)
        if not outcomes:
            return passes
        last.update((o.label, o.seconds) for o in outcomes)
        entry = {"outcomes": outcomes, "complete": len(outcomes) == len(order)}
        if tracer is not None:
            entry["trace"] = tracer.take()
        passes.append(entry)


def median_pass(passes: list[dict]) -> dict:
    """A pass at each operation's median: seconds, records and checks."""
    by_label: dict[str, list[wl.Outcome]] = {}
    for p in passes:
        for o in p["outcomes"]:
            by_label.setdefault(o.label, []).append(o)
    return {
        "seconds": sum(statistics.median(o.seconds for o in outs)
                       for outs in by_label.values()),
        "records": sum(outs[0].records for outs in by_label.values()),
        "checks": sum(outs[0].checks for outs in by_label.values()),
        "samples": {label: len(outs) for label, outs in by_label.items()},
    }


def end_to_end_metrics(passes: list[dict], setup_samples: list[float]) -> dict:
    middle = median_pass(passes)
    return {
        "pass_s.p50": (middle["seconds"], "s"),
        "records_per_s": (middle["records"] / middle["seconds"], "1/s"),
        "checks_per_s": (middle["checks"] / middle["seconds"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    per_pass = [tracing.layer_metrics(*p["trace"]) for p in traced if p["complete"]]
    values = tracing.median_metrics(per_pass)
    values["trace.overhead_s"] = (median_pass(traced)["seconds"]
                                  - median_pass(untraced)["seconds"])
    return {name: (values[name], spec[0]) for name, spec in tracing.LAYER_METRICS.items()}


def _span_dicts(spans: list[list], origin: float) -> list[dict]:
    return [{"id": i, "name": name, "parent": parent, "instance": instance,
             "start": start - origin, "end": end - origin}
            for i, (name, parent, instance, start, end) in enumerate(spans)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wildprim" / "__init__.py").is_file():
        print(f"error: no wildprim sources under {SRC}", file=sys.stderr)
        return 2
    # an empty cache directory disables the simple-class cache entirely
    os.environ["WILDPRIM_CACHE_DIR"] = ""
    sys.path.insert(0, str(SRC))

    reference = wl.load_reference()
    all_workloads = wl.make_workloads(reference)
    if args.workload not in all_workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(all_workloads)}", file=sys.stderr)
        return 2
    workload = all_workloads[args.workload]
    rng = random.Random(args.seed)

    setup_samples, setup_bad = [], 0
    if not args.trace:
        setup_samples, setup_bad = measure_setup(reference[wl.SETUP_CATALOG.label]["sha256"])

    import wildprim  # noqa: F401  (import cost is setup_s, not pass time)
    machine = MachineProbe()
    if args.trace:
        untraced = run_passes(workload, args.seed, rng, args.seconds / 2)
        tracer = tracing.Tracer()
        traced = run_passes(workload, args.seed, rng, args.seconds / 2, tracer)
        passes = untraced + traced
        metrics = layer_metrics(untraced, traced)
    else:
        passes = run_passes(workload, args.seed, rng, args.seconds)
        traced = []
        metrics = end_to_end_metrics(passes, setup_samples)
    diagnostics = {"machine": machine.finish()}
    probe = None
    if workload.probe is not None:
        probe = wl.run_operation(workload.probe, args.seed, wl.Outcome(workload.probe.label),
                                 wl.PROBE_DEADLINE_S)

    outcomes = [o for p in passes for o in p["outcomes"]]
    failures = [o for o in outcomes if o.failure]
    wrong = [o for o in failures if o.failure != "deadline"]
    attempted = len(outcomes) + len(setup_samples)
    failed = len(failures) + setup_bad
    diagnostics.update({
        "workload": workload.name,
        "seed": args.seed,
        "operation_samples": median_pass([p for p in passes if "trace" not in p])["samples"],
        "fail_ratio": failed / attempted,
        "failures": [f"{o.label}: {o.failure} ({o.detail})" for o in failures],
        "known_defect_probe": (f"{probe.label}: {probe.failure or 'passed'} {probe.detail}"
                               .strip() if probe else None),
        "setup_s_samples": setup_samples,
    })

    OUT_DIR.mkdir(exist_ok=True)
    record = {"diagnostics": diagnostics,
              "passes": [{"traced": "trace" in p, "complete": p["complete"],
                          "outcomes": [vars(o) for o in p["outcomes"]]} for p in passes],
              "probe": vars(probe) if probe else None}
    if traced:
        origin = min((s[3] for p in traced for s in p["trace"][0]), default=0.0)
        record["traced_passes"] = [{"spans": _span_dicts(p["trace"][0], origin),
                                    "counts": {str(k): v for k, v in p["trace"][1].items()},
                                    "times": p["trace"][2]} for p in traced]
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh)

    print(json.dumps(diagnostics))
    print(json.dumps({
        "correct": not wrong and setup_bad == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
