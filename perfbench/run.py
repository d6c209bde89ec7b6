"""modal-ent benchmark: one workload and one seed, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload batch-analysis --seed 1 --seconds 30 --trace 0

Workloads are ``cli``, ``batch-analysis`` and ``monotone-mc`` (see
workloads.py and README.md). With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it alternates
untraced and traced blocks and reports the per-layer metrics derived from
the spans, plus the tracing overhead. The spans are written to
``.perfbench/spans-<workload>-seed<seed>.csv.gz``.

Standard output holds one line per metric with its unit, then a JSON report
with the run metadata, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is 0
whenever the run completed, also when checks failed (``correct`` says so),
and 2 when the package source or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

# One client, no extra threads: OpenBLAS would otherwise start worker
# threads that spin on the second core after each small matrix product,
# in this process and in every CLI call it starts.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the thread setting, which numpy reads on import)

from tracing import LAYER_STATS, SPAN_NAMES, SpanRecorder  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("cli", "batch-analysis", "monotone-mc")
SETUP_PROBES = 7
IMPORT_PROBES = 3
WINDOW = 256
# Reference durations on the machine the benchmark was defined on (2-core
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6) while it ran at full speed.
# Timings are scaled to that speed; see Gauge.
KERNEL_NOMINAL_S = 0.00078
SPAWN_NOMINAL_S = 0.14

# End-to-end metrics printed with --trace 0, with their units. An op is a
# CLI call on cli (a pipeline counts once), a state on batch-analysis and a
# trial on monotone-mc.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
}
# Printed in the text lines and the report but not in the result line. The
# tail percentiles moved between runs of one commit by 0.09 to 0.15 of
# their medians on batch-analysis and monotone-mc, since bursts of
# interference shorter than a gauge interval decide the slowest ops, so
# they cannot carry a regression bound.
REPORT_ONLY = {"op_p90_ms": "ms", "op_p99_ms": "ms"}
# The names the metrics go by on each workload, as ROADMAP.md uses them.
ALIASES = {
    "cli": {"ops_per_s": "calls_per_s", "op_p50_ms": "call_p50_ms", "op_p90_ms": "call_p90_ms",
            "op_p99_ms": "call_p99_ms"},
    "batch-analysis": {"ops_per_s": "states_per_s", "op_p50_ms": "state_p50_ms",
                       "op_p90_ms": "state_p90_ms", "op_p99_ms": "state_p99_ms"},
    "monotone-mc": {"ops_per_s": "trials_per_s", "op_p50_ms": "trial_p50_ms",
                    "op_p90_ms": "trial_p90_ms", "op_p99_ms": "trial_p99_ms"},
}
CLI_SUBCOMMANDS = ("family", "invariants", "canonical", "classify", "chsh",
                   "verify-stabilizer", "theorem3-scan", "monotone-mc")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric printed with --trace 1, with its unit."""
    units = {f"{name}.{stat}": unit for name in SPAN_NAMES for stat, unit in LAYER_STATS}
    units["cli.import_s"] = "s"
    units["cli.import_share"] = "ratio"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.ms_p50"] = "ms"
    units["trace.untraced_ops_per_s"] = "1/s"
    units["trace.traced_ops_per_s"] = "1/s"
    units["trace.overhead_ops_per_s"] = "1/s"
    return units


_REF_SLOTS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
              if (a > 0) + (b > 0) + (c > 0) == 2]
_REF_MATRIX = np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.1], [0.0, 0.3, 1.0]], dtype=complex)


def _reference_pass() -> float:
    """One pass of a fixed kernel shaped like the library's work, timed.

    It mixes what a trial or a state analysis does: a sparse map from
    occupation tuples to complex amplitudes pushed through a local matrix
    in a Python loop, seeded draws, and numpy linear algebra on 2x2 and 3x3
    matrices. It calls nothing in the package.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    rows = _REF_MATRIX.tolist()
    amps = {occ: complex(i + 1, -i) for i, occ in enumerate(_REF_SLOTS)}
    for _ in range(6):
        moved: Dict[tuple, complex] = {}
        for occ, amp in amps.items():
            for j in range(3):
                key = (j, occ[1], occ[2])
                moved[key] = moved.get(key, 0j) + amp * rows[j][occ[0]]
        norm = sum(abs(v) ** 2 for v in moved.values()) ** 0.5
        amps = {occ: v / norm for occ, v in moved.items()}
        g = _REF_MATRIX + 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        np.linalg.norm(g, 2)
        np.linalg.eigh(g @ g.conj().T)
        np.linalg.svd(g[:2, :2])
        np.kron(g[:2, :2], g[:2, :2]).trace()
    return time.perf_counter() - start


def kernel_reference_s() -> float:
    """Median of three reference passes; the median drops a pass hit by an interrupt."""
    return statistics.median(_reference_pass() for _ in range(3))


def spawn_reference_s() -> float:
    """Time a fresh interpreter that imports numpy and exits.

    Process start and imports are most of a CLI call and of set-up, and
    the in-process kernel does not track how other tenants slow them.
    numpy is not part of the package, so a change to the package leaves
    this reference alone.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, cwd=OUT_DIR)
    return time.perf_counter() - start


class Gauge:
    """Machine speed, read from a reference between timed intervals.

    The machine this benchmark was defined on is shared: other tenants slow
    every process on it by up to 40% for stretches of seconds to minutes,
    which moved raw timings of one commit between runs by more than any
    bound worth setting. Reading the reference at both ends of an interval
    and scaling the interval by nominal over measured reference time takes
    out most of that swing: across 15-second stretches of a two-minute run,
    raw monotone-mc throughput ranged over 29% and scaled throughput over
    4%; across 20-second stretches, raw CLI call times ranged over 18% and
    scaled ones over 2%. A change to the
    package leaves the references alone, so scaled times still move with
    the code. The report line gives the unscaled figures too.
    """

    def __init__(self, read, nominal_s: float) -> None:
        self.read = read
        self.nominal_s = nominal_s
        self.read()  # warm-up
        self.samples: List[float] = []
        self.start()

    def start(self) -> None:
        """Take the reading that opens the next interval."""
        self.last = self.read()
        self.samples.append(self.last)

    def scale(self) -> float:
        """Scale factor for the interval since the previous reading."""
        now = self.read()
        self.samples.append(now)
        factor = 2.0 * self.nominal_s / (self.last + now)
        self.last = now
        return factor

    def summary(self) -> Dict[str, float]:
        return {
            "nominal_ms": self.nominal_s * 1e3,
            "readings": len(self.samples),
            "min_ms": min(self.samples) * 1e3,
            "median_ms": statistics.median(self.samples) * 1e3,
            "max_ms": max(self.samples) * 1e3,
        }


@dataclass
class Tally:
    """Blocks of one kind (untraced or traced) added up, times scaled by the gauge."""

    ops: int = 0
    busy_s: float = 0.0
    raw_busy_s: float = 0.0
    failed: int = 0
    latencies_s: List[float] = field(default_factory=list)
    raw_latencies_s: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def add(self, block, scale: float) -> None:
        self.ops += block.ops
        self.busy_s += block.busy_s * scale
        self.raw_busy_s += block.busy_s
        self.failed += block.failed
        self.latencies_s.extend(t * scale for t in block.latencies_s)
        self.raw_latencies_s.extend(block.latencies_s)
        self.errors.extend(block.errors)

    def ops_per_s(self, raw: bool = False) -> float:
        busy = self.raw_busy_s if raw else self.busy_s
        return self.ops / busy if busy > 0 else 0.0


def percentiles_ms(values: List[float]) -> Dict[int, float]:
    """The 50th, 90th and 99th percentiles of seconds, in ms.

    Each is the median over consecutive windows of WINDOW samples (one
    window when there are fewer), so that a burst of interference from
    other tenants, which can double single ops for a second, decides one
    window and not the run.
    """
    if len(values) < 2:
        return {q: values[0] * 1e3 for q in (50, 90, 99)}
    count = max(1, len(values) // WINDOW)
    size = len(values) // count
    cuts = [statistics.quantiles(values[i * size:(i + 1) * size], n=100, method="inclusive")
            for i in range(count)]
    return {q: statistics.median(c[q - 1] for c in cuts) * 1e3 for q in (50, 90, 99)}


def measure(runner, seconds: float, gauges: Dict[str, Gauge], recorder=None, first: int = 0):
    """Run blocks for ``seconds``, stopping between rounds; with a recorder
    every second block is traced. Block times are scaled by the kernel
    gauge for in-process work and by the spawn gauge for subprocesses."""
    gauge = gauges["kernel" if runner.in_process else "spawn"]
    gauge.start()
    plain, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    k = first
    while (k - first) % runner.blocks_per_round or k - first < (2 if recorder else 1) \
            or time.perf_counter() < deadline:
        tracing = recorder is not None and k % 2 == 1
        if tracing:
            recorder.install()
        try:
            block = runner.block(k, recorder if tracing else None)
        finally:
            if tracing:
                recorder.uninstall()
        (traced if tracing else plain).add(block, gauge.scale())
        k += 1
    return plain, traced


def probe_seconds(workload: str, count: int, gauge: Gauge) -> List[float]:
    """Fresh-interpreter start until ready, ``count`` times, scaled; see probe.py."""
    out = []
    gauge.start()
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, SRC],
            stdout=subprocess.PIPE, text=True, cwd=OUT_DIR,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe for {workload} exited with status {code}")
        out.append((ready - start - float(line.split()[1])) * gauge.scale())
    return out


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(args, runner) -> Dict[str, object]:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload_details": runner.metadata(),
    }


def run_untraced(args, runner, gauges: Dict[str, Gauge]):
    setup = statistics.median(probe_seconds(args.workload, SETUP_PROBES, gauges["spawn"]))
    runner.warm_up()
    plain, _ = measure(runner, args.seconds, gauges)
    if args.workload == "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": setup, "peak_rss_mb": peak_kb / 1024.0, "ops_per_s": plain.ops_per_s()}
    unscaled = {"ops_per_s": plain.ops_per_s(raw=True)}
    for q, value in percentiles_ms(plain.latencies_s).items():
        metrics[f"op_p{q}_ms"] = value
    for q, value in percentiles_ms(plain.raw_latencies_s).items():
        unscaled[f"op_p{q}_ms"] = value
    return metrics, plain, {"samples": len(plain.latencies_s), "unscaled": unscaled}


def run_traced(args, runner, gauges: Dict[str, Gauge]):
    import_s = statistics.median(probe_seconds("cli", IMPORT_PROBES, gauges["spawn"]))
    extra = Tally()
    call_p50_ms = 0.0
    if args.workload == "cli":
        # One round of real subprocess calls gives the denominator of
        # cli.import_share; the timed blocks below run cli.main in-process.
        extra, _ = measure(runner, 0.0, gauges, first=-runner.blocks_per_round)
        call_p50_ms = statistics.median(extra.latencies_s) * 1e3
        runner.in_process = True
    runner.warm_up()
    recorder = SpanRecorder()
    plain, traced = measure(runner, args.seconds, gauges, recorder)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    recorder.write(spans_path)
    metrics = recorder.layer_metrics(traced.ops)
    metrics["cli.import_s"] = import_s
    metrics["cli.import_share"] = import_s * 1e3 / call_p50_ms if call_p50_ms else 0.0
    for sub in CLI_SUBCOMMANDS:
        calls = recorder.durations_ms(f"cli.{sub}")
        metrics[f"cli.{sub}.ms_p50"] = statistics.median(calls) if calls else 0.0
    metrics["trace.untraced_ops_per_s"] = plain.ops_per_s()
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s()
    metrics["trace.overhead_ops_per_s"] = traced.ops_per_s() - plain.ops_per_s()
    total = Tally()
    for part in (extra, plain, traced):
        total.ops += part.ops
        total.failed += part.failed
        total.errors.extend(part.errors)
    return metrics, total, {"spans": len(recorder.spans), "spans_file": spans_path,
                            "traced_ops": traced.ops, "untraced_ops": plain.ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "modal_ent", "__init__.py")):
        print(f"perfbench: no package source at {SRC}/modal_ent", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import modal_ent

    if not os.path.abspath(modal_ent.__file__).startswith(SRC + os.sep):
        print(f"perfbench: modal_ent resolved to {modal_ent.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    os.environ.pop("MODAL_ENT_THREADS", None)  # monotone-mc keeps its default of one thread
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    load_before = os.getloadavg()
    try:
        runner = workloads.make(args.workload, args.seed, workdir, SRC)
        gauges = {"kernel": Gauge(kernel_reference_s, KERNEL_NOMINAL_S),
                  "spawn": Gauge(spawn_reference_s, SPAWN_NOMINAL_S)}
        if args.trace:
            metrics, tally, details = run_traced(args, runner, gauges)
            units = per_layer_units()
        else:
            metrics, tally, details = run_untraced(args, runner, gauges)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = metadata(args, runner)
    meta.update(details)
    meta["gauges"] = {name: gauge.summary() for name, gauge in gauges.items()}
    meta["load_average_before"] = list(load_before)
    meta["load_average_after"] = list(os.getloadavg())

    error_rate = tally.failed / tally.ops if tally.ops else 1.0
    named = {"error_rate": {"value": error_rate, "unit": "ratio"}}
    for name, value in metrics.items():
        alias = ALIASES[args.workload].get(name, name) if not args.trace else name
        named[alias] = {"value": value, "unit": {**units, **REPORT_ONLY}[name]}
    if not args.trace:
        pool = meta["workload_details"]
        if "processed_sparse_share" in pool:
            named["sparse_share"] = {"value": pool["processed_sparse_share"], "unit": "ratio"}
    for name, m in named.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for message in tally.errors[:10]:
        print(f"check failed: {message}")
    print(json.dumps({"report": {"metadata": meta, "metrics": named}}))
    result = {
        "correct": tally.failed == 0 and tally.ops > 0,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
