"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that:

- every workload, untraced and traced, prints each metric that
  BENCHMARK.json names, with its unit, in the text lines and in the last
  line, with its output checks passing;
- a deliberately wrong expected value makes each workload's output check
  fail, which gives a non-zero error rate;
- run.py exits non-zero without printing a result in a directory that holds
  only BENCHMARK.json and this directory.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def require(condition: bool, detail: object) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {detail}")


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_printed_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace)
            require(done.returncode == 0, done.stderr)
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == want, (workload, trace, set(got) ^ set(want)))
            for name, m in result["metrics"].items():
                require(isinstance(m["value"], (int, float)), (name, m))
            report = json.loads(lines[-2])["report"]
            require(report["metrics"]["error_rate"]["value"] == 0.0, f"{workload}: error rate is not 0")
            text = {line.split()[0]: line.split()[-1] for line in lines[:-2] if len(line.split()) == 3}
            for name, unit in report["metrics"].items():
                require(text.get(name) == unit["unit"], (workload, name))
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics with units, checks pass")


def one_round(runner):
    """Ops, failed ops and error messages of the runner's first round of blocks."""
    blocks = [runner.block(k) for k in range(runner.blocks_per_round)]
    return (sum(b.ops for b in blocks), sum(b.failed for b in blocks),
            [e for b in blocks for e in b.errors])


def check_wrong_expectation_fails() -> None:
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        cli = workloads.make("cli", 5, workdir, SRC)
        cli.in_process = True
        batch = workloads.BatchAnalysisWorkload(5, pool=4)
        batch.CHUNK = 4
        mc = workloads.MonotoneMcWorkload(5, trials=20)
        for runner in (cli, batch, mc):
            _, failed, errors = one_round(runner)
            require(failed == 0, f"{runner.name} fails its checks on correct outputs: {errors[:1]}")

        cli.expected["theorem3_feasible"] = {(3, 2, 1)}
        entry = batch.pool[0]
        batch.pool[0] = workloads.PoolEntry(entry.text, entry.source, entry.sparse,
                                            entry.abs_i1 + 0.1, entry.abs_i2)
        mc.expected["records"] = 21
        for runner in (cli, batch, mc):
            ops, failed, errors = one_round(runner)
            require(failed > 0 and errors, f"{runner.name} passes a wrong expected value")
            print(f"ok  {runner.name}: a wrong expected value gives error rate "
                  f"{failed / ops:.3f} ({errors[0][:70]}...)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_fails_without_source() -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0")
        require(done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout))
        print(f"ok  without the package source run.py exits {done.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_printed_metrics(spec)
    check_wrong_expectation_fails()
    check_fails_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
