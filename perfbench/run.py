"""Benchmark of the sheffer command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-all --seed 7 --seconds 25 --trace 0

Workloads (see workloads.py): verify-all, exact-highorder, normal-order-deep.
The seed feeds ``verify --seed`` and the custom pairs; use DEV_SEED while
developing a change and HELDOUT_SEED to check a claim.

Each sample is a fresh child interpreter (worker.py), so the package's
``lru_cache``s start cold as they do for a user of the CLI. Children run one
after another (a closed loop with one client) until ``--seconds`` have
passed; every metric is the median over the children of one run. The child
drives the package only through ``sheffer.cli.main(argv)``, with stdout
captured, and checks every output after its timed region.

With ``--trace 0`` the result holds the end-to-end metrics:
  wall_s       wall time of the workload's operations, after set-up
  cpu_s        CPU time of the child over the same operations, all threads
  setup_s      interpreter start through ``import sheffer`` (median of
               SETUP_SAMPLES import-only children and every workload child)
  peak_rss_mb  peak resident set of the child, read before the checks
All are raw times, not corrected for the host's speed. Just before each
child starts, the parent times a small fixed Fraction kernel
(``host_kernel_us`` in the samples record), so a reader can tell runs taken
while a shared host was slow; compare two commits by alternating their runs.

With ``--trace 1`` untraced and traced children alternate, and the result
holds the per-layer metrics: self time and calls of the public functions
of each module (spans.py, layers.py), counters, per-suite wall time from
the untraced children, and ``trace.overhead_s`` (traced minus untraced
wall_s). Every per-layer value, counts included, is the median over the
traced children.

BLAS threading is left at the library's default (the child's environment
has no *_NUM_THREADS variable), so cpu_s includes the time BLAS threads spin.
Children get PYTHONHASHSEED=0 so that outputs and counts repeat exactly.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The line before it records the environment, the generated inputs,
every sample and a sha256 of each operation's stdout. Exit code 1 means an
output check failed; 2 means the benchmark could not run.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import workloads

DEV_SEED = 7
HELDOUT_SEED = 20050429
SETUP_SAMPLES = 6
DEADLINE_S = 170
UNTRACED_NOTE = ("calls made through references held in closures, dicts or "
                 "lru_cache objects (normord._cached_*, cli._FUNCTION_EVAL) are not "
                 "traced; their time stays in the caller's self time")
BLAS_NOTE = "BLAS threading left at the library default; cpu_s includes BLAS thread spin"
SCRUBBED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "GOTO_NUM_THREADS", "PYTHONPATH")
DETERMINISTIC_SUFFIXES = (".calls", "series.max_bits", "weyl.weyl_mul.terms_out",
                          "catalog.family.hit_ratio")
KERNEL_DATA = [Fraction(k + 1, 2 * k + 3) for k in range(6)]
KERNEL_PASSES = 50


def host_kernel_us():
    """Median microseconds of one pass of a fixed Fraction convolution: a
    record of how fast the host runs at this moment. No metric uses it."""
    times = []
    for _ in range(KERNEL_PASSES):
        start = time.perf_counter()
        out = [Fraction(0)] * (2 * len(KERNEL_DATA))
        for i, x in enumerate(KERNEL_DATA):
            for j, y in enumerate(KERNEL_DATA):
                out[i + j] += x * y
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


class BenchError(Exception):
    pass


class Runner:
    """Starts child interpreters one at a time, each bounded by one deadline."""

    def __init__(self, root):
        self.root = root
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items()
                    if k not in SCRUBBED and not k.startswith("SHEFFER_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, *args):
        """Run one child and return its result dict, with ``setup_s`` added:
        seconds from starting the child to reading its ``ready``."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        kernel_us = host_kernel_us()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(self.root / "perfbench" / "worker.py"), *args],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter()
            out = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if first != "ready\n" or proc.returncode != 0:
            raise BenchError(f"child {' '.join(args)} exited with {proc.returncode}")
        result = json.loads(out.splitlines()[-1])
        result["setup_s"] = ready - start
        result["host_kernel_us"] = kernel_us
        if "ops" in result:
            for key in ("wall_s", "cpu_s"):
                result[key] = sum(op[key] for op in result["ops"])
        return result


def _count_failures(children):
    attempted = failed = 0
    for child in children:
        for op in child["ops"]:
            attempted += 1
            if op["error"] is not None:
                failed += 1
                print(f"CHECK FAILED: {' '.join(op['argv'])}: {op['error']}",
                      file=sys.stderr)
    return attempted, failed


def _digests(children):
    """sha256 of each operation's stdout, and whether every child agreed."""
    per_op = [[op["sha256"] for op in child["ops"]] for child in children]
    return per_op[0], all(d == per_op[0] for d in per_op)


def _suite_ms(child):
    out = {f"suites.{suite}.ms": 0.0 for suite in workloads.SUITES}
    for op in child["ops"]:
        if op["argv"][0] == "verify":
            out[f"suites.{op['argv'][1]}.ms"] += 1e3 * op["wall_s"]
    return out


def _samples(children, keys):
    return {key: [child[key] for child in children] for key in keys}


def run_untraced(runner, workload, seed, seconds, setups):
    children = []
    start = time.monotonic()
    while not children or time.monotonic() - start < seconds:
        children.append(runner.child(workload, str(seed), "0"))
    values = {key: statistics.median([c[key] for c in children])
              for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median([c["setup_s"] for c in setups + children])
    samples = _samples(children, ("wall_s", "cpu_s", "peak_rss_mb"))
    samples.update(_samples(setups + children, ("setup_s", "host_kernel_us")))
    return values, children, samples, {}


def run_traced(runner, workload, seed, seconds, setups):
    plain, traced = [], []
    start = time.monotonic()
    while len(traced) < 2 or time.monotonic() - start < seconds:
        batch = plain if len(plain) <= len(traced) else traced
        batch.append(runner.child(workload, str(seed), "1" if batch is traced else "0"))
    # median_low keeps counts whole: the count of one of the children
    values = {name: (statistics.median_low if name.endswith(DETERMINISTIC_SUFFIXES)
                     else statistics.median)([c["layers"][name] for c in traced])
              for name in traced[0]["layers"]}
    suite_ms = [_suite_ms(child) for child in plain]
    for name in suite_ms[0]:
        values[name] = statistics.median([s[name] for s in suite_ms])
    values["trace.overhead_s"] = (statistics.median([c["wall_s"] for c in traced])
                                  - statistics.median([c["wall_s"] for c in plain]))

    counts = [{k: v for k, v in child["layers"].items()
               if k.endswith(DETERMINISTIC_SUFFIXES)} for child in traced]
    counts_identical = all(c == counts[0] for c in counts)
    if not counts_identical:
        diff = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        print(f"WARNING: counts differ between traced children: {diff}", file=sys.stderr)
    samples = {"wall_s_untraced": [c["wall_s"] for c in plain],
               "wall_s_traced": [c["wall_s"] for c in traced],
               "host_kernel_us": [c["host_kernel_us"] for c in setups + plain + traced]}
    extra = {"absent": traced[0]["absent"], "untraced_references": UNTRACED_NOTE,
             "counts_identical": counts_identical}
    return values, plain + traced, samples, extra


def _git_commit(root):
    """Commit of the checkout when it is a git work tree; read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "sheffer" / "__init__.py").is_file():
        print(f"error: no sheffer package under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    load = os.getloadavg()
    compileall.compile_dir(str(root / "src"), quiet=1)
    runner = Runner(root)
    try:
        setups = [runner.child("setup") for _ in range(1 if args.trace else SETUP_SAMPLES)]
        run = run_traced if args.trace else run_untraced
        values, children, samples, extra = run(runner, args.workload, args.seed,
                                               args.seconds, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2

    attempted, failed = _count_failures(children)
    digests, digests_stable = _digests(children)
    env = setups[0]["environment"]
    env.update({"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "loadavg_start": load, "git_commit": _git_commit(root),
                "seed": args.seed, "blas_threading": BLAS_NOTE})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_share {failed / attempted:.6g} ({failed} of {attempted} operations, "
          f"{len(children)} children)")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "inputs": [op["argv"] for op in workloads.operations(args.workload, args.seed)],
        "samples": samples, "fail_share": failed / attempted,
        "stdout_sha256": digests, "digests_stable": digests_stable, **extra,
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
