"""Child interpreter of the benchmark; run.py starts it, one per sample.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py <workload> <seed> <trace 0|1>

It writes ``ready`` to stdout as soon as ``import sheffer`` returns, so the
parent times interpreter start-up plus the package import; nothing else is
imported before sheffer. Then it runs the workload through
``sheffer.cli.main``, timing each operation, checks every output outside
the timed region and writes one JSON line with its results.
"""

import os
import sys

import sheffer

os.write(1, b"ready\n")

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _blas():
    """Name and default thread count of the BLAS library numpy loads."""
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    info = deps.get("blas", {})
    name = f"{info.get('name')} {info.get('version')}"
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = getattr(lib, symbol)()
                break
    return name, threads


def environment():
    import numpy
    import scipy

    blas, threads = _blas()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_default_threads": threads,
            "sheffer_version": getattr(sheffer, "__version__", None)}


def _run_ops(cli, ops):
    """Run the operations in order; return per-op
    (rc, stdout file, stderr file, wall seconds, cpu seconds).

    Output goes to unlinked temporary files, so that it is not held in the
    child's memory while peak RSS builds up, as a user's CLI streams it to a
    pipe.
    """
    raw = []
    for op in ops:
        out = tempfile.TemporaryFile("w+", encoding="utf-8", dir=ROOT)
        err = tempfile.TemporaryFile("w+", encoding="utf-8", dir=ROOT)
        start = time.perf_counter()
        cpu0 = time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op["argv"]))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception"
            err.write(traceback.format_exc())
        raw.append((rc, out, err, time.perf_counter() - start, time.process_time() - cpu0))
    return raw


def _read(handle):
    handle.seek(0)
    text = handle.read()
    handle.close()
    return text


def main(argv):
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(sheffer.__file__), src]) != src:
        raise SystemExit(f"sheffer imported from {sheffer.__file__}, not from {src}")
    if argv == ["setup"]:
        print(json.dumps({"environment": environment()}), flush=True)
        return 0

    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    ops = workloads.operations(workload, seed)
    tracer = spans.Tracer() if trace else None
    originals, absent = spans.install(tracer, layers.TARGETS) if trace else ({}, [])
    from sheffer import cli

    raw = _run_ops(cli, ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layer_values = layers.layer_metrics(tracer.merged(), originals) if trace else None

    results = []
    for op, (rc, out, err, wall, cpu) in zip(ops, raw):
        stdout, stderr = _read(out), _read(err)
        try:
            error = workloads.check(op, rc, stdout)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            error = f"unexpected output: {exc!r}"
        if error is not None:
            error = f"{error}; stderr: {stderr.strip()[-2000:]}"
        results.append({
            "argv": op["argv"], "rc": rc, "error": error,
            "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "wall_s": wall, "cpu_s": cpu,
        })
    print(json.dumps({"ops": results, "peak_rss_mb": rss_mb, "layers": layer_values,
                      "absent": absent}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
