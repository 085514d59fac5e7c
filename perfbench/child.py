"""One experiment in a fresh process, timed the way `ising-infer run` runs it.

Usage: python3 perfbench/child.py CONFIG START_NS TRACE

START_NS is CLOCK_MONOTONIC in nanoseconds, read by the parent just before
it started this process, so ``setup_s`` covers interpreter start, the
package import and config parsing. ``wall_s`` and ``cpu_s`` cover
``run_experiment`` plus ``render_csv``. With TRACE=1 the package's public
functions are wrapped (outside both intervals) and the per-layer metrics
are reported too. Prints one JSON object on stdout.
"""
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _library_versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_name}


def main(config_path: str, start_ns: int, trace: bool) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ising_infer
    from ising_infer import harness

    config = harness.load_config(config_path)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - start_ns) / 1e9
    if not os.path.abspath(ising_infer.__file__).startswith(ROOT + os.sep):
        raise SystemExit(f"imported ising_infer from outside {ROOT}")

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = _cpu_seconds()
    wall0 = time.perf_counter()
    # through the module, so the traced bindings are the ones called
    text = harness.render_csv(harness.run_experiment(config))
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_seconds() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "csv": text,
        "versions": _library_versions(),
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        layers["trace.wall_s"] = wall_s
        layers["trace.unattributed_s"] = wall_s - layers.pop("trace.self_total_s")
        out["layers"] = layers
    return out


if __name__ == "__main__":
    path, start, trace_flag = sys.argv[1:4]
    print(json.dumps(main(path, int(start), trace_flag == "1")))
