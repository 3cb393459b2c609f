"""One repetition of a workload in a fresh interpreter.

Started by ``run.py`` with a JSON spec as its only argument.  Set-up ends
when the imports are done, right before the workload's first call, so
``demand._xi_cached`` starts cold as it does for every CLI invocation.
After the workload the worker checks its outputs and writes one JSON
result file; a traced repetition adds its spans and counters.
"""

import json
import os
import resource
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    import livefetch  # noqa: F401  (the imports a user pays for)
    import numpy
    import scipy

    import checks
    import tracer
    import workloads

    tracing = tracer.Tracer() if spec["trace"] else None
    if tracing is not None:
        tracing.install()
    t_ready = time.monotonic()
    start = time.perf_counter()
    workloads.run(spec["workload"], spec["seed"], spec["out_dir"], spec["tiny"])
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wrapped = tracer.find_wrapped()
    if tracing is not None:
        tracing.uninstall()
        if tracer.find_wrapped():
            raise RuntimeError(f"wrappers left installed: {tracer.find_wrapped()}")

    paths = workloads.output_files(spec["out_dir"])
    result = {
        "t_ready": t_ready,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "episodes": workloads.episodes(spec["workload"], spec["out_dir"], spec["tiny"]),
        "wrapped": wrapped,
        "check": checks.check_outputs(paths, spec["workload"], spec["seed"],
                                      compare=not spec["tiny"]),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracing is not None:
        result["spans"] = tracing.spans
        result["counters"] = tracing.counters
    tmp = spec["result_path"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp, spec["result_path"])


if __name__ == "__main__":
    main()
