"""One workload process: import asmtree, build the inputs, run the job once.

    python3 perfbench/worker.py <workload> <seed> <setup|job|traced> <run-id>

`setup` stops after building the inputs; `job` also runs the timed job;
`traced` runs it with spans recorded. The process prints one JSON object
on stdout. run.py starts one fresh process per sample, so every sample
pays the import, and peak memory is that of a single job.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from tracing import NullTracer, Tracer
from workloads import WORKLOADS, Run, layer_counters

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    workload, seed, mode, run_id = argv[0], int(argv[1]), argv[2], argv[3]
    setup, job = WORKLOADS[workload]
    tracer = Tracer(run_id) if mode == "traced" else NullTracer()
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    with tracer.span("setup"):
        A = importlib.import_module("asmtree")
        importlib.import_module("asmtree.cli")
        inputs = setup(A, seed, tracer)
    out = {"setup_s": perf_counter() - t0}
    if SRC not in Path(A.__file__).resolve().parents:
        print(f"asmtree was imported from {A.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    if mode != "setup":
        run = Run(A, tracer)
        t1 = perf_counter()
        with tracer.span("job"):
            job(run, inputs)
        out["wall_s"] = perf_counter() - t1
        # Linux reports ru_maxrss in KiB
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["attempted"] = run.attempted
        out["failed"] = run.failed
        out["failures"] = run.failures
        if mode == "traced":
            out["counters"] = layer_counters(A, run.calls)
            out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
