"""asmtree benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The library is imported from ./src as
it stands; nothing is installed or built. Load is a closed loop with one
caller: each sample is a fresh single-threaded Python process (worker.py)
that imports asmtree, builds the workload's inputs and runs its fixed job
once, with every output checked against a reference. Samples run one after
another while the next one would still end within --seconds; a run has at
least one. In untraced runs five extra processes only import and build
the inputs, so set-up time has several samples even when a job is long.

--trace 0 prints the end-to-end metrics (medians over the samples).
--trace 1 alternates untraced and traced samples and prints the per-layer
metrics, derived from spans recorded around the calls into each asmtree
module. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Each run also writes its
samples and spans to .perfbench/ in the checkout. The workloads and their
reference values are in workloads.py; NOTES.md says what is and is not
covered.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic

from tracing import layer_of, self_times, total_by_name
from workloads import LAYERS, SEEDED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "asmtree"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
# the per-layer metrics and their units are listed once, in BENCHMARK.json
PER_LAYER = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, run_id: str, deadline: float) -> dict:
    """Run one worker process to completion and return its report."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left before the run deadline")
    # a fixed hash seed keeps set and dict layouts the same across samples
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, run_id]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerFailed(f"{run_id} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{run_id} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, modes: tuple[str, ...], deadline: float):
    """Samples per mode: whole repetitions, alternating the mode order, while
    the next one would still end within `seconds` (at least one)."""
    samples: dict[str, list[dict]] = {m: [] for m in modes}
    start = monotonic()
    rep = 0
    while True:
        for mode in modes if rep % 2 == 0 else modes[::-1]:
            samples[mode].append(spawn(workload, seed, mode, f"{workload}-s{seed}-{mode}{rep}", deadline))
        rep += 1
        elapsed = monotonic() - start
        per_rep = elapsed / rep
        if elapsed + per_rep > seconds or monotonic() + per_rep > deadline:
            return samples


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload in SEEDED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "load": "closed loop, one caller, calls in sequence, one single-threaded process per sample",
    }


def end_to_end(probes: list[dict], jobs: list[dict], attempted: int, failed: int) -> dict:
    setups = [s["setup_s"] for s in probes + jobs]
    return {
        "wall_s": (median(s["wall_s"] for s in jobs), "s", len(jobs)),
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (median(s["peak_rss_mb"] for s in jobs), "MB", len(jobs)),
        "ok_ratio": ((attempted - failed) / attempted, "ratio", attempted),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str], bool]:
    """The per-layer metrics named in BENCHMARK.json, the notes, and whether
    the self-time check held in every traced sample.

    A time metric "<layer>.<operation>_s" is the summed time of the spans of
    that name; one that the workload never calls is reported as 0.
    """
    times = []
    self_time_ok = True
    for s in traced:
        totals = total_by_name(s["spans"])
        selfs = self_times(s["spans"], "job")
        t = {f"{name}_s": v for name, v in totals.items()}
        t["graphs.build_s"] = sum(v for k, v in totals.items() if layer_of(k) == "graphs")
        t.update({f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS})
        times.append(t)
        # holds by construction, since every layer span lies inside the job
        # span and so inside the interval timed as wall_s; a failure means
        # the spans are broken
        self_time_ok &= sum(selfs.get(layer, 0.0) for layer in LAYERS) <= s["wall_s"]
    n = len(traced)
    values = {k: (median(t.get(k, 0.0) for t in times), n) for k in set().union(*times)}
    counters = traced[0]["counters"]
    values.update({k: (v, n) for k, v in counters.items()})
    jobs = untraced + traced
    for layer in LAYERS:
        values[f"{layer}.ops_failed"] = (sum(s["failed"][layer] for s in jobs), len(jobs))
    overhead = median(s["wall_s"] for s in traced) - median(s["wall_s"] for s in untraced)
    values["trace.overhead_s"] = (overhead, n)

    notes = []
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name not in values and not (name.endswith("_s") and layer_of(name) in LAYERS):
            raise ValueError(f"per-layer metric {name} in BENCHMARK.json is not produced")
        value, count = values.get(name, (0.0, n))
        metrics[name] = (value, unit, count)
    if any(s["counters"] != counters for s in traced):
        notes.append("counters differ between traced samples; the first sample is reported")
    unused = [k for k, (v, unit, _) in metrics.items() if unit == "s" and v == 0.0]
    if unused:
        notes.append("not exercised by this workload (reported as 0): " + ", ".join(unused))
    if self_time_ok:
        notes.append("self-time check: the layers' self times add up to no more than traced wall_s in every traced sample")
    else:
        notes.append("self-time check FAILED: the layers' self times add up to more than traced wall_s")
    notes.append("time waiting: not applicable; one thread, one caller, no queues or locks")
    return metrics, notes, self_time_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no asmtree sources at {PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2

    meta = metadata(args)
    print("meta " + json.dumps(meta))
    modes = ("job", "traced") if args.trace else ("job",)
    try:
        # traced runs do not report setup_s, so they skip the set-up probes
        probes = [
            spawn(args.workload, args.seed, "setup", f"{args.workload}-s{args.seed}-setup{i}", deadline)
            for i in range(0 if args.trace else SETUP_PROBES)
        ]
        samples = measure(args.workload, args.seed, args.seconds, modes, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    jobs = samples["job"] + samples.get("traced", [])
    attempted = sum(s["attempted"] for s in jobs)
    failed = sum(sum(s["failed"].values()) for s in jobs)
    notes = []
    self_time_ok = True
    if args.trace:
        metrics, notes, self_time_ok = per_layer(samples["job"], samples["traced"])
    else:
        metrics = end_to_end(probes, samples["job"], attempted, failed)
    failures = sorted({f for s in jobs for f in s["failures"]})

    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value!r} {unit} (n={n})")
    for note in notes:
        print("note: " + note)
    for failure in failures:
        print("FAILED " + failure)

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "setup_probes": probes,
        "samples": {m: [{k: v for k, v in s.items() if k != "spans"} for s in ss] for m, ss in samples.items()},
        "spans": [span for s in samples.get("traced", []) for span in s["spans"]],
    }
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")

    result = {
        "correct": failed == 0 and self_time_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
