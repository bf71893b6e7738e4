"""Benchmark of the hermite-markets command line, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload mixture-csv --seed 1 --seconds 38 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``mixture-csv``
(simulate a mixture ensemble to CSV, then the hurst and qv checks on it),
``taxed-arbitrage`` (the two taxed arb-demo cases, 10000 x 512) and
``tax-pricing`` (27 price commands). Each job calls
``hermite_markets.cli.main(argv)`` in-process with the argv a user would
type; one client, one job at a time, closed loop. Every process is a fresh
interpreter, so import cost is measured.

``--trace 0`` runs worker processes one after another for ``--seconds``
(at least three; another starts while half a typical one still fits), each
running a first and a second job, and reports the end-to-end metrics as
medians over them: ``setup_s`` (spawn to ``import hermite_markets.cli``
done), ``first_job_s`` (first job, cold caches), ``job_s`` (the second
jobs), ``peak_rss_mb`` and ``ok_frac`` (operations that passed /
attempted). Short workers spread the samples of every metric over the
whole run, so a slow spell of the host moves a few of them, not all.

``--trace 1`` reports the per-layer metrics instead: ``-X importtime``
cumulative times, one untraced worker (reference job time, a re-run of its
first seed, and on mixture-csv the two-thread ``gen_mixed`` probe), and one
worker whose package functions are wrapped in spans by ``tracer.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records host and provenance. Exits nonzero without a result when the
package cannot be run from ``src/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import tracer
import workloads

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(".bench_build", "hermite")
MIN_WORKERS = 3
RUN_LIMIT_S = 170.0

IMPORTTIME_MODULES = {
    "setup.hermite_markets_s": "hermite_markets",
    "setup.scipy_stats_s": "scipy.stats",
    "setup.scipy_optimize_s": "scipy.optimize",
    "setup.scipy_special_s": "scipy.special",
    "setup.scipy_linalg_s": "scipy.linalg",
    "setup.numpy_s": "numpy",
}

# per-layer self time per job, by span name
SELF_TIME_SPANS = (
    "processes.gen_mixed", "processes.gen_bm", "processes.gen_fbm", "processes.path_rng",
    "pathio.write_path_csv", "pathio.read_path_csv", "pathio.write_sidecar",
    "stats.estimate_hurst", "stats.centered_qv",
    "markets.price_mixed_market", "markets.TwoAssetDiffusion.price_paths",
    "strategies.running_cost", "strategies.diffusion_arb_demo", "strategies.mixed_arb_demo",
    "pde.solve_tax_bsm", "cli.main",
)


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


def program_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_checked(cmd, deadline, **kwargs):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(cmd, env=program_env(), timeout=remaining, **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[:3]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[:3]} exited with {proc.returncode}")
    return proc


def run_worker(cfg, index, deadline):
    """Spawn one worker process, wait for it, and return its result."""
    result_file = os.path.join(WORKDIR, f"worker-{index}.json")
    if os.path.exists(result_file):
        os.remove(result_file)
    cfg = dict(cfg, process=index, result=result_file,
               spans=os.path.join(WORKDIR, f"spans-{cfg['workload']}.jsonl"))
    cfg["spawned_at"] = time.perf_counter()
    run_checked([sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(cfg)],
                deadline, stdout=subprocess.DEVNULL)
    with open(result_file) as fh:
        return json.load(fh)


def importtime_metrics(deadline):
    """Import seconds of the package and its heavy dependencies.

    Each metric sums the cumulative times of the outermost ``-X importtime``
    entries named M or M.*: scipy loads scipy.stats through a lazy
    ``__getattr__`` that logs no entry for the package itself.
    """
    proc = run_checked([sys.executable, "-X", "importtime", "-c", "import hermite_markets.cli"],
                       deadline, capture_output=True, text=True)
    entries = []  # (depth, name, cumulative seconds, parent index), in log order
    pending = []  # indices of entries whose parent has not been logged yet
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:") \
                or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        index = len(entries)
        entries.append([depth, name.strip(), int(parts[1]) / 1e6, None])
        while pending and entries[pending[-1]][0] > depth:
            entries[pending.pop()][3] = index
        pending.append(index)

    def inside(name, module):
        return name == module or name.startswith(module + ".")

    metrics = {}
    for metric, module in IMPORTTIME_MODULES.items():
        outermost = [cum for _, name, cum, parent in entries if inside(name, module)
                     and (parent is None or not inside(entries[parent][1], module))]
        if not outermost:
            raise BenchError(f"-X importtime shows no import of {module}")
        metrics[metric] = sum(outermost)
    return metrics


def cpu_ticks():
    """(steal ticks, all ticks) from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def git_commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(results):
    warm = [t for r in results for t in r["job_s"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "first_job_s": (statistics.median(r["first_job_s"] for r in results), "s"),
        "job_s": (statistics.median(warm), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MiB"),
    }


def per_layer(workload, sizes, spans_file, reference, traced, setup):
    """Per-job self times from the spans of the traced worker's later jobs."""
    spans = tracer.read_spans(spans_file)
    warm_jobs = {job for *_, job in spans if job is not None and job > 0}
    per_job = max(len(warm_jobs), 1)
    self_s = defaultdict(float)
    solve_calls = 0
    for name, seconds, job in tracer.self_times(spans):
        if job in warm_jobs:
            self_s[name] += seconds / per_job
            solve_calls += name == "pde.solve_tax_bsm"
    top_level = sum(end - start for _, start, end, parent, job in spans
                    if parent < 0 and job in warm_jobs) / per_job
    traced_job_s = statistics.median(traced["job_s"])
    mean_job_s = statistics.fmean(traced["job_s"])
    counts = workloads.work_counts(workload, sizes)
    layers = defaultdict(float)
    for name, seconds in self_s.items():
        layers[name.split(".")[0]] += seconds
    print("share of a traced job's wall time, self time by layer: " + ", ".join(
        f"{layer} {seconds / mean_job_s:.1%}"
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])), file=sys.stderr)

    def ratio(numerator, denominator, scale=1e9):
        return numerator * scale / denominator if denominator else 0.0

    written = traced["bytes_written"]
    metrics = {f"{name}.self_s": (self_s[name], "s") for name in SELF_TIME_SPANS}
    metrics.update({
        "processes.seed_streams": (counts["seed_streams"], "count"),
        "processes.inner_points": (counts["inner_points"], "count"),
        "processes.fft_points": (counts["fft_points"], "count"),
        "processes.ns_per_inner_point": (
            ratio(self_s["processes.gen_mixed"], counts["inner_points"]), "ns"),
        "processes.gen_mixed.scaling_2t": (reference.get("scaling_2t", 0.0), "x"),
        "pathio.bytes_written": (written, "B"),
        "pathio.write_mb_per_s": (
            ratio(written, self_s["pathio.write_path_csv"], 1e-6), "MB/s"),
        "pathio.read_mb_per_s": (
            ratio(2 * written, self_s["pathio.read_path_csv"], 1e-6), "MB/s"),
        "strategies.running_cost.ns_per_path_step": (
            ratio(self_s["strategies.running_cost"], counts["running_cost_path_steps"]),
            "ns"),
        "pde.solve_tax_bsm.calls": (solve_calls / per_job, "count"),
        "pde.ns_per_node_step": (
            ratio(self_s["pde.solve_tax_bsm"], counts["pde_node_steps"]), "ns"),
        "pde.max_rel_err": (max(traced["max_rel_err"], reference["max_rel_err"]), "fraction"),
        "trace.overhead_frac": (
            traced_job_s / statistics.median(reference["job_s"]) - 1.0, "fraction"),
        "trace.unattributed_frac": (1.0 - top_level / mean_job_s, "fraction"),
    })
    metrics.update({name: (value, "s") for name, value in setup.items()})
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; checks may fail at these sizes")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "hermite_markets", "cli.py")):
        raise BenchError("src/hermite_markets not found; run from the root of a checkout")
    os.makedirs(WORKDIR, exist_ok=True)
    sizes = workloads.TINY if args.tiny else workloads.FULL
    steal0, ticks0 = cpu_ticks()
    # compile the package's bytecode and warm the file cache, untimed:
    # an installed package pays this once, not on every call
    run_checked([sys.executable, "-c", "import hermite_markets.cli"], deadline)
    cfg = {"workload": args.workload, "base_seed": args.seed, "sizes": sizes,
           "workdir": WORKDIR, "trace": False, "repro": False, "probe": False}
    if args.trace:
        setup = importtime_metrics(deadline)
        budget = args.seconds / 3
        reference = run_worker(dict(cfg, budget_s=budget, repro=True,
                                    probe=args.workload == "mixture-csv"), 0, deadline)
        traced = run_worker(dict(cfg, budget_s=budget, trace=True), 1, deadline)
        results = [reference, traced]
    else:
        run_end = time.monotonic() + args.seconds
        results, durations = [], []
        while len(results) < MIN_WORKERS or \
                time.monotonic() + statistics.median(durations) / 2 <= run_end:
            start = time.monotonic()
            results.append(run_worker(dict(cfg, budget_s=0.0), len(results), deadline))
            durations.append(time.monotonic() - start)
    steal1, ticks1 = cpu_ticks()
    steal_frac = (steal1 - steal0) / max(ticks1 - ticks0, 1)

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    seeds = [s for r in results for s in r["seeds"]]
    if len(set(seeds)) != len(seeds):
        failures.append("a job seed repeated within the run")
    attempted += 1
    if args.trace:
        metrics = per_layer(args.workload, sizes, os.path.join(
            WORKDIR, f"spans-{args.workload}.jsonl"), reference, traced, setup)
        metrics["host.steal_frac"] = (steal_frac, "fraction")
    else:
        metrics = end_to_end(results)
        metrics["ok_frac"] = ((attempted - len(failures)) / attempted, "fraction")
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": dict(sizes, prices=len(sizes["prices"])),
        "commit": git_commit(), "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "versions": results[0]["versions"], "steal_frac": steal_frac,
        "workers": len(results), "jobs": [1 + len(r["job_s"]) for r in results],
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
