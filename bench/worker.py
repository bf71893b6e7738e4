"""One benchmark process: a fresh interpreter that imports the package,
runs jobs through ``hermite_markets.cli.main`` until its deadline, checks
every job's outputs, and writes a JSON result file.

Usage (from the orchestrator, with PYTHONPATH=src):
    python3 bench/worker.py '<config json>'

Only the clock and the standard library load before the package, so the
orchestrator can read the package import time off the shared monotonic
clock (``time.perf_counter`` is CLOCK_MONOTONIC on Linux).
"""

import time

import hermite_markets.cli

imported_at = time.perf_counter()

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import threading

import workloads

_PRICE_LINE = re.compile(r"value at spot \S+: (\S+)")


def run_cli(argv):
    """One CLI call as a user makes it; returns (exit code, stdout, error)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = hermite_markets.cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a dead run
        return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), None


class Job:
    """One job's CLI calls, timed as a whole, then checked."""

    def __init__(self, cfg, seed):
        self.cfg, self.seed = cfg, seed
        self.argvs = workloads.commands(cfg["workload"], seed, cfg["sizes"], cfg["workdir"])
        self.bytes_written = 0

    def run(self):
        start = time.perf_counter()
        self.calls = [run_cli(argv) for argv in self.argvs]
        self.seconds = time.perf_counter() - start

    def check(self):
        """(attempted, failure messages, worst price error, output digest)."""
        failures = []
        for argv, (code, _, error) in zip(self.argvs, self.calls):
            if code != 0:
                failures.append(f"{' '.join(argv)}: "
                                f"exit {code} {error or ''}".strip())
        digest = hashlib.sha256()
        for _, out, _ in self.calls:
            digest.update(out.encode())
        workload, sizes = self.cfg["workload"], self.cfg["sizes"]
        checks, worst = [], 0.0
        if workload == "mixture-csv":
            checks = self._check_csv(sizes, digest)
        elif workload == "taxed-arbitrage":
            checks = [self._check_demo(out, sizes) for _, out, _ in self.calls]
        else:
            for (payoff, tax, strike), (_, out, _) in zip(sizes["prices"], self.calls):
                err = _price_error(out, payoff, tax, strike)
                worst = max(worst, err)
                checks.append(None if err <= 1e-3 else
                              f"{payoff} tax {tax} strike {strike}: rel err {err:.3g}")
        failures += [c for c in checks if c]
        return len(self.calls) + len(checks), failures, worst, digest.hexdigest()

    def _check_csv(self, sizes, digest):
        import numpy as np

        filename = workloads.csv_path(self.seed, self.cfg["workdir"])
        paths, steps = sizes["mixture_paths"], sizes["mixture_steps"]
        try:
            with open(filename, "rb") as fh:
                raw = fh.read()
            with open(filename + ".json") as fh:
                sidecar = json.load(fh)
            self.bytes_written = len(raw) + os.path.getsize(filename + ".json")
        except (OSError, ValueError) as exc:
            return [f"csv seed {self.seed}: {exc}"]
        finally:
            for name in (filename, filename + ".json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(name)
        digest.update(raw)
        seed_check = (None if sidecar.get("seed") == self.seed else
                      f"sidecar seed {sidecar.get('seed')} != job seed {self.seed}")
        try:
            table = np.array([line.split(",") for line in raw.decode().splitlines()[1:]],
                             dtype=float)
        except ValueError as exc:
            return [f"csv seed {self.seed}: {exc}", seed_check]
        csv_ok = (table.shape == (steps + 1, paths + 1) and bool(np.isfinite(table).all())
                  and bool((table[0] == 0.0).all()))
        return [None if csv_ok else f"csv seed {self.seed}: {table.shape} table, want "
                                    f"{steps + 1} x {paths + 1} finite, zero at t = 0",
                seed_check]

    def _check_demo(self, out, sizes):
        try:
            report = json.loads(out)
        except ValueError:
            return f"arb-demo seed {self.seed}: output is not JSON"
        ok = (report.get("pass") is True and report.get("paths") == sizes["arb_paths"]
              and report.get("parameters", {}).get("tax") == [0.3, 0.3])
        return None if ok else f"arb-demo seed {self.seed}: report {report.get('demo')} failed"


def _price_error(out, payoff, tax, strike):
    match = _PRICE_LINE.search(out)
    if not match:
        return float("inf")
    reference = workloads.reference_price(payoff, tax, strike)
    return abs(float(match.group(1)) - reference) / reference


def scaling_probe(cfg, seed):
    """gen_mixed on one call against two threads with path_offset halves.

    Returns (one-call seconds / two-thread seconds, bit-identical?).
    """
    import numpy as np
    from hermite_markets.processes import MixedHermiteSpec, gen_mixed

    sizes = cfg["sizes"]
    paths, steps = sizes["mixture_paths"], sizes["mixture_steps"]
    weight = float(workloads.MIX_WEIGHT)
    spec = MixedHermiteSpec(0.75, tuple((weight, r) for r in workloads.MIX_RANKS))
    start = time.perf_counter()
    whole = gen_mixed(spec, 1.0, steps, paths, seed).values
    one = time.perf_counter() - start
    half = paths // 2
    parts = [None, None]

    def part(i, count, offset):
        parts[i] = gen_mixed(spec, 1.0, steps, count, seed, path_offset=offset).values

    threads = [threading.Thread(target=part, args=(0, half, 0)),
               threading.Thread(target=part, args=(1, paths - half, half))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    two = time.perf_counter() - start
    return one / two, bool(np.array_equal(np.vstack(parts), whole))


def main(cfg):
    import numpy
    import scipy

    here = os.path.realpath(os.path.join("src", "hermite_markets"))
    if os.path.dirname(os.path.realpath(hermite_markets.cli.__file__)) != here:
        print(f"worker: hermite_markets loaded from {hermite_markets.cli.__file__}, "
              f"not from {here}", file=sys.stderr)
        return 3
    os.makedirs(cfg["workdir"], exist_ok=True)
    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    deadline = cfg["spawned_at"] + cfg["budget_s"]
    result = {"setup_s": imported_at - cfg["spawned_at"], "job_s": [], "seeds": [],
              "attempted": 0, "failures": [], "max_rel_err": 0.0}
    job_index = 0
    while job_index < 2 or time.perf_counter() < deadline:
        seed = workloads.job_seed(cfg["base_seed"], cfg["process"], job_index)
        job = Job(cfg, seed)
        if tracer:
            tracer.job = job_index
        job.run()
        if tracer:
            tracer.job = None
        attempted, failures, worst, digest = job.check()
        if job_index == 0:
            result["first_job_s"], first_digest = job.seconds, digest
        else:
            result["job_s"].append(job.seconds)
        result["seeds"].append(seed)
        result["attempted"] += attempted
        result["failures"] += failures
        result["max_rel_err"] = max(result["max_rel_err"], worst)
        result["bytes_written"] = job.bytes_written
        job_index += 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if cfg["repro"]:
        again = Job(cfg, workloads.job_seed(cfg["base_seed"], cfg["process"], 0))
        again.run()
        *_, digest = again.check()
        result["attempted"] += 1
        if digest != first_digest:
            result["failures"].append(f"re-run of seed {again.seed} gave other outputs")
    if cfg["probe"]:
        result["scaling_2t"], identical = scaling_probe(cfg, result["seeds"][0])
        result["attempted"] += 1
        if not identical:
            result["failures"].append("gen_mixed on two threads differs from one call")
    if tracer:
        tracer.write(cfg["spans"])
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    with open(cfg["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
