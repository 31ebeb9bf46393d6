"""dominoflip benchmark: seeded CLI job lists, run end to end.

    python3 perfbench/run.py --workload count|search|distance --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is run from `src/`.
Each job is one `python3 -m dominoflip.cli` child, started only after
the previous one exits (a closed loop with one client), under a CPU and
an address-space cap set on the child alone.  Every answer is checked
by `oracle.py`.  The job list is repeated a number of passes fixed by
the workload and --seconds, so both sides of a comparison time the same
job population.  After the passes, the workload's oversize jobs run
once, untimed and outside `attempted` and `failed`, as a probe.

With --trace 0 the last line reports the end-to-end metrics.  With
--trace 1 untraced and traced passes alternate; traced passes replay the
jobs through `tracer.py` and the last line reports per-layer metrics.
A record of the run, with per-job times and output digests, goes to
.perfbench/results/.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import oracle
from jobs import SETUP_JOB, WORKLOADS, build_jobs
from tracer import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
# Seconds of --seconds that one pass of each job list counts for; the
# number of passes is round(seconds / this), so that the declared 24 s
# gives 3 passes of `count` and 4 of `search` and `distance`.  A pass
# took about 7-9, 6-7 and 6-7.5 s at the seed commit on the 2-vCPU
# machine this was tuned on.
NOMINAL_PASS_S = {"count": 8.0, "search": 6.5, "distance": 6.5}
# Trivial jobs spread evenly through each run, so that setup_s sees the
# same host conditions as the workload's own jobs.
SETUP_SAMPLES = 40
E2E_UNITS = {"run_s": "s", "job_p50_s": "s", "job_tail_s": "s",
             "peak_rss_mb": "MB", "setup_s": "s"}
# A capped child is also killed if it outlives its CPU cap by this much
# wall time (a child blocked rather than computing).
WALL_SLACK_S = 10


class JobRun:
    """Spawns one child and reaps it with os.wait4 for its peak RSS."""

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.tracer = os.path.join(HERE, "tracer.py")
        self.spans_path = os.path.join(workdir, "spans.json")

    def __call__(self, job, traced: bool):
        for path in job.outputs + ["stdout", "stderr", "spans.json"]:
            try:
                os.remove(os.path.join(self.workdir, path))
            except FileNotFoundError:
                pass
        if traced:
            argv = [sys.executable, self.tracer, self.spans_path, *job.argv]
        else:
            argv = [sys.executable, "-m", "dominoflip.cli", *job.argv]

        def limits():
            resource.setrlimit(resource.RLIMIT_CPU,
                               (job.cpu_cap, job.cpu_cap + 1))
            resource.setrlimit(resource.RLIMIT_AS, (job.as_cap, job.as_cap))
            resource.setrlimit(resource.RLIMIT_CORE, (0, 0))

        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                     stdin=subprocess.DEVNULL, stdout=out,
                                     stderr=err, preexec_fn=limits)
            timed_out = []

            def kill(signum, frame):
                timed_out.append(True)
                child.kill()

            signal.signal(signal.SIGALRM, kill)
            signal.setitimer(signal.ITIMER_REAL, job.cpu_cap + WALL_SLACK_S)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        child.returncode = code
        files = {p: _read(os.path.join(self.workdir, p)) for p in job.outputs}
        outcome = oracle.Outcome(code, _read(out_path), _read(err_path), files,
                                 capped=bool(timed_out) or code in (
                                     -signal.SIGXCPU, -signal.SIGKILL))
        spans = None
        if traced and os.path.exists(self.spans_path):
            with open(self.spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)
        return outcome, wall, usage.ru_maxrss / 1024, spans


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def digest(outcome: oracle.Outcome, job) -> str:
    """One hash over exit code, stdout and every file the job writes."""
    h = hashlib.sha256(f"exit {outcome.code}\n".encode())
    h.update(outcome.stdout or b"")
    for path in job.outputs:
        data = outcome.files[path]
        h.update(f"\n{path} {-1 if data is None else len(data)}\n".encode())
        h.update(data or b"")
    return h.hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with at least ten samples
    beyond it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def host_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg_before": os.getloadavg()}


def useful_flips(job, verdict: oracle.Verdict, spans) -> int:
    """Flips that moved a height label toward its target.  Both monotone
    sweeps of `extremes` start from a tiling between the two extremes, so
    together they make exactly the t_min-t_max distance, which the oracle
    has checked against the closed form; a geodesic makes one flip per
    step of its path."""
    if job.check["kind"] == "extremes" and verdict.ok:
        return job.check["expect"]
    if spans is None:
        return 0
    return sum(s["info"].get("size", 0) for s in spans["spans"]
               if s["name"] == "geodesic" and s["end"] is not None)


class Bench:
    def __init__(self, args, root: str, passes: int):
        base = os.path.join(root, ".perfbench")
        self.workdir = os.path.join(
            base, f"work-{args.workload}-{args.seed}-{args.trace}")
        self.results = os.path.join(
            base, "results",
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(os.path.join(self.workdir, "out"))
        os.makedirs(os.path.dirname(self.results), exist_ok=True)
        jobs = build_jobs(args.workload, args.seed, self.workdir)
        self.jobs = [j for j in jobs if not j.oversize]
        self.probes = [j for j in jobs if j.oversize]
        self.run_job = JobRun(root, self.workdir)
        self.digests: dict[str, str] = {}
        self.log = {j.name: {"argv": j.argv, "wall_s": [], "rss_mb": [],
                             "failures": []} for j in self.jobs}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        total = passes * len(self.jobs)
        self.setup_at = {i * total // SETUP_SAMPLES
                         for i in range(SETUP_SAMPLES)}
        self.setup_job()  # warm-up: file cache and bytecode, not recorded
        self.setup: list[float] = []
        self.setup_rss: list[float] = []

    def setup_job(self) -> tuple[float, float]:
        """Time a trivial CLI job: interpreter start, import and argument
        parsing.  Its peak RSS is the floor under every job's."""
        outcome, wall, rss, _ = self.run_job(SETUP_JOB, traced=False)
        verdict = oracle.check(SETUP_JOB, outcome, self.workdir)
        if not verdict.ok:
            raise RuntimeError(
                f"trivial job failed: {verdict.reason}: "
                f"{outcome.stderr.decode(errors='replace')[-500:]}")
        return wall, rss

    def run_pass(self, traced: bool) -> list[dict]:
        records = []
        verdicts = {}
        for job in self.jobs:
            if self.attempted in self.setup_at:
                wall, rss = self.setup_job()
                self.setup.append(wall)
                self.setup_rss.append(rss)
            self.attempted += 1
            outcome, wall, rss, spans = self.run_job(job, traced)
            verdict = oracle.check(job, outcome, self.workdir)
            verdicts[job.name] = verdict
            first = self.digests.setdefault(job.name, digest(outcome, job))
            if first != digest(outcome, job) and verdict.ok:
                verdict = oracle.Verdict(False, "output digest changed", True)
                verdicts[job.name] = verdict
            records.append({"job": job, "wall_s": wall,
                            "rss_mb": rss, "spans": spans,
                            "capped": outcome.capped,
                            "useful_flips": useful_flips(job, verdict, spans)})
        for name, reason in oracle.check_groups(self.jobs, verdicts).items():
            verdicts[name] = oracle.Verdict(False, reason, True)
        for record in records:
            job, verdict = record["job"], verdicts[record["job"].name]
            entry = self.log[job.name]
            if not traced:
                entry["wall_s"].append(record["wall_s"])
                entry["rss_mb"].append(record["rss_mb"])
            for span in (record["spans"] or {}).get("spans", []):
                if span["end"] is not None and span["parent"] is not None:
                    entry.setdefault("span_s", {}).setdefault(
                        span["name"], []).append(span["end"] - span["start"])
            if not verdict.ok:
                self.failed += 1
                self.wrong += verdict.wrong
                entry["failures"].append(verdict.reason)
            record["failed"] = not verdict.ok
        return records

    def run_probes(self) -> list[dict]:
        """Each oversize job once, untimed and outside `attempted` and
        `failed`: at the seed commit every one is stopped by its cap.  A
        wrong answer still makes the run incorrect."""
        results = []
        for job in self.probes:
            outcome, wall, _, _ = self.run_job(job, traced=False)
            verdict = oracle.check(job, outcome, self.workdir)
            self.wrong += verdict.wrong
            results.append({"argv": job.argv, "ok": verdict.ok,
                            "outcome": verdict.reason or "answered",
                            "wall_s": wall})
        return results


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dominoflip", "cli.py")):
        print("error: run from the root of a dominoflip checkout "
              "(src/dominoflip/cli.py not found)", file=sys.stderr)
        return 2
    host = host_record()
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    plan = [False] * passes
    if args.trace:
        plan = [i % 2 == 1 for i in range(max(2, passes))]
    bench = Bench(args, root, len(plan))
    runs = [(traced, bench.run_pass(traced)) for traced in plan]
    probes = bench.run_probes()
    setup = bench.setup
    host["loadavg_after"] = os.getloadavg()

    timed = [r for traced, recs in runs if not traced for r in recs]
    # a failed job misses every latency limit: it ranks beyond all others
    job_s = [math.inf if r["failed"] else r["wall_s"] for r in timed]
    tail_s, tail_pct = tail(job_s)
    end_to_end = {
        # the job list once, each job at its median over the passes
        "run_s": sum(statistics.median(bench.log[j.name]["wall_s"])
                     for j in bench.jobs),
        "job_p50_s": statistics.median(job_s),
        "job_tail_s": tail_s,
        # a capped job's peak shows its cap, not the program
        "peak_rss_mb": max(r["rss_mb"] for r in timed if not r["capped"]),
        "setup_s": statistics.median(setup),
    }
    rss_floor = max(bench.setup_rss)
    per_layer = {}
    if args.trace:
        passes_traced = [layer_metrics(recs) for traced, recs in runs if traced]
        per_layer = {name: statistics.median(p[name] for p in passes_traced)
                     for name in passes_traced[0]}
        per_layer["trace.overhead_s"] = (per_layer["trace.total_s"]
                                         - end_to_end["run_s"])
        per_layer["oversize.passed"] = sum(p["ok"] for p in probes)
    metrics = per_layer if args.trace else end_to_end
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "passes": [("traced" if t else "untraced") for t in plan],
        "jobs_per_pass": len(bench.jobs), "job_samples": len(job_s),
        "tail_percentile": tail_pct, "setup_samples_s": setup,
        "rss_floor_mb": rss_floor, "end_to_end": end_to_end,
        "per_layer": per_layer,
        "jobs": [dict(bench.log[j.name], name=j.name,
                      digest=bench.digests[j.name]) for j in bench.jobs],
        "oversize_probe": probes,
    }
    with open(bench.results, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    shutil.rmtree(bench.workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  passes {plan.count(False)}"
          f" untraced / {plan.count(True)} traced  jobs/pass {len(bench.jobs)}")
    print(f"host: python {host['python']}, nproc {host['nproc']}, "
          f"{host['cpu']}, load {host['loadavg_before']} -> "
          f"{host['loadavg_after']}")
    print(f"job samples {len(job_s)}; job_tail_s is p{tail_pct:.1f}; "
          f"setup samples {len(setup)}; peak_rss_mb floor (trivial job's "
          f"peak) {rss_floor:.2f} MB")
    for name, value in end_to_end.items():
        print(f"  {name:<12} {value:12.6f} {E2E_UNITS[name]}")
    for name in sorted(per_layer):
        print(f"  {name:<26} {per_layer[name]:.6g}")
    for job in bench.jobs:
        for reason in sorted(set(bench.log[job.name]["failures"])):
            print(f"  FAILED {job.name} {' '.join(job.argv)}: {reason}")
    for probe in probes:
        print(f"  oversize probe {' '.join(probe['argv'])}: "
              f"{probe['outcome']} after {probe['wall_s']:.2f} s")
    print(f"record: {os.path.relpath(bench.results, root)}")
    print(json.dumps({
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS.get(k) or layer_unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return {"flipgraph.bytes_per_node": "B/node", "render.svg_bytes": "B",
            "height.flip_yield": "ratio"}.get(
                name, "ratio" if name.endswith(".share") else "count")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
