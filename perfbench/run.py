"""The hibiring benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {oracle,census,certify} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from its
`src/` directory, nothing is installed.  A single process generates the load:
every job runs in its own fresh Python process, one after another, with no
threads, so the timings measure the program and not the scheduler.  Inputs are
fixed (the census is exhaustive and the grids are pinned); the seed only
permutes the order of the jobs within each pass.

With --trace 0 the run times set-up seven times, then repeats passes over the
workload's jobs while another pass fits in S seconds (at least one), and
reports the medians of the end-to-end metrics.  With --trace 1 it runs
untraced passes for the first half of S and traced passes after (at least one
of each) and reports the per-layer metrics of the traced passes plus
`trace_overhead`.  Every pass checks every answer against its pin
(workloads.py).  The last line of standard output is a JSON object with keys
`correct`, `attempted`, `failed` and `metrics`; `failed` counts operations
that errored or answered wrongly, and `correct` is false when an answer is
missing or contradicts its pin.  Everything else (environment, per-pass
figures, spans) goes to `.perfbench/` in the checkout.
"""

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import LAYER_MAP, WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s; jobs are killed at this


@dataclass
class Proc:
    code: int
    stdout: str
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)
    jobs: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)


class Runner:
    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline

    def spawn(self, spec, trace_out=None):
        """Run one worker process to completion and return its rusage."""
        argv = [sys.executable, str(WORKER), str(self.root), json.dumps(spec)]
        if trace_out:
            argv.append(str(trace_out))
        out_path, err_path = self.work / "job.out", self.work / "job.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, stdout=out, stderr=err)
            # A timer signal, not a thread, kills a job that runs past the
            # deadline; wait4 resumes after the handler and reaps it.
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL,
                             max(0.001, self.deadline - time.monotonic()))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 2):
            sys.stderr.write(err_path.read_text()[-2000:])
        return Proc(proc.returncode, out_path.read_text(), wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def run_pass(self, jobs, rng, traced):
        order = list(jobs)
        rng.shuffle(order)
        p = Pass(traced)
        for job in order:
            trace_out = self.work / "spans.json" if traced else None
            if traced:  # a job killed before it writes must not read old spans
                trace_out.unlink(missing_ok=True)
            r = self.spawn(job.spec, trace_out)
            outcome = job.check(r.code, r.stdout)
            p.jobs.append({"job": job.name, "exit": r.code, "wall_s": r.wall_s,
                           "cpu_s": r.cpu_s, "rss_mb": r.rss_mb})
            p.wall_s += r.wall_s
            p.cpu_s += r.cpu_s
            p.peak_rss_mb = max(p.peak_rss_mb, r.rss_mb)
            p.attempted += outcome.attempted
            p.failed += outcome.failed
            p.wrong += outcome.wrong
            if outcome.note:
                p.notes.append(f"{job.name}: {outcome.note}")
            if traced:
                try:
                    p.spans[job.name] = json.loads(trace_out.read_text())
                except (OSError, ValueError):
                    p.spans[job.name] = []
        return p

    def passes(self, jobs, rng, traced, budget_s, done):
        """Append passes to `done` while another one is expected to end
        within `budget_s` of now; always at least one."""
        start = time.monotonic()
        mine = []
        while True:
            mine.append(self.run_pass(jobs, rng, traced))
            elapsed = time.monotonic() - start
            if (elapsed + elapsed / len(mine) > budget_s
                    or time.monotonic() + elapsed / len(mine) > self.deadline):
                break
        done.extend(mine)
        return mine


def environment(root):
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        nproc = len(os.sched_getaffinity(0))
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "nproc": nproc, "commit": commit}


def end_to_end(runner, workload, rng, seconds, done):
    setups = [runner.spawn({"setup": workload.setup}).wall_s
              for _ in range(SETUP_REPEATS)]
    mine = runner.passes(workload.jobs, rng, False, seconds, done)
    return {
        "wall_s": (statistics.median(p.wall_s for p in mine), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in mine), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in mine), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(runner, workload, rng, seconds, done, units):
    plain = runner.passes(workload.jobs, rng, False, seconds / 2, done)
    traced = runner.passes(workload.jobs, rng, True, seconds / 2, done)
    values = tracing.median_metrics(
        [tracing.layer_metrics(p.spans) for p in traced])
    values["trace_overhead"] = (statistics.median(p.wall_s for p in traced)
                                / statistics.median(p.wall_s for p in plain))
    return {name: (values[name], units[name]) for name in units}


def run_benchmark(root, workload, seed, seconds, trace, units, out=sys.stdout):
    """Run one workload and print the report; returns the final JSON object.
    `units` maps each per-layer metric name to its unit."""
    started = time.monotonic()
    base = root / ".perfbench"
    work = base / "work"
    for d in (work, base / "results", base / "traces"):
        d.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work, started + RUN_LIMIT_S)
    rng = random.Random(seed)
    env = environment(root)

    def say(line):
        print(line, file=out, flush=True)

    say(f"perfbench workload={workload.name} seed={seed} seconds={seconds} "
        f"trace={trace}")
    say("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    say(f"why {workload.why}")
    runner.spawn({"setup": {}})  # warm-up: byte-code cache and file cache
    done = []
    if trace:
        metrics = per_layer(runner, workload, rng, seconds, done, units)
    else:
        metrics = end_to_end(runner, workload, rng, seconds, done)
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    wrong = sum(p.wrong for p in done)
    for k, p in enumerate(done, 1):
        say(f"pass {k}{' traced' if p.traced else ''}: wall {p.wall_s:.3f} s, "
            f"cpu {p.cpu_s:.3f} s, peak {p.peak_rss_mb:.1f} MB, "
            f"failed {p.failed}/{p.attempted}, "
            f"order {[j['job'] for j in p.jobs]}")
        for note in p.notes:
            say(f"  {note}")
    for name, (value, unit) in metrics.items():
        say(f"{name} {value!r} {unit}")
    say(f"fail_ratio {failed / attempted!r} ratio ({done[0].failed}/"
        f"{done[0].attempted} per pass; {failed}/{attempted} over "
        f"{len(done)} passes)")

    tag = f"{workload.name}-seed{seed}-trace{trace}"
    if trace:
        spans = [[p_no, job, k, *span] for p_no, p in enumerate(done)
                 for job, job_spans in p.spans.items()
                 for k, span in enumerate(job_spans)]
        with open(base / "traces" / f"{workload.name}-seed{seed}.json", "w") as fh:
            json.dump({"columns": ["pass", "job", "span", "name", "parent",
                                   "start", "end", "attrs"], "spans": spans}, fh)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "why": workload.why,
              "layer_map": LAYER_MAP, "run_s": time.monotonic() - started,
              "passes": [{k: v for k, v in vars(p).items() if k != "spans"}
                         for p in done],
              "result": result}
    with open(base / "results" / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "hibiring" / "__init__.py").is_file():
        print(f"error: no hibiring package under {root / 'src'}",
              file=sys.stderr)
        return 1
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    result = run_benchmark(root, WORKLOADS[args.workload], args.seed,
                           args.seconds, args.trace, units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
