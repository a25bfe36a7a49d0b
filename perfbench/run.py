#!/usr/bin/env python3
"""msnlib benchmark: one seeded workload per run, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chains --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): chains, closed-forms, cli, and battery,
which BENCHMARK.json does not list (see below).  A run builds the
workload's inputs from the seed, then repeats passes over the workload's
fixed job list for at least the workload's minimum number of passes, and
until ``--seconds`` have passed; after the minimum, a pass may stop at the
deadline.  Load comes from this one process:
in-process jobs run one at a time, and CLI jobs run one subprocess at a
time in a closed loop with one client.  Outside the timed region, every
output is checked against an independent route; a job fails when it
raises, exits with the wrong code or returns a wrong exact value.

Timings are scaled to one host speed.  On a 2-core Intel Xeon virtual
machine shared with other tenants, a fixed 25 ms job ran between full
speed and about 1.8 times slower, in spells of seconds to minutes, and a
spell could cover a whole run.  So a reference routine that does not
involve msnlib is timed next to every job (see HostSpeed): Fraction
arithmetic in this process for the in-process workloads, a fresh
interpreter importing standard-library modules for CLI calls and set-up
probes.  Each sample is scaled by the reference's nominal time over its
median time around the sample, and a job's latency is the median of its
scaled samples.  Over six 30-second runs of the chains job mix on that
machine, the quartile spread across runs, as a share of the median, was
15% (pass total), 19% (job median) and 21% (74th percentile) unscaled,
and 4%, 4% and 3% scaled; over six of the CLI mix, 14%, 14% and 12%
unscaled, and 6%, 2% and 3% scaled.  The detail line keeps the unscaled
pass total and the references' own times.

The battery workload runs one 6-10 s library call per pass, so a run of
a few tens of seconds times each identity only three or four times; it
stays runnable for its per-layer numbers (``--trace 1`` reads 119665
identity cases) but is not one of BENCHMARK.json's workloads.

``--trace 0`` reports the end-to-end metrics:

* setup_s: the median of several fresh interpreters, spread over the run,
  that each do a cold ``import msnlib`` and build the inputs, each scaled
  by the subprocess reference timed just before and after it;
* wall_s: the sum of the job latencies, the time one pass over the job list
  takes;
* job_p50_s, job_p90_s: the median job latency, and the 90th percentile,
  or the highest percentile with at least ten jobs beyond it when a pass
  has fewer than 100 jobs (the detail line names it);
* pass_ratio: jobs that passed the gate over jobs attempted;
* peak_rss_mb: peak resident memory of the process that ran the jobs (for
  cli, the largest CLI subprocess).

``--trace 1`` alternates untraced and traced passes.  It reports per-layer
self times and counts per traced pass (see tracing.py), msnlib's and
numpy's import times from ``python -X importtime``, and the tracing
overhead: traced wall_s minus untraced wall_s.  ``--smoke`` shrinks every
workload to tiny sizes.

The second-to-last line of output is a JSON detail record (environment,
sample counts, output digest, known CLI defects); the last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import hashlib
import importlib.util
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 9
IMPORT_PROBES = 3

# Host-speed references: neither involves msnlib, so no change to the
# library moves them.  The nominal times are about what each takes on the
# machine described above when no neighbour contends for its cores.
FRACTION_NOMINAL_S = 460e-6
SPAWN_REFERENCE = ["-c", "import argparse, decimal, fractions, json"]
SPAWN_NOMINAL_S = 45e-3
REF_WINDOW_S = 1.0


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples: int) -> int:
    """90, or the highest percentile with at least ten samples beyond it,
    but not below the median."""
    return max(50, min(90, math.floor(100 * (samples - 10) / samples)))


def percentile(values, q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def environment(seed: int) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


_BIG = [Fraction(3 ** (200 + i) + i, 7 ** (120 + i) + 2 * i + 1) for i in range(8)]


def fraction_reference():
    """In-process reference: Fraction arithmetic on small integers, whose
    cost is mostly the interpreter's, then on integers of 300 to 700 bits,
    whose cost is mostly integer arithmetic; the in-process workloads mix
    the two.  With either part alone, the scaled pass total of the chains
    workload still spread by 7-14% from run to run."""
    x = Fraction(1, 3)
    for i in range(60):
        x = x * Fraction(i + 2, i + 1) + Fraction(1, i + 7)
    y = _BIG[0]
    for i in range(12):
        y = y * _BIG[(i + 1) % 8] + _BIG[(i + 3) % 8]
        y = Fraction(y.numerator % (1 << 700) + 1, y.denominator % (1 << 690) + 3)


def spawn_reference():
    """Subprocess reference: a fresh interpreter that imports a few
    standard-library modules, the kind of work a CLI call mostly does."""
    subprocess.run([sys.executable, *SPAWN_REFERENCE], check=True)


class HostSpeed:
    """Times of a reference routine over a run, to put every timing on one
    host speed.

    The host's speed drifts by up to 1.8 times over seconds to minutes, and
    a reference routine slows with it.  A timing taken from `start` to
    `end` is scaled by the nominal reference time over the median reference
    time measured within REF_WINDOW_S of it: the result estimates what the
    timing would be on a host that runs the reference in its nominal time.
    """

    def __init__(self, routine, nominal_s: float):
        self.routine = routine
        self.nominal_s = nominal_s
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self):
        t0 = time.perf_counter()
        self.routine()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + REF_WINDOW_S)
        # a battery identity that did not run has no probe near its start
        return self.nominal_s / median(self.took[lo:hi] or self.took)

    def summary(self) -> dict:
        return {"probes": len(self.took), "nominal_s": self.nominal_s,
                "median_s": median(self.took), "min_s": min(self.took, default=0.0)}


def measure_setup(workload: str, seed: int, smoke: bool, workdir: str, spawn: HostSpeed) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports msnlib and builds the
    workload's inputs, then exits; returns (raw, scaled) seconds, scaled
    by spawn-reference probes taken just before and just after."""
    from workloads import child_env

    sub = os.path.join(workdir, "probe")
    os.makedirs(sub)
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed), "1" if smoke else "0", sub]
    spawn.probe()
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, env=child_env(), stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    spawn.probe()
    shutil.rmtree(sub)
    return elapsed, elapsed * spawn.scale(t0, t0 + elapsed)


def measure_imports(probes: int) -> tuple[float, float]:
    """Cumulative import seconds of msnlib and of numpy, from -X importtime."""
    from workloads import child_env

    found = {"msnlib": [], "numpy": []}
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import msnlib"],
            env=child_env(), capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$", line)
            if match and match.group(2) in found:
                found[match.group(2)].append(int(match.group(1)) / 1e6)
    return min(found["msnlib"]), min(found["numpy"])


class Gate:
    """Checks each job's first output by an independent route, after the
    timed loop; later passes must reproduce the first output exactly."""

    def __init__(self):
        # job name -> [canonical text, job, first output, passes that gave it]
        self.first: dict[str, list] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, job, output, error):
        self.attempted += 1
        if error is None:
            text = job.canon(output)
            seen = self.first.get(job.name)
            if seen is None:
                self.first[job.name] = [text, job, output, 1]
                return
            if text == seen[0]:
                seen[3] += 1
                return
            error = "output differs from the first pass"
        self._fail(job.name, error, 1)

    def finish(self):
        """Run the checks of the first outputs; every pass that reproduced
        a wrong output fails with it."""
        for name, (_, job, output, count) in self.first.items():
            try:
                verdict = job.check(output)
            except Exception as exc:  # noqa: BLE001 - a broken output is a failed job
                verdict = f"check raised {type(exc).__name__}: {exc}"
            if verdict is not None:
                self._fail(name, verdict, count)

    def _fail(self, name: str, error: str, count: int):
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(f"{name}: {error}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.first):
            h.update(f"{name}\n{self.first[name][0]}\n".encode())
        return h.hexdigest()


def run_pass(wl, inp, host: HostSpeed, trace_dir: str | None = None, stop_at: float | None = None) -> list:
    """One pass over the job list, with a host-speed probe before each job;
    returns (job, start, seconds, output, error) per job.  CLI jobs write
    their span summaries into `trace_dir`.  With `stop_at`, no job starts
    after that perf_counter() reading."""
    import workloads

    if wl.run_pass is not None:
        return wl.run_pass(inp, host.probe)
    records = []
    for job in wl.jobs(inp):
        if stop_at is not None and time.perf_counter() >= stop_at:
            break
        host.probe()
        t0 = time.perf_counter()
        try:
            if trace_dir is not None:
                out_file = os.path.join(trace_dir, f"{len(records)}.json")
                output = workloads.run_cli(job.argv, inp["workdir"], out_file)
            else:
                output = job.call()
            error = None
        except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
            output, error = None, f"raised {type(exc).__name__}: {exc}"
        records.append((job, t0, time.perf_counter() - t0, output, error))
    return records


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (detail, result) as printed."""
    import workloads
    from tracing import Tracer, layer_metrics, merge

    wl = workloads.WORKLOADS[name]
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    # environment() counts the cores before the pinning below
    detail = {"workload": name, "seed": seed, "smoke": smoke, "env": environment(seed)}
    affinity = os.sched_getaffinity(0)
    detail["env"]["pinned_cpu"] = min(affinity)
    os.makedirs(workdir)
    # one core for this process, its CLI children and the references, so
    # a reference probe sees the core the timed work runs on
    os.sched_setaffinity(0, {min(affinity)})
    try:
        metrics = {}
        if trace:
            import_s, numpy_s = measure_imports(1 if smoke else IMPORT_PROBES)
            metrics["cli.import_s"] = (import_s, "s")
            metrics["cli.import.numpy_s"] = (numpy_s, "s")
        setup_probes = 0 if trace else 2 if smoke else SETUP_PROBES
        setup = []

        gate = Gate()
        spawn = HostSpeed(spawn_reference, SPAWN_NOMINAL_S)
        host = spawn if wl.subprocess_jobs else HostSpeed(fraction_reference, FRACTION_NOMINAL_S)
        # per job name, its (start, seconds) in each untraced / traced pass
        samples = {False: {}, True: {}}
        summaries = []
        child_peak_kb = 0
        inp = wl.build(seed, smoke, workdir) if wl.subprocess_jobs else None
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes < wl.min_passes or time.perf_counter() < deadline:
            if len(setup) < setup_probes:
                # spread over the run, so one slow spell of the host hits few
                setup.append(measure_setup(name, seed, smoke, workdir, spawn))
            traced = trace and passes % 2 == 1
            tracer = Tracer() if traced and not wl.subprocess_jobs else None
            trace_dir = os.path.join(workdir, f"trace{passes}") if traced and wl.subprocess_jobs else None
            if trace_dir:
                os.makedirs(trace_dir)
            if not wl.subprocess_jobs:
                inp = wl.build(seed, smoke, workdir)
            if tracer:
                tracer.install()
            try:
                # after the minimum, an untraced pass may end at the deadline;
                # traced passes are whole, as layer metrics are per pass
                stop_at = deadline if passes >= wl.min_passes and not trace else None
                records = run_pass(wl, inp, host, trace_dir, stop_at)
            finally:
                if tracer:
                    tracer.uninstall()
            for job, start, job_s, output, error in records:
                gate.record(job, output, error)
                samples[traced].setdefault(job.name, []).append((start, job_s))
                if isinstance(output, workloads.CliOutput):
                    child_peak_kb = max(child_peak_kb, output.maxrss_kb)
            if tracer:
                summaries.append(tracer.summary())
            if trace_dir:
                for entry in sorted(os.listdir(trace_dir)):
                    with open(os.path.join(trace_dir, entry), encoding="utf-8") as fh:
                        summaries.append(json.load(fh))
            passes += 1
        while len(setup) < setup_probes:
            setup.append(measure_setup(name, seed, smoke, workdir, spawn))
        gate.finish()

        def latencies(by_job):
            """Per job, the median of its scaled samples."""
            return [median([s * host.scale(t, t + s) for t, s in times]) for times in by_job.values()]

        best = latencies(samples[False])
        detail["passes"] = passes
        detail["jobs_per_pass"] = len(best)
        detail["host_reference"] = host.summary()
        detail["unscaled_wall_s"] = sum(median([s for _, s in times]) for times in samples[False].values())
        if trace:
            traced_best = latencies(samples[True])
            overhead = sum(traced_best) - sum(best)
            detail["trace"] = {"untraced_wall_s": sum(best), "traced_wall_s": sum(traced_best), "overhead_s": overhead}
            traced_passes = passes // 2
            metrics.update(layer_metrics(merge(summaries), traced_passes))
            metrics["trace.overhead_s"] = (overhead, "s")
        else:
            peak_kb = child_peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            q = tail_percentile(len(best))
            detail["setup_samples_s"] = {"unscaled": [raw for raw, _ in setup], "scaled": [v for _, v in setup]}
            detail["spawn_reference"] = spawn.summary()
            detail["job_p90"] = {"percentile": q, "samples": len(best)}
            metrics["setup_s"] = (median([v for _, v in setup]), "s")
            metrics["wall_s"] = (sum(best), "s")
            metrics["job_p50_s"] = (median(best), "s")
            metrics["job_p90_s"] = (percentile(best, q), "s")
            metrics["pass_ratio"] = ((gate.attempted - gate.failed) / gate.attempted, "ratio")
            metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
        if wl.subprocess_jobs:
            detail["known_defects"] = workloads.probe_known_defects(inp)

        detail["output_sha256"] = gate.digest()
        detail["failures"] = gate.failures
        result = {
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return detail, result
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="msnlib benchmark")
    parser.add_argument("--workload", required=True, choices=("chains", "closed-forms", "cli", "battery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "msnlib", "__init__.py")):
        print(f"perfbench: no msnlib sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile the library and the harness once, as an install does, so
    # that no timed interpreter compiles them (PYTHONDONTWRITEBYTECODE stops
    # interpreters from writing bytecode, not from reading it)
    for path in (os.path.join(SRC, "msnlib"), HERE):
        compileall.compile_dir(path, quiet=1)
    sys.path.insert(0, SRC)
    import msnlib

    if os.path.dirname(os.path.abspath(msnlib.__file__)) != os.path.join(SRC, "msnlib"):
        print(f"perfbench: imported msnlib from {msnlib.__file__}, not {SRC}", file=sys.stderr)
        return 2

    detail, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
