"""heliumjcm benchmark: runs one workload through the command line and reports
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).

Run it from the root of a source checkout::

    python3 perfbench/run.py --workload map-coupling --seed 1 --seconds 30 --trace 0

The package is not installed: every CLI child runs ``python -m heliumjcm.cli``
with ``PYTHONPATH=src`` and with every ``*_NUM_THREADS`` variable removed, so
BLAS runs at the library default. A run

1. writes the workload's seeded INI files to a temporary directory under
   ``.perfbench/``;
2. times ``heliumjcm validate`` on them several times (``setup_s``);
3. repeats the workload, one CLI child at a time, until ``--seconds`` is spent,
   and checks every invocation's outputs (``checks.py``);
4. with ``--trace 1``, runs the workload once more in-process through
   ``heliumjcm.cli.main`` with the wrappers of ``tracer.py`` installed.

A human-readable summary (median, quartiles and sample count of each metric,
the environment block and, for the default seed, the deviation from the
committed reference outputs) goes to stderr and to a report file under
``.perfbench/``. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os
import sys

# Children and the traced run both use the BLAS default thread count, so no
# thread-count variable may reach numpy: re-execute without them before numpy
# is imported.
if any(key.endswith("_NUM_THREADS") for key in os.environ):
    os.execve(sys.executable, [sys.executable] + sys.argv,
              {k: v for k, v in os.environ.items()
               if not k.endswith("_NUM_THREADS")})

import argparse
import contextlib
import io
import json
import shutil
import signal
import statistics
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference", "seed0-full.json")
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "config.load_s": "s",
    "vertical.solve_count": "count",
    "vertical.solve_s": "s",
    "coupled.assemble_count": "count",
    "coupled.assemble_s": "s",
    "coupled.eigh_count": "count",
    "coupled.eigh_s": "s",
    "coupled.eigh_ms_per_call": "ms",
    "coupled.eigh_unique_ratio": "ratio",
    "coupled.eigvec_used_ratio": "ratio",
    "coupled.locate_count": "count",
    "coupled.locate_s": "s",
    "coupled.dominant_count": "count",
    "coupled.dominant_s": "s",
    "coupled.minimum_gap_self_s": "s",
    "analytics.shift_self_s": "s",
    "spectroscopy.pixel_count": "count",
    "spectroscopy.initial_states_count": "count",
    "spectroscopy.lines_count": "count",
    "spectroscopy.catalog_self_s": "s",
    "spectroscopy.lines_deposited_ratio": "ratio",
    "spectroscopy.map_self_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "bytes",
    "cli.write_csv_s": "s",
    "cli.sidecar_bytes": "bytes",
    "cli.write_sidecar_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (no program, a broken set-up,
    the time limit)."""


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float


def launch(argv: list[str], env: dict, log_path: str, deadline: float) -> Child:
    """Run one CLI child to completion; wall time from launch to reaping,
    CPU and max RSS from its rusage."""
    remaining = deadline - time.monotonic()
    if remaining <= 0.0:
        raise BenchmarkError("time limit reached")
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    if proc.returncode < 0:
        raise BenchmarkError(f"{' '.join(argv[3:5])} killed by signal "
                             f"{-proc.returncode} (time limit or external)")
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = SRC
    return env


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "heliumjcm.cli", *args]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, size: str, tmp: str):
        import checks

        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.size = size
        self.tmp = tmp
        self.nproc = len(os.sched_getaffinity(0))
        self.invocations = workload.invocations(seed, size)
        self.env = child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.config_paths = []
        for index, inv in enumerate(self.invocations):
            path = os.path.join(tmp, f"{index}-{inv.task}.cfg")
            with open(path, "w") as fh:
                fh.write(inv.ini())
            self.config_paths.append(path)
        self.points = sum(inv.points for inv in self.invocations)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_values: dict = {}
        self._verticals: dict = {}

    def threads(self, inv) -> int:
        return min(inv.threads, self.nproc)

    def setup_once(self) -> float:
        total = 0.0
        for path in self.config_paths:
            child = launch(cli_argv("validate", "--config", path), self.env,
                           os.path.join(self.tmp, "setup.log"), self.deadline)
            if child.exit_code != 0:
                raise BenchmarkError(
                    f"validate failed on {os.path.basename(path)} with code "
                    f"{child.exit_code}; see the log:\n"
                    + _tail(os.path.join(self.tmp, "setup.log")))
            total += child.wall_s
        return total

    def repetition(self, index: int) -> dict:
        out_dir = os.path.join(self.tmp, f"out-{index}")
        os.makedirs(out_dir)
        children = []
        start = time.perf_counter()
        for inv, path in zip(self.invocations, self.config_paths):
            children.append(launch(
                cli_argv(inv.task, "--config", path, "--out", out_dir,
                         "--threads", str(self.threads(inv))),
                self.env, os.path.join(self.tmp, f"run-{index}.log"),
                self.deadline))
        wall = time.perf_counter() - start
        if any(c.exit_code not in (0, 3) for c in children):
            self.problems.append(_tail(os.path.join(self.tmp, f"run-{index}.log")))
        self.check_outputs(out_dir, [c.exit_code for c in children],
                           keep_reference=(index == 0))
        shutil.rmtree(out_dir)
        return {
            "wall_s": wall,
            "points_per_s": self.points / wall,
            "cpu_s": sum(c.cpu_s for c in children),
            "peak_rss_mb": max(c.max_rss_mb for c in children),
        }

    def check_outputs(self, out_dir: str, exit_codes: list[int],
                      keep_reference: bool = False) -> None:
        for inv, code in zip(self.invocations, exit_codes):
            result = self.checks.check_invocation(inv, out_dir, code,
                                                  self._vertical(inv))
            self.attempted += inv.points
            self.failed += len(result.failed)
            self.problems.extend(result.problems)
            if keep_reference and code == 0:
                self.reference_values.update(
                    self.checks.reference_values(inv, out_dir))

    def _vertical(self, inv):
        if inv.task == "absorption-map":
            return None
        key = (inv.sections["fields"]["e_perp_v_cm"], inv.basis()[0])
        if key not in self._verticals:
            self._verticals[key] = self.checks.vertical_for(inv)
        return self._verticals[key]

    def measure(self, seconds: float) -> list[dict]:
        reps = []
        start = time.perf_counter()
        while True:
            reps.append(self.repetition(len(reps)))
            elapsed = time.perf_counter() - start
            if elapsed + reps[-1]["wall_s"] > seconds:
                return reps

    def traced(self) -> tuple[float, object]:
        """One in-process pass under the tracer; returns (wall, tracer)."""
        from heliumjcm import cli
        from tracer import Tracer

        out_dir = os.path.join(self.tmp, "out-traced")
        os.makedirs(out_dir)
        tracer = Tracer()
        codes = []
        wall = 0.0
        with tracer.installed():
            for inv, path in zip(self.invocations, self.config_paths):
                argv = [inv.task, "--config", path, "--out", out_dir,
                        "--threads", str(self.threads(inv))]
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    codes.append(cli.main(argv))
                    wall += time.perf_counter() - start
        self.check_outputs(out_dir, codes)
        shutil.rmtree(out_dir)
        return wall, tracer


def environment(run: Run) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": run.nproc,
        "cli_threads": {inv.task: run.threads(inv) for inv in run.invocations},
        "seed": run.seed,
        "size": run.size,
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked of the library."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _tail(path: str, lines: int = 12) -> str:
    try:
        with open(path, errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])
    except OSError:
        return ""


def summarize(samples: dict[str, list[float]]) -> dict[str, dict]:
    out = {}
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        out[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    return out


def report(run: Run, stats: dict, layers: dict | None, env: dict,
           deviation: dict | None) -> str:
    lines = [f"perfbench {run.workload.name}: seed {run.seed}, size {run.size}, "
             f"{run.points} field points per repetition"]
    for name, s in stats.items():
        unit = END_TO_END_UNITS[name]
        lines.append(f"  {name:<16} {s['median']:.6g} {unit}  "
                     f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n = {s['n']})")
    fraction = run.failed / run.attempted if run.attempted else 0.0
    lines.append(f"  {'failed_fraction':<16} {fraction:.6g} fraction  "
                 f"({run.failed} of {run.attempted} points)")
    if layers:
        lines.append("  per layer (traced run):")
        for name, value in layers.items():
            lines.append(f"    {name:<36} {value:.6g} {LAYER_UNITS[name]}")
    lines.append("  environment: " + json.dumps(env, sort_keys=True))
    if deviation is not None:
        lines.append("  largest deviation from the reference outputs "
                     "(diagnostic):")
        for name, value in deviation.items():
            lines.append(f"    {name:<36} {value}")
    for problem in run.problems[:10]:
        lines.append("  problem: " + problem.strip())
    return "\n".join(lines)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a reduced basis and grid that runs in "
                             "seconds, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "heliumjcm", "cli.py")):
        print(f"error: no heliumjcm sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.size, tmp)
        setup = [run.setup_once() for _ in range(SETUP_SAMPLES)]
        reps = run.measure(args.seconds)
        samples = {name: [r[name] for r in reps]
                   for name in ("wall_s", "points_per_s", "cpu_s",
                                "peak_rss_mb")}
        samples["setup_s"] = setup
        stats = summarize(samples)
        layers = None
        spans = None
        if args.trace:
            traced_wall, tracer = run.traced()
            layers = tracer.layer_metrics()
            layers["process.cpu_per_wall"] = (stats["cpu_s"]["median"]
                                              / stats["wall_s"]["median"])
            layers["trace.overhead_ratio"] = (traced_wall
                                              / stats["wall_s"]["median"])
            spans = tracer.spans_json()
        env = environment(run)
        deviation = None
        if (args.seed == DEFAULT_SEED and args.size == "full"
                and os.path.isfile(REFERENCE)):
            with open(REFERENCE) as fh:
                reference = json.load(fh).get(args.workload, {})
            deviation = run.checks.reference_deviation(run.reference_values,
                                                       reference)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    text = report(run, stats, layers, env, deviation)
    print(text, file=sys.stderr)
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-"
                              f"{args.size}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"summary": text, "stats": stats, "samples": samples,
                   "layers": layers, "environment": env,
                   "reference_deviation": deviation, "spans": spans}, fh)

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
