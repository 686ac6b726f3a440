"""roadtwin benchmark: seeded inputs, real CLI child processes, checked outputs.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client: one child process at a time,
``ROADTWIN_THREADS=1``):

    embed-city       ``embed`` on an 80x80-junction grid, 16 sensors, no traffic
    loo-city         ``benchmark`` on a 40x40 grid, 24 sensors x 90 days
    profile-history  ``profile --day-filter all`` on 12 sensors x 365 days

``--trace 0`` times ``python -m roadtwin`` invocations and fresh imports
of ``roadtwin.cli`` for ``--seconds``, interleaved with runs of the fixed
``probe.py``, and prints the end-to-end metrics in reference seconds
(see ``timed_run``).  ``--trace 1`` runs the same inputs through
``traced_cli.py`` with span wrappers, alternating with unwrapped runs to
measure the tracing overhead, and prints the per-layer metrics.  Every
invocation's outputs are checked and must be byte-identical within the
run; any failure makes the command exit 1.  The last line of standard
output is one JSON object with the result.  See DESIGN.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import checks
import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_LIMIT_S = 170.0  # every run must finish within 180 s
PROBE = os.path.join(HERE, "probe.py")
REFERENCE_PROBE_S = 1.0  # a reference second is the time probe.py takes at reference speed
IMPORT_SAMPLES = 3
MIN_INVOCATIONS = 3


@dataclass(frozen=True)
class Workload:
    spec: gen.CitySpec
    argv: tuple[str, ...]
    check: Callable[[str, list[str], str], list[str]]  # (out dir, sensor ids, hash) -> problems


WORKLOADS = {
    # graph layer: the 2 km radius covers ~16% of the map; traffic idle
    "embed-city": Workload(gen.CitySpec(80, 16, 0, sensor_margin_m=2000.0), ("embed",),
                           checks.check_embed),
    # the only user of selection, generation and the rank tests; sensors
    # stay 1 km inside the map so that the seed barely moves graph sizes
    "loo-city": Workload(gen.CitySpec(40, 24, 90, sensor_margin_m=1000.0), ("benchmark",),
                         checks.check_loo),
    # traffic layer with few long series; graph layer and scipy.stats idle
    "profile-history": Workload(gen.CitySpec(0, 12, 365), ("profile", "--day-filter", "all"),
                                checks.check_profile),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_for(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if name.startswith("self_ms.") or last.startswith("ms") and last != "ms_per_krow":
        return "ms"
    return {
        "ms_per_krow": "ms/krow",
        "calls_per_position": "calls/position",
        "bytes_written": "B",
        "radius_node_share": "ratio",
        "overhead_frac": "ratio",
        "error_rate": "ratio",
        "probe_s": "s",
    }.get(last, "count")


PER_LAYER_NAMES = (
    ["error_rate", "import.roadtwin_cli.ms", "import.scipy_stats.ms", "reference.probe_s",
     "trace.overhead_frac"]
    + list(spans.layer_metrics([]))
)


class Runner:
    """Spawns children one at a time and keeps the run's tallies."""

    def __init__(self, work: str, cwd: str, deadline: float):
        self.work = work
        self.cwd = cwd
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC, ROADTWIN_THREADS="1")
        self.attempted = 0
        self.failed = 0
        self.reference = None  # digest of the first checked outputs
        self._logs = 0

    def spawn(self, cmd: list[str]) -> tuple[int, float, int, str]:
        """(exit code, wall s, peak RSS KiB, log text) of one child."""
        self._logs += 1
        log_path = os.path.join(self.work, f"child-{self._logs}.log")
        limit = max(1.0, self.deadline - time.monotonic())
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.cwd, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        return proc.returncode, wall, usage.ru_maxrss, text

    def timed_child(self, cmd: list[str], what: str) -> float:
        """Wall seconds of a helper child that must succeed."""
        code, wall, _, log = self.spawn(cmd)
        if code:
            raise RuntimeError(f"{what} failed with exit code {code}: {log.strip()[-400:]}")
        return wall

    def invocation(self, cmd: list[str], out_dir: str, check) -> tuple[float, int, bool]:
        """Run one CLI command writing to out_dir and check what it wrote."""
        code, wall, rss, log = self.spawn(cmd)
        problems = [f"exit code {code}: {log.strip()[-400:]}"] if code else []
        if not problems:
            problems = check(out_dir)
        if not problems:
            d = checks.digest(out_dir)
            if self.reference is None:
                self.reference = d
            elif d != self.reference:
                problems = [f"outputs differ from the first invocation (sha256 {d})"]
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"  FAILED invocation {self.attempted}: " + "; ".join(problems[:5]))
        return wall, rss, not problems


def config_hash(runner: Runner, config_flags: dict) -> str:
    """The program's own hash of the workload config (also warms bytecode caches)."""
    code = (
        "import json, sys\n"
        "from roadtwin.config import load_config\n"
        "print(load_config(None, json.loads(sys.argv[1])).config_hash())\n"
    )
    rc, _, _, text = runner.spawn([sys.executable, "-c", code, json.dumps(config_flags)])
    if rc:
        raise RuntimeError(f"cannot compute the config hash: {text.strip()[-400:]}")
    return text.strip().splitlines()[-1]


def parse_importtime(text: str) -> tuple[float, float]:
    """Cumulative ms of ``roadtwin.cli`` and of ``scipy.stats`` in -X importtime output.

    ``from scipy import stats`` goes through scipy's lazy loader, which
    logs no line for ``scipy.stats`` itself, only for its submodules; so
    the scipy.stats cost is the sum over outermost ``scipy.stats*`` lines
    (importtime lists children before their parent, one indent deeper).
    """
    entries = []  # (name, cumulative ms, depth)
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in parts[1]:
            continue
        name = parts[2].strip()
        entries.append((name, int(parts[1]) / 1000.0, len(parts[2]) - len(parts[2].lstrip())))
    parent = [None] * len(entries)
    pending: list[int] = []
    for i, (_, _, depth) in enumerate(entries):
        while pending and entries[pending[-1]][2] > depth:
            parent[pending.pop()] = i
        pending.append(i)

    def is_stats(name):
        return name == "scipy.stats" or name.startswith("scipy.stats.")

    def outermost_stats(i):
        p = parent[i]
        while p is not None:
            if is_stats(entries[p][0]):
                return False
            p = parent[p]
        return True

    cli_ms = next((ms for name, ms, _ in entries if name == "roadtwin.cli"), 0.0)
    scipy_ms = sum(ms for i, (name, ms, _) in enumerate(entries)
                   if is_stats(name) and outermost_stats(i))
    return cli_ms, scipy_ms


def import_times(runner: Runner) -> tuple[float, float]:
    """Median import ms of roadtwin.cli and scipy.stats over fresh interpreters."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        rc, _, _, text = runner.spawn([sys.executable, "-X", "importtime", "-c",
                                       "import roadtwin.cli"])
        if rc:
            raise RuntimeError(f"import roadtwin.cli failed: {text.strip()[-400:]}")
        samples.append(parse_importtime(text))
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def room_for_another(t0: float, budget: float, done: int, minimum: int) -> bool:
    """True until ``minimum`` iterations ran and one more of average length
    would end later than ``budget`` seconds after ``t0``."""
    if done < minimum:
        return True
    elapsed = time.monotonic() - t0
    return elapsed + elapsed / done <= budget


def timed_run(runner: Runner, cli_argv: list[str], check, seconds: float) -> dict:
    """Cycles of probe, fresh import, probe, CLI invocation, probe for ``seconds``.

    Times are reported in reference seconds: the median raw time divided
    by the mean probe time of the same run, times REFERENCE_PROBE_S.  The
    probe estimates the machine's average speed over the run, so all of
    its time counts; the program's times take the median, which resists
    a slow spell.  The probe gets about as much time as the CLI, because
    its own noise adds to the ratio's.
    """
    probe_cmd = [sys.executable, PROBE]
    probes, setup, walls, rss = [], [], [], []
    start = time.monotonic()
    while room_for_another(start, seconds, len(walls), MIN_INVOCATIONS):
        probes.append(runner.timed_child(probe_cmd, "reference probe"))
        setup.append(runner.timed_child([sys.executable, "-c", "import roadtwin.cli"],
                                        "import roadtwin.cli"))
        probes.append(runner.timed_child(probe_cmd, "reference probe"))
        out_dir = os.path.join(runner.work, f"out-{runner.attempted}")
        wall, peak, ok = runner.invocation(
            [sys.executable, "-m", "roadtwin", *cli_argv, "--output_dir", out_dir], out_dir, check
        )
        probes.append(runner.timed_child(probe_cmd, "reference probe"))
        walls.append(wall)
        rss.append(peak / 1024.0)
        print(f"  cycle {len(walls)}: probes {', '.join(f'{p:.3f}' for p in probes[-3:])} s, "
              f"import {setup[-1]:.3f} s, cli {wall:.3f} s, {peak / 1024.0:.1f} MB, "
              f"{'ok' if ok else 'FAILED'}")
    probe_s = statistics.mean(probes)
    scale = REFERENCE_PROBE_S / probe_s
    print(f"  raw: probe mean {probe_s:.3f} s, import median {statistics.median(setup):.3f} s, "
          f"cli median {statistics.median(walls):.3f} s")
    return {
        "wall_s": statistics.median(walls) * scale,
        "setup_s": statistics.median(setup) * scale,
        "peak_rss_mb": statistics.median(rss),
    }


def traced_run(runner: Runner, cli_argv: list[str], check, seconds: float) -> dict:
    """Import timings, one plain CLI run, then traced/untraced pairs for ``seconds``."""
    start = time.monotonic()
    cli_ms, scipy_ms = import_times(runner)
    # reference outputs come from a plain untraced CLI run
    out_dir = os.path.join(runner.work, "out-plain")
    runner.invocation([sys.executable, "-m", "roadtwin", *cli_argv, "--output_dir", out_dir],
                      out_dir, check)
    cpu = {0: [], 1: []}
    layer_runs, probes = [], []
    order = (1, 0)
    loop_start = time.monotonic()
    while room_for_another(loop_start, seconds - (loop_start - start), len(probes), 1):
        probes.append(runner.timed_child([sys.executable, PROBE], "reference probe"))
        for wrap in order:
            out_dir = os.path.join(runner.work, f"out-{runner.attempted}")
            result_path = os.path.join(runner.work, f"result-{runner.attempted}.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), "--wrap", str(wrap),
                   "--out", result_path, "--", *cli_argv, "--output_dir", out_dir]
            _, _, ok = runner.invocation(cmd, out_dir, check)
            if not ok:
                continue
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
            cpu[wrap].append(result["cpu_s"])
            if wrap:
                layer_runs.append(spans.layer_metrics(result["spans"]))
        order = order[::-1]
    print(f"  traced cpu (s): {cpu[1]}; untraced cpu (s): {cpu[0]}")
    if not (layer_runs and cpu[0]):
        raise RuntimeError("no traced invocation succeeded")
    metrics = spans.median_metrics(layer_runs)
    metrics["import.roadtwin_cli.ms"] = cli_ms
    metrics["import.scipy_stats.ms"] = scipy_ms
    metrics["reference.probe_s"] = statistics.mean(probes)
    # the fastest run of each side is the one least slowed by the machine
    metrics["trace.overhead_frac"] = min(cpu[1]) / min(cpu[0]) - 1.0
    own = sorted(((v, k[len("self_ms."):]) for k, v in metrics.items() if k.startswith("self_ms.")),
                 reverse=True)
    print("  self time (ms, median of traced invocations):")
    for v, name in own[:8]:
        print(f"    {v:10.1f}  {name}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="roadtwin benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "roadtwin", "cli.py")):
        print(f"roadtwin sources not found under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    try:
        summary = gen.generate(inputs, workload.spec, args.seed)
        runner = Runner(work, inputs, deadline)
        flags = [x for k, v in sorted(summary["config"].items()) for x in (f"--{k}", v)]
        cli_argv = [*workload.argv, *flags]
        chash = config_hash(runner, summary["config"])

        def check(out_dir):
            return workload.check(out_dir, summary["sensor_ids"], chash)

        print(f"{args.workload} seed={args.seed}: python -m roadtwin {' '.join(cli_argv)}")
        print("  inputs: " + ", ".join(f"{k}={v}" for k, v in sorted(summary.items())
                                       if k not in ("sensor_ids", "config")))
        if args.trace:
            values = traced_run(runner, cli_argv, check, args.seconds)
        else:
            values = timed_run(runner, cli_argv, check, args.seconds)
        error_rate = runner.failed / runner.attempted
        print(f"  output sha256: {runner.reference}")
        print(f"  error_rate: {error_rate:g} ({runner.failed} of {runner.attempted} failed)")
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values["error_rate"] = error_rate
        metrics = {k: {"value": values[k], "unit": unit_for(k)} for k in PER_LAYER_NAMES}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
