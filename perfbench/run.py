"""eacsim benchmark: run one workload through the CLI, check it, report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload datasets --seed 1 --seconds 20 --trace 0

Load is a closed loop with one client: one worker process at a time runs the
workload's commands one after another through ``eacsim.cli.main(argv)``
(see ``workloads.py``).  Every pass starts a fresh interpreter, because
every CLI call pays interpreter start, the ``eacsim.cli`` import and
first-call costs.  Passes repeat until ``--seconds`` have been spent.

With ``--trace 0`` the end-to-end metrics are reported:
  setup_s      median time from launching a fresh interpreter until
               ``eacsim.cli`` is imported (one sample per launch)
  wall_norm_s  median wall time of one pass, set-up excluded
  peak_rss_mb  median peak RSS of the process that ran a pass
Both times are rescaled to a nominal host speed measured by reference
blocks the worker times beside the commands (see ``speed.py``); the raw
times are printed in the report lines.
With ``--trace 1`` traced passes alternate with untraced ones and the
per-layer metrics of the traced passes are reported (see ``tracer.py``);
``trace.overhead_s`` is the traced minus the untraced median of the
rescaled pass time.

A pass whose outputs are byte-identical to those of a pass that passed
every check is correct too, so only the first pass of a run (and any pass
that differs) is checked in full.

Every command's output is checked (``checks.py``).  A failed command -- an
unexpected exit code, a traceback or a failed output check -- counts in
``failed``; the fail ratio is failed / attempted.  The report lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_PASSES = 3         # untraced passes per run, whatever --seconds says
MIN_TRACE_PAIRS = 2    # (untraced, traced) pairs per traced run
MIN_SETUP_SAMPLES = 6  # set-up-only launches top the sample count up to this
RUN_LIMIT_S = 170.0    # a run must end within 180 s


def environment(seed: int) -> dict:
    """What the figures were measured on and with."""
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():  # never report the commit of an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "eacsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Runner:
    """Launches passes of one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.commands = workloads.commands(workload, seed)
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []      # rescaled like the passes (see speed.py)
        self.setup_raw_s: list[float] = []
        self.verified: set[str] = set()  # digests of passes whose outputs passed every check
        self.checked = 0
        self.identical = 0
        self._passes = 0

    def launch(self, commands, trace: bool, workdir: Path):
        """One worker: returns (set-up seconds, report, error); None where missing."""
        env = {k: v for k, v in os.environ.items() if k != "EACSIM_OUT_DIR"}
        argv = [sys.executable, str(WORKER), str(SRC), "1" if trace else "0",
                json.dumps([list(c.argv) for c in commands])]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, None, "worker timed out"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready":
            return None, None, f"worker did not start: {err.strip()[-2000:]}"
        if not out.strip():
            return setup, None, f"worker died: {err.strip()[-2000:]}"
        return setup, json.loads(out.strip().splitlines()[-1]), None

    def setup_only(self) -> None:
        """A launch that imports eacsim.cli and runs nothing but reference blocks."""
        setup, report, error = self.launch([], False, ROOT)
        if report is not None:
            self.add_setup(setup, report)
        elif error:
            self.problems.append(error)

    def add_setup(self, seconds: float, report: dict) -> None:
        """Record a launch's set-up time; set the scale for its pass (see speed.py)."""
        report["scale"] = speed.NOMINAL_BLOCK_S / report["block_s"]
        self.setup_raw_s.append(seconds)
        self.setup_s.append(seconds * speed.NOMINAL_BLOCK_S / report["first_block_s"])

    def run_pass(self, trace: bool) -> dict | None:
        """One checked pass; returns the worker's report when it completed."""
        self._passes += 1
        workdir = WORK / f"{os.getpid()}-{self._passes}"
        workdir.mkdir(parents=True)
        try:
            for command in self.commands:
                if command.sweep is not None:
                    config = command.argv[command.argv.index("--config") + 1]
                    (workdir / config).write_text(workloads.sweep_text(command.sweep))
            inputs = set(os.listdir(workdir))
            setup, report, error = self.launch(self.commands, trace, workdir)
            self.attempted += len(self.commands)
            if report is None:
                self.failed += len(self.commands)
                self.problems.append(error)
                return None
            self.add_setup(setup, report)
            report["outputs"], digest = read_outputs(workdir, inputs, report["commands"])
            if digest in self.verified:  # byte-identical to a pass that passed every check
                self.identical += 1
                return report
            self.checked += 1
            bad = 0
            for command, result in zip(self.commands, report["commands"]):
                found = checks.check_command(command.argv, result, workdir, command.sweep)
                if found:
                    bad += 1
                    self.problems.extend(found[:3])
            self.failed += bad
            if not bad:
                self.verified.add(digest)
            return report
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def read_outputs(workdir: Path, inputs: set, results: list) -> tuple[dict, str]:
    """Bytes and records the commands wrote (CSV and circuit headers excluded),
    and a digest of everything the checks read: files, exit codes, stdout, stderr."""
    written = rows = 0
    digest = hashlib.sha256(json.dumps(
        [[r["argv"], r["rc"], r["stdout"], r["stderr"], r["traceback"]] for r in results]
    ).encode())
    for path in sorted(workdir.iterdir()):
        if path.name in inputs or not path.is_file():
            continue
        data = path.read_bytes()
        digest.update(f"\0{path.name}\0{len(data)}\0".encode() + data)
        written += len(data)
        rows += data.count(b"\n") - (path.suffix in (".csv", ".txt"))
    return {"cli.bytes_written": written, "cli.rows_written": rows}, digest.hexdigest()


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "B" if ".bytes_" in name else "count"


def median(values):
    return statistics.median(values) if values else 0.0


def describe(name, values, unit):
    if not values:
        return f"# {name}: no samples"
    return (f"# {name}: median {median(values):.6g} {unit}  (n={len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g})")


def measure(runner: Runner, seconds: float, trace: bool):
    """Passes until ``seconds`` are spent; returns (untraced, traced) reports."""
    start = time.perf_counter()
    plain, traced = [], []
    cycles = 0
    while True:
        elapsed = time.perf_counter() - start
        done = len(plain) >= MIN_PASSES if not trace else \
            min(len(plain), len(traced)) >= MIN_TRACE_PAIRS
        if cycles and done and elapsed + elapsed / cycles > seconds:
            break
        if time.perf_counter() > runner.deadline - 5:
            break
        report = runner.run_pass(False)
        if report is not None:
            plain.append(report)
        if trace:
            report = runner.run_pass(True)
            if report is not None:
                traced.append(report)
        cycles += 1
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eacsim" / "cli.py").is_file():
        print(f"error: no eacsim sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, time.perf_counter() + RUN_LIMIT_S)
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(args.seed)))
    print("# load: closed loop, 1 client, commands run one after another in one "
          "fresh interpreter per pass")
    runner.setup_only()  # warm the page cache and the bytecode cache
    runner.setup_s.clear()
    runner.setup_raw_s.clear()
    plain, traced = measure(runner, args.seconds, args.trace == 1)
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()

    fail_ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"# fail_ratio: {runner.failed}/{runner.attempted} = {fail_ratio:.6g}")
    print(f"# checks: {runner.checked} passes checked in full, {runner.identical} "
          f"byte-identical to a pass that passed every check")
    for problem in runner.problems[:20]:
        print("# FAILED " + problem.replace("\n", "\n#   "))
    walls = [r["wall_s"] for r in plain]
    norms = [r["wall_s"] * r["scale"] for r in plain]
    if args.trace == 0:
        while len(runner.setup_s) < MIN_SETUP_SAMPLES \
                and time.perf_counter() < runner.deadline - 10:
            runner.setup_only()
        metrics = {
            "setup_s": (runner.setup_s, "s"),
            "wall_norm_s": (norms, "s"),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in plain], "MB"),
        }
        for name, (values, unit) in metrics.items():
            print(describe(name, values, unit))
        print(describe("setup_s raw", runner.setup_raw_s, "s"))
        print(describe("wall_s raw", walls, "s"))
        print(describe("reference block", [r["block_s"] for r in plain], "s") +
              f"  (nominal {speed.NOMINAL_BLOCK_S:g} s)")
        per_command = zip(*[[c["seconds"] for c in r["commands"]] for r in plain])
        for command, times in zip(runner.commands, per_command):
            print(describe(" ".join(command.argv), list(times), "s"))
    else:
        metrics = {}
        for report in traced:
            report["layers"].update(report["outputs"])
            report["layers"]["encoder.synth_failed"] = sum(
                c["rc"] == 3 for c in report["commands"])
        for name in traced[0]["layers"] if traced else []:
            metrics[name] = ([r["layers"][name] for r in traced], unit_of(name))
        overhead = median([r["wall_s"] * r["scale"] for r in traced]) - median(norms)
        metrics["trace.overhead_s"] = ([overhead], "s")
        print(describe("wall_norm_s untraced", norms, "s"))
        print(describe("wall_norm_s traced", [r["wall_s"] * r["scale"] for r in traced], "s"))
        for name, (values, unit) in metrics.items():
            print(describe(name, values, unit))
        if traced:
            layers = ("statevector", "states", "encoder", "protocol", "channel", "markov", "cli")
            key = {layer: f"{layer}.{'self_s' if layer == 'cli' else 'busy_s'}"
                   for layer in layers}
            shares = {layer: median(metrics[key[layer]][0]) for layer in layers}
            total = sum(shares.values()) or 1.0
            top = max(shares, key=shares.get)
            print(f"# dominant layer: {top} ({100 * shares[top] / total:.1f}% of traced "
                  f"layer time)")
            for name, own, calls in traced[-1]["top_functions"]:
                print(f"#   {name}: self {own:.4f} s over {calls} calls")

    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": median(values), "unit": unit}
                    for name, (values, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
