"""One pass of a workload, in a fresh interpreter.

Usage: python3 worker.py <src dir> <trace 0|1> <commands as a JSON list of argv lists>

The worker imports ``eacsim.cli`` first and then prints ``ready``, so the
parent can time interpreter start plus import (the set-up every CLI call
pays).  It then runs the commands one after another through
``eacsim.cli.main(argv)`` in its working directory, where they write their
outputs, and prints one JSON line: the pass wall time, each command's exit
code, captured stdout/stderr and traceback, the process's peak RSS, the
median time of the reference blocks it ran before each command and after
the last one (see ``speed.py``) and, when tracing, the per-layer figures.
"""
import sys

sys.path.insert(0, sys.argv[1])
import eacsim.cli as cli  # noqa: E402  (the import is what set-up measures)

print("ready", flush=True)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402


def run_command(argv):
    out, err = io.StringIO(), io.StringIO()
    rc, tb = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code
    except Exception:
        tb = traceback.format_exc()
    return {
        "argv": argv,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "traceback": tb,
        "seconds": time.perf_counter() - start,
    }


def peak_rss_mb() -> float:
    # VmHWM is the high-water mark of this process's own address space;
    # ru_maxrss would also count the parent's pages seen before exec.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    trace = sys.argv[2] == "1"
    commands = json.loads(sys.argv[3])
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    blocks = speed.blocks()
    first_block = statistics.median(blocks)  # right after the import that set-up timed
    results = []
    for index, argv in enumerate(commands):
        if index:
            blocks += speed.blocks()
        results.append(run_command(argv))
    if commands:
        blocks += speed.blocks()
    report = {
        "wall_s": sum(r["seconds"] for r in results),
        "commands": results,
        "peak_rss_mb": peak_rss_mb(),
        "block_s": statistics.median(blocks),
        "first_block_s": first_block,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["top_functions"] = tracer.top_functions(8)
    sys.stdout.write(json.dumps(report) + "\n")


main()
