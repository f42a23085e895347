"""Fast self-test of the benchmark: every output check must accept a correct
output and reject a deliberately corrupted copy, and the tracer must wrap the
public layer functions (names imported by name included) and no private ones.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs small CLI commands in-process, writes into a scratch directory under
the checkout, removes it afterwards, and exits 1 if any case fails.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import eacsim.cli as cli  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

failures: list[str] = []


def expect(label: str, problems: list, accepted: bool, mentions: str = "") -> None:
    ok = not problems if accepted else bool(problems) and any(mentions in p for p in problems)
    print(f"{'ok  ' if ok else 'FAIL'} {label}" + ("" if ok else f": {problems[:3]}"))
    if not ok:
        failures.append(label)


def run(argv: list[str], workdir: Path) -> dict:
    """One CLI call in ``workdir``, captured like the benchmark worker does."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        os.chdir(cwd)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "traceback": None}


def fresh(workdir: Path, name: str) -> Path:
    path = workdir / name
    path.mkdir()
    return path


def copy_of(src: Path, workdir: Path, name: str) -> Path:
    dst = workdir / name
    shutil.copytree(src, dst)
    return dst


def edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def edit_lines(path: Path, edit) -> None:
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


def test_reproduce(workdir: Path) -> None:
    argv = ["reproduce", "--figure", "fig9", "--trials", "2000", "--seed", "3"]
    good = fresh(workdir, "fig9")
    result = run(argv, good)
    expect("reproduce fig9: correct output", checks.check_command(argv, result, good), True)

    def far_estimate(rows):
        row = rows[0]
        p = checks.MONTE_CARLO["fig9_mc.csv"][1](row)
        row["estimate"] = row["ci_low"] = row["ci_high"] = repr(p - 0.1)
        return rows

    bad = copy_of(good, workdir, "fig9_mc")
    edit_csv(bad / "fig9_mc.csv", far_estimate)
    expect("reproduce fig9: MC estimate 0.1 off the closed form",
           checks.check_command(argv, result, bad), False, "vs closed form")

    def scale_curve(rows):
        rows[7]["p_s"] = repr(float(rows[7]["p_s"]) * 1.001)
        return rows

    bad = copy_of(good, workdir, "fig9_curve")
    edit_csv(bad / "fig9.csv", scale_curve)
    expect("reproduce fig9: analytic curve off by 0.1%",
           checks.check_command(argv, result, bad), False, "closed form")

    bad = copy_of(good, workdir, "fig9_short")
    edit_csv(bad / "fig9_mc.csv", lambda rows: rows[:-1])
    expect("reproduce fig9: a missing MC row",
           checks.check_command(argv, result, bad), False, "rows, expected")

    argv = ["reproduce", "--figure", "fig8", "--trials", "2000", "--seed", "4"]
    good = fresh(workdir, "fig8")
    result = run(argv, good)
    expect("reproduce fig8: correct output", checks.check_command(argv, result, good), True)

    def q_one_nonzero(rows):
        row = next(r for r in rows if float(r["q"]) == 1.0)
        row["estimate"] = row["ci_high"] = "0.0005"
        return rows

    bad = copy_of(good, workdir, "fig8_exact")
    edit_csv(bad / "fig8_mc.csv", q_one_nonzero)
    expect("reproduce fig8: nonzero estimate where the closed form is 0",
           checks.check_command(argv, result, bad), False, "vs closed form")


def test_sweep(workdir: Path) -> None:
    grid = {"n": [4], "k": [1, 2], "q_cr": [0.2], "q_e": [0.0, 0.3], "M_cr": [3], "M_e": 3,
            "trials": 2000, "seed": 1}
    argv = ["sweep", "--config", "sweep.cfg", "--out", "sweep.csv"]
    good = fresh(workdir, "sweep")
    from workloads import sweep_text

    (good / "sweep.cfg").write_text(sweep_text(grid))
    result = run(argv, good)
    expect("sweep: correct output", checks.check_command(argv, result, good, grid), True)

    def bump_analytic(rows):
        rows[1]["analytic"] = repr(float(rows[1]["analytic"]) + 0.01)
        return rows

    bad = copy_of(good, workdir, "sweep_analytic")
    edit_csv(bad / "sweep.csv", bump_analytic)
    expect("sweep: analytic column off the closed form",
           checks.check_command(argv, result, bad, grid), False, "analytic")

    bad = copy_of(good, workdir, "sweep_short")
    edit_csv(bad / "sweep.csv", lambda rows: rows[1:])
    expect("sweep: a missing grid point",
           checks.check_command(argv, result, bad, grid), False, "grid points")


def test_contend(workdir: Path) -> None:
    argv = ["contend", "--n", "4", "--k", "2", "--kind", "linear", "--runs", "400",
            "--seed", "2"]
    good = fresh(workdir, "contend")
    result = run(argv, good)
    transcript = json.loads(result["stdout"])["transcript"]
    expect("contend: correct output", checks.check_command(argv, result, good), True)

    def corrupt(label, field, change, mentions):
        def edit(lines):
            record = json.loads(lines[0])
            record[field] = change(record[field])
            lines[0] = json.dumps(record, separators=(",", ":"))
            return lines

        bad = copy_of(good, workdir, f"contend_{field}")
        edit_lines(bad / transcript, edit)
        expect(f"contend: {label}", checks.check_command(argv, result, bad), False, mentions)

    corrupt("d_vector of weight k+1", "d_vector", lambda d: [1] + d[1:] if d[0] == 0
            else [1, 1, 1, 1], "weight")
    corrupt("ancilla word with a flipped bit", "ancilla_word",
            lambda a: [1 - a[0]] + a[1:], "ancilla word")
    corrupt("Bell label against the parity", "bell_state",
            lambda b: "phi_plus" if b == "phi_minus" else "phi_minus", "Bell label")

    # every line valid on its own, but node 1 and node 2 always win
    bad = fresh(workdir, "contend_rates")
    line = {"d_vector": [1, 1, 0, 0], "ancilla_word": [1, 1, 0], "winners": [1, 2],
            "g": [None, None, 0, 0], "g_parity": 0, "bell_state": "phi_plus", "seed": 2}
    (bad / transcript).write_text((json.dumps(line) + "\n") * 400)
    summary = json.loads(result["stdout"])
    summary["node_win_rates"] = [1.0, 1.0, 0.0, 0.0]
    rigged = dict(result, stdout=json.dumps(summary))
    expect("contend: win rates far from k/n", checks.check_command(argv, rigged, bad),
           False, "inconsistent with k/n")


def test_encode(workdir: Path) -> None:
    argv = ["encode", "--kind", "linear", "--n", "4", "--k", "2"]
    good = fresh(workdir, "encode")
    result = run(argv, good)
    expect("encode linear: correct output", checks.check_command(argv, result, good), True)
    codebook, circuit = "codebook_linear_n4_k2.csv", "encoder_linear_n4_k2.txt"

    def duplicate_word(lines):
        lines[2] = lines[1].rsplit(",", 1)[0] + "," + lines[2].rsplit(",", 1)[1]
        return lines

    bad = copy_of(good, workdir, "encode_dup")
    edit_lines(bad / codebook, duplicate_word)
    expect("encode: two rows with the same word", checks.check_command(argv, result, bad),
           False, "not distinct")

    bad = copy_of(good, workdir, "encode_gate")
    edit_lines(bad / circuit, lambda lines: [l.replace("CNOT d1 a0", "CNOT d2 a0")
                                             for l in lines])
    expect("encode: circuit that does not compute the codebook",
           checks.check_command(argv, result, bad), False, "G.d")

    bad = copy_of(good, workdir, "encode_short")
    edit_lines(bad / codebook, lambda lines: lines[:-1])
    expect("encode: a missing codebook row", checks.check_command(argv, result, bad),
           False, "codebook rows")

    argv = ["encode", "--kind", "binary", "--n", "8", "--k", "2", "--seed", "0"]
    result = run(argv, fresh(workdir, "encode_binary"))
    expect("encode binary (8,2): exit 3 naming a workable ell",
           checks.check_command(argv, result, workdir) if result["rc"] == 3 else ["rc"], True)
    beyond = dict(result, stderr="error: no injective encoder found with ell=5; "
                                 "smallest workable ell=8")
    expect("encode binary: exit 3 naming ell above n-1",
           checks.check_command(argv, beyond, workdir), False, "exit 3")
    forced = argv + ["--ell", "4"]
    claim = {"rc": 3, "stdout": "", "traceback": None,
             "stderr": "error: no injective encoder found with ell=4; smallest workable ell=5"}
    expect("encode binary: exit 3 naming an ell that admits no injective map",
           checks.check_command(forced, claim, workdir), False, "exit 3")
    expect("encode binary: exit 3 naming a witnessed ell",
           checks.check_command(forced, dict(claim, stderr="ell=4; smallest workable ell=6"),
                                workdir), True)


def test_failures(workdir: Path) -> None:
    argv = ["contend", "--n", "4", "--k", "2", "--runs", "10", "--seed", "1"]
    crashed = {"rc": None, "stdout": "", "stderr": "", "traceback": "Traceback ..."}
    expect("any command: a traceback", checks.check_command(argv, crashed, workdir),
           False, "traceback")
    refused = {"rc": 2, "stdout": "", "stderr": "error: bad", "traceback": None}
    expect("any command: an unexpected exit code", checks.check_command(argv, refused, workdir),
           False, "exit code")


def test_tracer(workdir: Path) -> None:
    import eacsim.channel
    import eacsim.encoder
    import eacsim.statevector

    tracer = Tracer()
    tracer.install()
    wrapped = {
        "cli.normal_ci": cli.normal_ci, "cli.make_rng": cli.make_rng,
        "encoder.apply_cnot": eacsim.encoder.apply_cnot,
        "statevector.apply_cnot": eacsim.statevector.apply_cnot,
        "channel.make_rng": eacsim.channel.make_rng, "cli.cmd_contend": cli.cmd_contend,
    }
    expect("tracer: wraps names imported by name and module attributes",
           [name for name, fn in wrapped.items() if not hasattr(fn, "__wrapped__")], True)
    expect("tracer: leaves private helpers alone",
           [] if not hasattr(eacsim.encoder._injective_on_slice, "__wrapped__") else ["wrapped"],
           True)
    run(["contend", "--n", "4", "--k", "2", "--runs", "10", "--seed", "1"], fresh(workdir, "tr"))
    layers = tracer.layer_metrics()
    expected = {"protocol.rounds": 10, "statevector.calls": 3,
                "statevector.bytes_computed": 3 * 2 * 16 * 2**7}
    expect("tracer: counts taken from the call arguments",
           [f"{k}={layers[k]}" for k, v in expected.items() if layers[k] != v], True)
    expect("tracer: self times are non-negative",
           [s for s in tracer._self_times() if s < -1e-6], True)


def test_skip_and_reference(workdir: Path) -> None:
    from run import read_outputs
    import speed

    argv = ["contend", "--n", "4", "--k", "2", "--runs", "50", "--seed", "3"]
    first = fresh(workdir, "pass1")
    results = [dict(run(argv, first), argv=argv)]
    _, digest = read_outputs(first, set(), results)
    same = copy_of(first, workdir, "pass2")
    expect("skip: a byte-identical pass has the digest of the checked one",
           [] if read_outputs(same, set(), results)[1] == digest else ["differs"], True)
    changed = copy_of(first, workdir, "pass3")
    transcript = next(changed.glob("*.jsonl"))
    data = bytearray(transcript.read_bytes())
    data[len(data) // 2] ^= 1  # one flipped bit in the transcript
    transcript.write_bytes(bytes(data))
    expect("skip: a pass with one changed byte is checked again",
           ["same digest"] if read_outputs(changed, set(), results)[1] == digest else [], True)
    times = speed.blocks(3)
    expect("reference block: times a fixed block of work",
           [] if len(times) == 3 and all(t > 0 for t in times) else [times], True)


def main() -> int:
    workdir = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for test in (test_reproduce, test_sweep, test_contend, test_encode, test_failures,
                     test_tracer, test_skip_and_reference):
            test(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(f"{len(failures)} failed" if failures else "all self-test cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
