"""Command-line front end: files, formats, determinism, exit codes."""
import ast
import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy
import pytest

import eacsim
from eacsim import cli
from eacsim.channel import (ChannelParams, empirical_contention_success,
                            empirical_full_connection_by_slot, normal_ci, split_rng)
from eacsim.cli import UsageError, main, parse_sweep_config
from eacsim.markov import absorbing_threshold, success_prob_fully_noisy

GOLDEN_CIRCUIT_4_2 = """encoder linear n=4 k=2 ell=3
CNOT d1 a0
CNOT d2 a1
CNOT d3 a2
"""

GOLDEN_CODEBOOK_4_2 = """a_0,a_1,a_2,winners
0,0,1,3 4
0,1,0,2 4
0,1,1,2 3
1,0,0,1 4
1,0,1,1 3
1,1,0,1 2
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- encode

def test_encode_linear_golden_files(tmp_path):
    assert main(["encode", "--n", "4", "--k", "2", "--kind", "linear",
                 "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "encoder_linear_n4_k2.txt").read_text() == GOLDEN_CIRCUIT_4_2
    assert (tmp_path / "codebook_linear_n4_k2.csv").read_text() == GOLDEN_CODEBOOK_4_2


def test_encode_binary_w4(tmp_path):
    assert main(["encode", "--n", "4", "--k", "1", "--kind", "binary",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "encoder_binary_n4_k1.txt").read_text().strip().splitlines()
    assert lines[0] == "encoder binary n=4 k=1 ell=2"
    assert len(lines) == 5  # four CNOTs


def test_encode_usage_error(tmp_path, capsys):
    assert main(["encode", "--n", "3", "--k", "3", "--out-dir", str(tmp_path)]) == 2
    assert "k=3" in capsys.readouterr().err


def test_encode_synthesis_failure_exit_code(tmp_path, capsys):
    code = main(["encode", "--n", "4", "--k", "2", "--kind", "binary",
                 "--ell", "2", "--out-dir", str(tmp_path)])
    assert code == 3
    assert "ell=3" in capsys.readouterr().err  # diagnostic names the workable width


def test_encode_binary_16_8_fails_fast(tmp_path, capsys):
    # 2t = 16 >= n-1: only the 15-ancilla map separates the slice, and the bound proves it
    started = time.perf_counter()
    code = main(["encode", "--n", "16", "--k", "8", "--kind", "binary", "--out-dir", str(tmp_path)])
    assert time.perf_counter() - started < 1.0
    assert code == 3
    err = capsys.readouterr().err
    assert "ell=15 is the smallest workable" in err and "ell >= 15" in err


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_quietly(tmp_path, monkeypatch, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        code = main(["contend", "--n", "20", "--k", "2", "--runs", "10", "--out-dir", str(tmp_path)])
    finally:
        os.close(fd)
    assert code == 2
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_quietly():
    # a real pipe with no reader, stdout block-buffered: the write fails at main's flush, not
    # in the interpreter's flush at exit, which would print a traceback and exit 120
    read, write = os.pipe()
    os.close(read)
    src = str(Path(eacsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        out = subprocess.run([sys.executable, "-m", "eacsim.cli", "analytics", "--n", "8", "--k", "2",
                              "--q-cr", "0.3", "--M-cr", "3"], env=env, stdout=write,
                             stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (2, "")


@pytest.mark.parametrize("ell", ["0", "-1"])
def test_encode_ell_below_one_is_usage_error(tmp_path, capsys, ell):
    code = main(["encode", "--kind", "binary", "--n", "4", "--k", "2",
                 "--ell", ell, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "ell >= 1" in capsys.readouterr().err


def test_encode_ell_with_linear_is_usage_error(tmp_path, capsys):
    # the linear encoder's width is always n - 1, so an --ell it would ignore is refused
    assert main(["encode", "--kind", "linear", "--n", "6", "--k", "2", "--ell", "3",
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--ell" in err
    assert not (tmp_path / "out").exists()


def test_encode_binary_6_2_succeeds(tmp_path):
    assert main(["encode", "--n", "6", "--k", "2", "--kind", "binary",
                 "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "codebook_binary_n6_k2.csv")
    assert len(rows) == 15


# ---------------------------------------------------------------- contend

def test_contend_single_run(tmp_path):
    out = tmp_path / "t.jsonl"
    assert main(["contend", "--n", "4", "--k", "2", "--runs", "1",
                 "--seed", "3", "--out", str(out)]) == 0
    record = json.loads(out.read_text().strip())
    assert sum(record["d_vector"]) == 2
    assert record["winners"] == [i + 1 for i, d in enumerate(record["d_vector"]) if d]
    assert record["bell_state"] in ("phi_plus", "phi_minus")
    assert record["seed"] == 3


def test_contend_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["contend", "--n", "4", "--k", "2", "--runs", "500", "--seed", "9", "--out", str(out1)])
    first = capsys.readouterr().out
    main(["contend", "--n", "4", "--k", "2", "--runs", "500", "--seed", "9", "--out", str(out2)])
    second = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert first.replace("a.jsonl", "b.jsonl") == second


def test_contend_summary_rates(tmp_path, capsys):
    assert main(["contend", "--n", "4", "--k", "2", "--runs", "20000",
                 "--seed", "1", "--out", str(tmp_path / "t.jsonl")]) == 0
    summary = json.loads(capsys.readouterr().out)
    sigma = math.sqrt(0.25 / 20000)
    for rate in summary["node_win_rates"]:
        assert abs(rate - 0.5) < 4 * sigma
    assert len(summary["subset_rates"]) == 6


def test_contend_capacity_exit(tmp_path, capsys):
    # C(67,33) > 2^63 - 1, the largest int64: n = 67 is the least n with a refused k, and
    # C(66,33), the largest C(66,k), runs
    assert main(["contend", "--n", "67", "--k", "33", "--runs", "1",
                 "--out", str(tmp_path / "t.jsonl")]) == 4
    assert capsys.readouterr().err == ("error: C(67,33) = 14226520737620288370 outcomes exceed "
                                       "2^63 - 1, the largest int64\n")
    out = tmp_path / "ok.jsonl"
    assert main(["contend", "--n", "66", "--k", "33", "--runs", "3", "--out", str(out)]) == 0
    assert [sum(json.loads(line)["d_vector"]) for line in out.read_text().splitlines()] == [33] * 3


@pytest.mark.parametrize("runs", [2**50, 2**62, 2**63 - 1, 2**63])
def test_contend_too_many_runs_is_capacity_error(tmp_path, capsys, runs):
    # too large to allocate (2^50 int64 ranks), to address (2^62, 2^63 - 1) or to be a
    # dimension (2^63): each exits 4 with one error line naming the count, and writes nothing
    assert main(["contend", "--n", "8", "--k", "2", "--runs", str(runs),
                 "--out-dir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"runs={runs}, n=8, k=2" in err, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--kind", "binary", "--n", "16378", "--k", "1", "--runs", "5"],
                                  ["--n", "16385", "--k", "2", "--runs", "10"]])
def test_contend_charges_only_what_it_builds(tmp_path, argv):
    # C(16378,1) * (16378 + 14) and 16384 * 16385 bytes pass the 256 MiB cap, but the binary
    # slice rule charges packed words and the builders their CNOT arrays, far below it
    out = tmp_path / "t.jsonl"
    assert main(["contend", *argv, "--out", str(out)]) == 0
    n = int(argv[argv.index("--n") + 1])
    assert all(len(json.loads(line)["d_vector"]) == n for line in out.read_text().splitlines())


def test_encode_capacity_exit(tmp_path):
    assert main(["encode", "--n", "40", "--k", "20", "--out-dir", str(tmp_path)]) == 4


@pytest.mark.parametrize("argv", [["contend", "--n", "16777218", "--k", "2", "--runs", "1"],
                                  ["contend", "--n", "16777218", "--k", "1", "--runs", "1"],
                                  ["encode", "--n", "16777218", "--k", "1"]])
def test_big_linear_run_refused_before_its_encoder(tmp_path, capsys, argv):
    # the linear encoder's CNOT array, 16 bytes for each of its n-1 gates, passes the 256 MiB
    # cap from n = 16,777,218; it is charged before it exists, so memory stays flat
    tracemalloc.start()
    try:
        assert main([*argv, "--out-dir", str(tmp_path)]) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert capsys.readouterr().err == ("error: the 16777217 CNOTs of the linear encoder need "
                                       "268435472 bytes, above the 268435456-byte cap\n")
    assert not any(tmp_path.iterdir())


def test_big_binary_contend_refused_before_its_cnot_array(tmp_path, capsys):
    # the k = 1 binary encoder has one CNOT per set bit of 0..n-1: 54,717,312 for n = 5,000,000
    argv = ["contend", "--kind", "binary", "--n", "5000000", "--k", "1", "--runs", "1"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 4
    assert capsys.readouterr().err == ("error: the 54717312 CNOTs of the binary encoder need "
                                       "875476992 bytes, above the 268435456-byte cap\n")
    assert not any(tmp_path.iterdir())


def test_big_linear_encode_refused_by_the_slice_rule(tmp_path, capsys):
    # n = 3,000,000 passes the CNOT charge: the linear build holds its 48 MB array, made
    # from a half-size temporary, then verify_injectivity refuses the codebook unbuilt
    n = 3000000
    tracemalloc.start()
    try:
        assert main(["encode", "--n", str(n), "--k", "1", "--out-dir", str(tmp_path)]) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * (n - 1) + 2 * 2**20
    assert capsys.readouterr().err == (f"error: the weight-1 slice of n={n} with ell={n - 1} needs "
                                       f"{n * (2 * n - 1)} bytes, above the 268435456-byte cap\n")
    assert not any(tmp_path.iterdir())


def test_linear_contend_past_46337_packs_only_the_drawn_rows(tmp_path):
    # G's n rows packed whole would pass the 256 MiB cap at n = 46,338; the sampler packs the
    # k rows a round draws, and the (n-1) x 2 CNOT array is 741 kB
    n, out = 46338, tmp_path / "t.jsonl"
    tracemalloc.start()
    try:
        assert main(["contend", "--n", str(n), "--k", "2", "--runs", "1", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    record = json.loads(out.read_text())
    assert sum(record["d_vector"]) == 2
    assert record["ancilla_word"] == record["d_vector"][: n - 1]  # linear encoder: a_i = d_{i+1}


def test_contend_memory_does_not_follow_the_runs(tmp_path, capsys):
    # a round is held as its int64 rank and built a chunk at a time, so 8x the runs stays
    # under 2x the peak; holding whole-run d, a and int32 g arrays grows it about 4.5x.  At
    # n = 300 nearly every round is a distinct outcome, which the summary lists.
    peaks = {}
    for runs in (2000, 2000, 16000):  # the first run pays one-time costs
        tracemalloc.start()
        try:
            assert main(["contend", "--n", "300", "--k", "2", "--runs", str(runs),
                         "--out", str(tmp_path / "t.jsonl")]) == 0
            peaks[runs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    assert peaks[16000] < 2 * peaks[2000], peaks


@pytest.mark.parametrize("argv, err", [
    (["contend", "--n", "20000", "--k", "10000", "--runs", "1"],
     "C(20000,10000) = at least 2^19992 outcomes exceed 2^63 - 1, the largest int64"),
    (["contend", "--n", "20000", "--k", "10000", "--runs", "1", "--kind", "binary"],
     "the weight-10000 slice of n=20000 with ell=19993 needs at least 2^20006 bytes, "
     "above the 268435456-byte cap"),
    (["encode", "--n", "20000", "--k", "10000"],
     "the weight-10000 slice of n=20000 with ell=19999 needs at least 2^20007 bytes, "
     "above the 268435456-byte cap"),
    (["contend", "--n", "9" * 2200, "--k", "1", "--runs", "1"],
     f"the {'9' * 2199}8 CNOTs of the linear encoder need at least 2^7312 bytes, "
     "above the 268435456-byte cap"),
], ids=["contend", "contend-binary", "encode", "cnots"])
def test_refusal_states_an_unprintable_size_by_bit_length(tmp_path, capsys, argv, err):
    # C(20000,10000) and the byte counts have more digits than str() of an int may print
    # (4,300), so the refusal names the power of two below them and still exits 4
    assert main([*argv, "--out-dir", str(tmp_path)]) == 4
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, err", [
    (["contend", "--n", "200000", "--k", "100000", "--runs", "1"],
     "C(200000,100000) = at least 2^199990 outcomes exceed 2^63 - 1, the largest int64"),
    (["contend", "--n", "200000", "--k", "100000", "--runs", "1", "--kind", "binary"],
     "the weight-100000 slice of n=200000 with ell=199991 needs at least 2^200009 bytes, "
     "above the 268435456-byte cap"),
    (["encode", "--kind", "binary", "--n", "200000", "--k", "100000"],
     "the weight-100000 slice of n=200000 with ell=199991 needs at least 2^200009 bytes, "
     "above the 268435456-byte cap"),
], ids=["contend", "contend-binary", "encode-binary"])
def test_refusal_computes_the_outcome_count_once(tmp_path, monkeypatch, capsys, argv, err):
    # an exact C(n,k) of a balanced instance takes seconds in the millions: a refusal computes it once
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda *nk: calls.append(nk) or comb(*nk))
    assert main([*argv, "--out-dir", str(tmp_path)]) == 4
    assert calls == [(200000, 100000)]
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not any(tmp_path.iterdir())


def test_contend_past_dense_register(tmp_path):
    # n=13 needs a 25-qubit register, past the dense cap; the classical path runs it
    out = tmp_path / "t.jsonl"
    assert main(["contend", "--n", "13", "--k", "2", "--runs", "50", "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        record = json.loads(line)
        d = record["d_vector"]
        assert sum(d) == 2
        assert record["ancilla_word"] == d[:12]  # linear encoder: a_i = d_{i+1}


@pytest.mark.parametrize("n,k", [(40, 20), (56, 28)])
def test_contend_without_slice_table(tmp_path, n, k):
    # C(40,20) * (40 + 39) bytes of slice and words exceed the 256 MiB cap, and C(56,28)
    # is about 7.6e15: contend unranks only the rows it draws
    out = tmp_path / "t.jsonl"
    assert main(["contend", "--n", str(n), "--k", str(k), "--runs", "200", "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        record = json.loads(line)
        d = record["d_vector"]
        assert len(d) == n and sum(d) == k
        assert record["ancilla_word"] == d[: n - 1]  # linear encoder: a_i = d_{i+1}


def test_contend_runs_checked_before_synthesis(tmp_path, capsys):
    # a binary (16,2) synthesis would fail with exit 3 were --runs not checked first
    assert main(["contend", "--n", "16", "--k", "2", "--kind", "binary", "--runs", "0",
                 "--out", str(tmp_path / "t.jsonl")]) == 2
    assert "--runs" in capsys.readouterr().err


def test_contend_out_is_directory(tmp_path, capsys):
    assert main(["contend", "--n", "4", "--k", "2", "--runs", "5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["reproduce", "contend", "sweep"])
def test_oversized_trial_count_is_capacity_exit(tmp_path, command):
    # 10**15 trials ask numpy for petabytes, past the address space: refused before allocating
    huge = str(10**15)
    argv = {"reproduce": ["reproduce", "--figure", "fig9", "--trials", huge],
            "contend": ["contend", "--n", "8", "--k", "2", "--runs", huge],
            "sweep": ["sweep", "--config", str(tmp_path / "huge.cfg")]}[command]
    (tmp_path / "huge.cfg").write_text(SWEEP_CFG.replace("trials = 4000", f"trials = {huge}"))
    src = str(Path(eacsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "eacsim.cli", *argv, "--out-dir", str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 4
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr
    assert [path.name for path in tmp_path.iterdir()] == ["huge.cfg"]  # e.g. no fig9*.csv


# ---------------------------------------------------------------- analytics

def test_analytics_table_shows_success_value(capsys):
    assert main(["analytics", "--n", "8", "--k", "2", "--q-cr", "0.3", "--M-cr", "3"]) == 0
    out = capsys.readouterr().out
    assert "0.946729" in out
    assert "absorbing_threshold" in out


def test_analytics_zero_qe_reduction(tmp_path):
    out = tmp_path / "a.json"
    assert main(["analytics", "--n", "6", "--k", "2", "--q-cr", "0.4", "--q-e", "0",
                 "--M-cr", "3", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["success_fully_noisy"] == payload["success_cr"]
    assert payload["m_bar"] == 3


def test_analytics_threshold_column(tmp_path):
    out = tmp_path / "a.json"
    assert main(["analytics", "--n", "20", "--k", "2", "--q-cr", "0.3",
                 "--M-cr", "20", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    closed_form = (1 - (1 - 1e-5) ** (1 / 20)) ** (1 / 20)
    assert abs(payload["absorbing_threshold"] - closed_form) < 1e-3


def test_analytics_csv_state_row(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["analytics", "--n", "5", "--k", "2", "--q-cr", "0.5",
                 "--M-cr", "3", "--format", "csv", "--out", str(out)]) == 0
    rows = {r["quantity"]: float(r["value"]) for r in read_csv(out)}
    total = sum(rows[f"state_prob_cr[j={j}]"] for j in range(6))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,k", [(1100, 2), (1100, 550), (100_000, 2)])
def test_analytics_finite_at_large_n(tmp_path, n, k):
    out = tmp_path / "a.csv"
    assert main(["analytics", "--n", str(n), "--k", str(k), "--q-cr", "0.3",
                 "--M-cr", "3", "--format", "csv", "--out", str(out)]) == 0
    rows = {r["quantity"]: float(r["value"]) for r in read_csv(out)}
    assert all(math.isfinite(v) for v in rows.values())
    total = math.fsum(rows[f"state_prob_cr[j={j}]"] for j in range(n + 1))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_analytics_usage_error(capsys):
    assert main(["analytics", "--n", "8", "--k", "2", "--q-cr", "1.5", "--M-cr", "3"]) == 2


def test_analytics_has_no_out_dir(tmp_path, capsys):
    # analytics writes to --out or stdout; an --out-dir it would ignore is refused
    with pytest.raises(SystemExit) as err:
        main(["analytics", "--n", "8", "--k", "2", "--q-cr", "0.3", "--M-cr", "3",
              "--out-dir", str(tmp_path / "x")])
    assert err.value.code == 2
    assert "--out-dir" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_analytics_out_writes_every_format(tmp_path, capsys, fmt):
    # --out gets the bytes stdout would have had, in every format
    argv = ["analytics", "--n", "8", "--k", "2", "--q-cr", "0.3", "--M-cr", "3", "--format", fmt]
    assert main(argv) == 0
    shown = capsys.readouterr().out
    out = tmp_path / "sub" / "a.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_bytes() == shown.encode()


@pytest.mark.parametrize("command", ["contend", "sweep"])
def test_out_and_out_dir_are_exclusive(tmp_path, capsys, command):
    # --out names the whole path, so an --out-dir beside it would be ignored: refused
    (tmp_path / "cfg").write_text(SWEEP_CFG)
    argv = {"contend": ["contend", "--n", "4", "--k", "2", "--runs", "3"],
            "sweep": ["sweep", "--config", str(tmp_path / "cfg")]}[command]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(tmp_path / "x.out"), "--out-dir", str(tmp_path / "d")])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["cfg"]


def _parse_outcome(capsys, argv=None):
    """(exit code, stdout, stderr) of ``main(argv)``, argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"],
    *[[command, "-h"] for command in ("encode", "contend", "analytics", "reproduce", "sweep")],
    ["bogus"], ["bogus", "--n", "8"], ["-1", "encode"],
    ["encode", "--k", "2"], ["analytics", "--n", "8", "--k", "2"], ["reproduce"],
    ["contend", "--n", "8", "--k", "2", "--runs", "3", "--bogus"],
    ["sweep", "--config", "c.toml", "extra"],
    ["contend", "--n", "8", "--k", "2", "--runs", "3", "encode"],  # extra words name a subcommand
    ["reproduce", "--figure", "fig99"], ["sweep", "--config"],
    ["contend", "--n", "8", "--k", "2", "--runs", "3", "--out", "t", "--out-dir", "d"],
    ["sweep", "--config", "c.toml", "--out-dir", "d", "--out", "t"],
    ["analytics", "--out-dir", "d"],
    ["--bogus", "encode", "--n", "8"],  # the subcommand argparse runs is not argv[0]
    ["encode", "--n", "8", "--k", "2", "--kind", "contend"],  # a value names a subcommand
], ids=repr)
def test_parser_texts_match_a_parser_with_every_option(tmp_path, monkeypatch, capsys, argv):
    # `main` builds only the options of the subcommands argv names; help, usage lines, error
    # texts and exit codes are those of the parser that has every subcommand's options
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "100")
    got = _parse_outcome(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["eacsim", *argv])  # the console script's path
    assert _parse_outcome(capsys) == got
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: build())
    assert _parse_outcome(capsys, argv) == got
    assert got[0] in (0, 2) and not any(tmp_path.iterdir())


def test_console_script_path_runs_a_command(monkeypatch, capsys):
    argv = ["analytics", "--n", "8", "--k", "2", "--q-cr", "0.3", "--M-cr", "3", "--format", "csv"]
    want = _parse_outcome(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["eacsim", *argv])
    assert want[0] == 0 and want[1].startswith("quantity,value")
    assert _parse_outcome(capsys) == want


_USAGE = "usage: eacsim [-h] {encode,contend,analytics,reproduce,sweep} ...\neacsim: error: "
_CHOICES = ("encode", "contend", "analytics", "reproduce", "sweep")


@pytest.mark.parametrize("argv,err", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from {})"),
    (["contend", "--n", "8", "--k", "2", "--runs", "3", "encode"], "unrecognized arguments: encode"),
    (["sweep", "--config", "c.toml", "extra"], "unrecognized arguments: extra"),
], ids=repr)
def test_parser_texts_are_pinned(tmp_path, monkeypatch, capsys, argv, err):
    # `main` and the full `build_parser()` could change a text together; these are argparse's
    # own texts for the five subcommands, whose choices later Pythons may list without quotes
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "100")
    code, out, got = _parse_outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert got in {_USAGE + err.format(", ".join(map(f, _CHOICES))) + "\n" for f in (repr, str)}


def test_parser_adds_only_the_options_of_named_subcommands(capsys):
    def registered(parser):
        sub, = (a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction))
        return list(sub.choices)

    for name in _CHOICES:  # argparse hands every word after argv[0] to the subcommand it names
        assert registered(cli.build_parser([name, "-h"])) == [name]
    for argv in (None, [], ["bogus", "encode"], ["-h"], ["--bogus", "contend"]):
        assert registered(cli.build_parser(argv)) == list(_CHOICES)
    argv = ["contend", "--n", "8", "--k", "2", "--runs", "3"]
    assert cli.build_parser(argv).parse_args(argv).runs == 3
    with pytest.raises(SystemExit):  # the all-five parser gives options only to those named
        cli.build_parser(["-h", "encode"]).parse_args(argv)
    assert "unrecognized arguments: --n 8 --k 2 --runs 3" in capsys.readouterr().err


# ---------------------------------------------------------------- reproduce

def test_reproduce_fig9_spot_value(tmp_path):
    assert main(["reproduce", "--figure", "fig9", "--trials", "2000",
                 "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "fig9.csv")
    spot = [r for r in rows if r["q"] == "0.3" and r["k"] == "2"]
    assert len(spot) == 1
    assert float(spot[0]["p_s"]) == pytest.approx(0.946729, abs=1e-9)
    # success decreases with k for fixed q
    for q in {r["q"] for r in rows}:
        curve = [float(r["p_s"]) for r in rows if r["q"] == q]
        assert all(b < a for a, b in zip(curve, curve[1:]))


def test_reproduce_fig8_noiseless_and_threshold(tmp_path):
    assert main(["reproduce", "--figure", "fig8", "--trials", "1000",
                 "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "fig8.csv")
    assert all(float(r["p_full"]) == 1.0 for r in rows if r["q"] == "0.0")
    thr = {r["M"]: float(r["q_bar"]) for r in read_csv(tmp_path / "fig8_thresholds.csv")}
    closed_form = (1 - (1 - 1e-5) ** (1 / 20)) ** (1 / 20)
    assert abs(thr["20"] - closed_form) < 1e-3


def test_reproduce_fig8_thresholds_use_the_epsilon_column(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_EPSILON", 1e-3)
    assert main(["reproduce", "--figure", "fig8", "--trials", "10",
                 "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "fig8_thresholds.csv")
    assert rows and all(float(r["epsilon"]) == 1e-3 for r in rows)
    for r in rows:
        assert float(r["q_bar"]) == absorbing_threshold(int(r["n"]), int(r["M"]),
                                                        float(r["epsilon"]))


def test_reproduce_fig8l_spot(tmp_path):
    assert main(["reproduce", "--figure", "fig8l", "--trials", "1000",
                 "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "fig8l.csv")
    spot = [r for r in rows if r["q"] == "0.4" and r["m"] == "13"]
    assert float(spot[0]["p_full"]) >= 0.999


def test_reproduce_fig10_rows_normalized(tmp_path):
    assert main(["reproduce", "--figure", "fig10", "--trials", "1000",
                 "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "fig10.csv")
    for n in ("5", "10", "15", "20"):
        for q in ("0.1", "0.3", "0.5", "0.7", "0.9"):
            total = sum(float(r["p_state"]) for r in rows if r["n"] == n and r["q"] == q)
            assert total == pytest.approx(1.0, abs=1e-10)


def test_reproduce_fig11_mc_within_ci(tmp_path):
    assert main(["reproduce", "--figure", "fig11", "--trials", "20000",
                 "--out-dir", str(tmp_path)]) == 0
    analytic = {
        (r["M"], r["q_cr"], r["q_e"], r["k"]): float(r["p_s"])
        for r in read_csv(tmp_path / "fig11.csv")
    }
    mc_rows = read_csv(tmp_path / "fig11_mc.csv")
    assert len(mc_rows) == 48
    for r in mc_rows:
        p = analytic[(r["M"], r["q_cr"], r["q_e"], r["k"])]
        est, trials = float(r["estimate"]), int(r["trials"])
        # sampling interval around the analytic value at alpha = 0.001
        assert abs(est - p) <= 3.3 * math.sqrt(p * (1 - p) / trials)
        assert float(r["ci_low"]) <= est <= float(r["ci_high"])
        assert r["seed"] == "0" and r["trials"] == "20000"


def test_reproduce_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["reproduce", "--figure", "fig8l", "--trials", "500", "--out-dir", str(a)])
    main(["reproduce", "--figure", "fig8l", "--trials", "500", "--out-dir", str(b)])
    assert (a / "fig8l_mc.csv").read_bytes() == (b / "fig8l_mc.csv").read_bytes()


@pytest.mark.parametrize("figure, index, group, point", [
    # one draw per (n, q) serves M = 3 and M = 20; the M = 20 rows follow all M = 3 rows
    ("fig8", 15, 3, (20, 10, 0.6)),
    ("fig9", 17, 1, (10, 3, 0.3, 8)),  # one curve per q: k = 8 of the q = 0.3 curve
    ("fig11", 37, 9, (8, 10, 0.7, 0.0, 4)),  # one curve per (m, q_cr, q_e) of k = 2, 4, 6, 8
], ids=["fig8", "fig9", "fig11"])
def test_reproduce_row_recomputed_from_its_substream(tmp_path, figure, index, group, point):
    # each MC row reads only split_rng(seed, its draw group's position in the loop order)
    trials, seed = 2000, 5
    assert main(["reproduce", "--figure", figure, "--trials", str(trials), "--seed", str(seed),
                 "--out-dir", str(tmp_path)]) == 0
    rng = split_rng(seed, group)
    if figure == "fig8":
        m, n, q = point
        est = empirical_full_connection_by_slot(n, q, 20, trials, rng)[m - 1]
    elif figure == "fig9":
        n, m, q, k = point
        params = ChannelParams(q_cr=q, q_e=0.0, M_cr=m, M_e=m)
        est = empirical_contention_success(n, params, trials, rng)[k - 1]
    else:
        n, m, q_cr, q_e, k = point
        params = ChannelParams(q_cr=q_cr, q_e=q_e, M_cr=m, M_e=m)
        est = empirical_contention_success(n, params, trials, rng)[k - 1]
    line = ",".join(map(str, point + (float(est), *normal_ci(est, trials), trials, seed)))
    assert (tmp_path / f"{figure}_mc.csv").read_text().splitlines()[1 + index] == line


@pytest.mark.parametrize("figure", ["fig8", "fig8l", "fig9", "fig10", "fig11"])
def test_reproduce_mc_rows_overlay_analytic_rows_in_order(tmp_path, figure):
    # each Monte Carlo row is drawn over an analytic row: its leading fields are that row's,
    # byte for byte, and the Monte Carlo rows follow the analytic CSV's order
    assert main(["reproduce", "--figure", figure, "--trials", "50",
                 "--out-dir", str(tmp_path)]) == 0
    mc = [line.split(",") for line in (tmp_path / f"{figure}_mc.csv").read_text().splitlines()]
    width = mc[0].index("estimate")
    analytic = iter((tmp_path / f"{figure}.csv").read_text().splitlines())
    for fields in mc:  # the header first: the leading column names are the analytic CSV's
        prefix = ",".join(fields[:width]) + ","
        assert any(line.startswith(prefix) for line in analytic), prefix
    assert len(mc) > 1


def test_reproduce_mc_curves_non_increasing_in_k(tmp_path):
    # the rows of one curve share a draw, so a trial that serves k winners serves fewer too
    for figure in ("fig9", "fig11"):
        assert main(["reproduce", "--figure", figure, "--trials", "500",
                     "--out-dir", str(tmp_path)]) == 0
        curves = {}  # (M, q) or (M, q_cr, q_e) -> [(k, estimate)]
        for r in read_csv(tmp_path / f"{figure}_mc.csv"):
            key = tuple(r[name] for name in ("M", "q", "q_cr", "q_e") if name in r)
            curves.setdefault(key, []).append((int(r["k"]), float(r["estimate"])))
        assert len(curves) == {"fig9": 5, "fig11": 12}[figure]
        for curve in curves.values():
            estimates = [est for _, est in sorted(curve)]
            assert all(later <= earlier for earlier, later in zip(estimates, estimates[1:]))


@pytest.mark.parametrize("command", ["encode", "contend", "reproduce", "sweep"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    (tmp_path / "cfg").write_text(SWEEP_CFG.replace("seed = 2", "seed = -1"))
    argv = {"encode": ["encode", "--n", "4", "--k", "2", "--seed", "-1"],
            "contend": ["contend", "--n", "4", "--k", "2", "--runs", "5", "--seed", "-1"],
            "reproduce": ["reproduce", "--figure", "fig9", "--trials", "10", "--seed", "-1"],
            "sweep": ["sweep", "--config", str(tmp_path / "cfg")]}[command]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-negative" in err
    assert ("seed" if command == "sweep" else "--seed") in err
    assert not (tmp_path / "out").exists()  # checked before any file is written


@pytest.mark.parametrize("seed", [0, 2**128])
def test_seed_edges_run(tmp_path, seed):
    # any non-negative integer seeds the stream, also past 128 bits
    (tmp_path / "cfg").write_text(SWEEP_CFG.replace("seed = 2", f"seed = {seed}"))
    assert main(["contend", "--n", "4", "--k", "2", "--runs", "5", "--seed", str(seed),
                 "--out-dir", str(tmp_path)]) == 0
    assert main(["reproduce", "--figure", "fig8l", "--trials", "10", "--seed", str(seed),
                 "--out-dir", str(tmp_path)]) == 0
    assert main(["sweep", "--config", str(tmp_path / "cfg"), "--out-dir", str(tmp_path)]) == 0
    assert read_csv(tmp_path / "sweep.csv")[0]["seed"] == str(seed)
    assert read_csv(tmp_path / "fig8l_mc.csv")[0]["seed"] == str(seed)


@pytest.mark.parametrize("figure", ["fig8", "fig8l", "fig9", "fig10", "fig11"])
def test_reproduce_zero_trials_is_usage_error(tmp_path, capsys, figure):
    for trials in ("0", "-1"):
        assert main(["reproduce", "--figure", figure, "--trials", trials,
                     "--out-dir", str(tmp_path)]) == 2
        assert f"need trials >= 1, got {trials}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # checked before any file is written


@pytest.mark.parametrize("figure", ["fig8", "fig8l", "fig9", "fig10", "fig11"])
@pytest.mark.parametrize("trials", [2**50, 2**62, 2**63])
def test_reproduce_too_many_trials_is_capacity_error(tmp_path, capsys, figure, trials):
    # too large to allocate (2^50), to address (2^62 doubles) or to be a dimension (2^63):
    # each exits 4 naming the count, and writes nothing
    assert main(["reproduce", "--figure", figure, "--trials", str(trials),
                 "--out-dir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"trials={trials}" in err, err
    assert list(tmp_path.iterdir()) == []


def test_mc_rows_raises_the_first_failed_group_and_starts_no_later_one():
    # groups 1 and 3 fail, 3 first (1 waits for it, so two groups run at once): the error
    # raised is group 1's, as in a serial loop, and no group after 3 starts
    started, three_failed = [], threading.Event()

    def estimator(index, trials, rng):
        started.append(index)
        if index == 3:
            three_failed.set()
            raise ValueError("group 3")
        if index == 1:
            three_failed.wait(timeout=30)
            raise ValueError("group 1")
        return [0.5]

    def mc_rows(indices):  # row (index,) is drawn alone, as group key (index,)
        rows = [(index,) for index in indices]
        return cli._mc_rows(rows, 1, lambda index: ((index,), 0), estimator, 100, 0)

    with pytest.raises(ValueError, match="group 1"):
        mc_rows(range(8))
    assert sorted(started) == [0, 1, 2, 3]
    assert [row[0] for row in mc_rows((0, 2, 4, 5, 6))] == [0, 2, 4, 5, 6]  # in row order


@pytest.mark.parametrize("trials, code", [(200, 0), (2**62, 4)])
def test_no_thread_outlives_main(tmp_path, trials, code):
    # the draw groups' second worker is joined before main returns, on success and on failure
    before = threading.active_count()
    assert main(["reproduce", "--figure", "fig11", "--trials", str(trials),
                 "--out-dir", str(tmp_path)]) == code
    assert threading.active_count() == before


def test_sweep_too_many_nodes_is_capacity_error(tmp_path, capsys):
    config = tmp_path / "sweep.toml"
    config.write_text(f"n = {2**62}\nk = 2\nq_cr = 0.5\nq_e = 0.2\nM_cr = 3\nM_e = 3\n"
                      "trials = 10\n")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "sweep.csv")]) == 4
    assert f"n={2**62}, trials=10" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_reproduce_unknown_figure():
    with pytest.raises(SystemExit) as err:
        main(["reproduce", "--figure", "fig99"])
    assert err.value.code == 2


# ---------------------------------------------------------------- sweep

SWEEP_CFG = """# demo sweep
n = 8
k = [1, 2, 3]
q_cr = [0.1, 0.3]
q_e = 0
M_cr = 3
M_e = 3
trials = 4000
seed = 2
"""


def test_sweep_grid_size_and_ci(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == (
        "n,k,q_cr,q_e,M,analytic,estimate,ci_low,ci_high,trials,seed"
    )
    rows = read_csv(out)
    assert len(rows) == 6  # 3 k-values x 2 q-values
    inside = sum(
        1 for r in rows if float(r["ci_low"]) <= float(r["analytic"]) <= float(r["ci_high"])
    )
    assert inside >= 5


def test_sweep_row_recomputed_from_its_substream(tmp_path):
    # row 3 is k = 2, q_cr = 0.3: index 3 in (k, q_cr) order; the points that differ only
    # in k share a draw, and q_cr = 0.3 is the second such group to appear, so substream 1
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
    trials, seed = 4000, 2
    params = ChannelParams(q_cr=0.3, q_e=0.0, M_cr=3, M_e=3)
    est = float(empirical_contention_success(8, params, trials, split_rng(seed, 1))[1])
    point = (8, 2, 0.3, 0.0, 3, success_prob_fully_noisy(2, params))
    line = ",".join(map(str, point + (est, *normal_ci(est, trials), trials, seed)))
    assert (tmp_path / "out.csv").read_text().splitlines()[1 + 3] == line


def test_sweep_repeated_grid_value_shares_one_draw(tmp_path):
    # k = [2, 2] is two grid points of one draw group, the first: two equal rows from substream 0
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG.replace("k = [1, 2, 3]", "k = [2, 2]").replace("q_cr = [0.1, 0.3]",
                                                                            "q_cr = 0.3"))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
    trials, seed = 4000, 2
    params = ChannelParams(q_cr=0.3, q_e=0.0, M_cr=3, M_e=3)
    est = float(empirical_contention_success(8, params, trials, split_rng(seed, 0))[1])
    point = (8, 2, 0.3, 0.0, 3, success_prob_fully_noisy(2, params))
    line = ",".join(map(str, point + (est, *normal_ci(est, trials), trials, seed)))
    assert (tmp_path / "out.csv").read_text().splitlines()[1:] == [line, line]


def test_sweep_single_point_matches_analytics(tmp_path):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("n = 8\nk = 2\nq_cr = 0.3\nq_e = 0\nM_cr = 3\nM_e = 3\n")
    out = tmp_path / "one.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["analytic"]) == pytest.approx((1 - 0.027) ** 2, abs=1e-15)
    assert rows[0]["estimate"] == ""  # trials defaulted to 0: analytic only


def test_sweep_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 8\nbogus = 1\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_sweep_missing_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 8\nk = 2\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "q_cr" in capsys.readouterr().err


@pytest.mark.parametrize("config,error", [
    ("n = 4\nk = [1, 5]\nq_cr = 0.5\nq_e = 0\nM_cr = 2\nM_e = 2\n",
     "error: grid point has k=5 outside 1..n=4\n"),
    (None, "error: config file not found: nope.cfg\n"),
], ids=["k_outside_n", "no_config"])
def test_sweep_refusal_writes_no_csv(tmp_path, monkeypatch, capsys, config, error):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EACSIM_OUT_DIR", raising=False)
    if config is not None:
        (tmp_path / "nope.cfg").write_text(config)
    assert main(["sweep", "--config", "nope.cfg"]) == 2
    assert capsys.readouterr().err == error
    assert not (tmp_path / "sweep.csv").exists()


def test_parse_sweep_config_units():
    config = parse_sweep_config("n = [2, 4]\nk = 1\nq_cr = 0.5\nq_e = 0\nM_cr = 2\nM_e = 2\n")
    assert config["n"] == [2, 4]
    assert config["trials"] == 0 and config["seed"] == 0
    with pytest.raises(UsageError):
        parse_sweep_config("n = 4\nk = 1\nq_cr = abc\nq_e = 0\nM_cr = 2\nM_e = 2\n")
    with pytest.raises(UsageError):
        parse_sweep_config("trials = [1, 2]\n")
    with pytest.raises(UsageError):
        parse_sweep_config("n 4\n")
    with pytest.raises(UsageError, match="trials"):
        parse_sweep_config("n = 4\nk = 1\nq_cr = 0.5\nq_e = 0\nM_cr = 2\nM_e = 2\ntrials = -3\n")


@pytest.mark.parametrize("text,names", [
    ("seed = true", "key 'seed'"),
    ("n = true", "key 'n'"),
    ("n = 8.0", "key 'n'"),
    ('q_cr = "0.3"', "key 'q_cr'"),
    ("n = [8, 2.5]", "key 'n'"),
    ("k = []", "key 'k'"),
    ("seed = [1, 2]", "key 'seed'"),
    ("[grid]\nn = 8", "'grid'|line 1"),
    ("n = 8\nn = 9", "line 2"),
])
def test_parse_sweep_config_rejects(text, names):
    with pytest.raises(UsageError, match=names):
        parse_sweep_config(text + "\n")


def test_parse_sweep_config_toml_values():
    # q_cr and q_e are floats even when written as integers; integers take TOML's forms
    config = parse_sweep_config("n = [8, 0x10]\nk = 1\nq_cr = [0, 0.5]\nq_e = 0\n"
                                "M_cr = 2\nM_e = 2\ntrials = 1_000\n")
    assert config["n"] == [8, 16] and config["trials"] == 1000
    assert [type(q) for q in config["q_cr"]] == [float, float] and type(config["q_e"]) is float


def test_sweep_config_is_directory(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EACSIM_OUT_DIR", str(tmp_path / "envout"))
    assert main(["encode", "--n", "4", "--k", "2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "envout" / "encoder_linear_n4_k2.txt").exists()


# ---------------------------------------------------------------- pinned bytes

# SHA-256 of every file `reproduce` (trials 300, seed 4) and `sweep` (SWEEP_CFG at
# trials 300 and 0) write; any change to a row builder that alters one byte fails here
PINNED_DIGESTS = {
    "fig10.csv": "3211927da6342f5a40ec73b05fe804e0f55774902338a4551136a26afb724dab",
    "fig10_mc.csv": "476946b36f32f613fc7a322cedad4a111cffafec4f5240f0700abcbbc236b187",
    "fig11.csv": "034be8033ef7e70b13fee664623c09ff6d39037ef30c6246bd9ce3fb2b2657d3",
    "fig11_mc.csv": "f9f31373fb4d8e6ff980f918d2488209223a92b24f5a78841ec3787ec79776d8",
    "fig8.csv": "8481747fd33d77402ffc3f10cefad8aba69a3a9581e31f998f59106e6124887b",
    "fig8_mc.csv": "2820de098f70913d46eb7839ef72fa99641dcc9d14e43d5286ca970dc7221363",
    "fig8_thresholds.csv": "d4c84f53a85c40f55e2c48732a147bdc604b491f13ebc61ea39679f8425c4d70",
    "fig8l.csv": "b95e7334a4240c0d889dceff1378a9002cd0960f1978c0f573cf176a86968870",
    "fig8l_mc.csv": "009cd976771892df394b7944579587947b773eb5c614f3fb44980411bb974114",
    "fig9.csv": "234b6e68a74ea21343038eea76602e4f9b10b3d79264f8d8ab1946eb5aeaa91d",
    "fig9_mc.csv": "24dad010cc122c079547fffdde43dade4abe9cb856d56532d403b50c387b9325",
    "sweep_analytic.csv": "688d47e5d6366e8207b3869cd9ecbb46b772abe089394dce743c3ece6f4b864a",
    "sweep_mc.csv": "be1ecee5024f88f953c8e0463e41f51978aca2b633e550110f46890d92563d49",
}


def test_output_bytes_pinned(tmp_path, capsys):
    for figure in ("fig8", "fig8l", "fig9", "fig10", "fig11"):
        assert main(["reproduce", "--figure", figure, "--trials", "300", "--seed", "4",
                     "--out-dir", str(tmp_path)]) == 0
    for name, trials in (("sweep_mc.csv", 300), ("sweep_analytic.csv", 0)):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("trials = 4000", f"trials = {trials}"))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.glob("*.csv"))}
    # NEP 19 does not promise Generator streams stay the same across numpy versions
    assert digests == PINNED_DIGESTS, f"numpy {numpy.__version__}, new digests: {digests}"


def test_csv_writes_only_python_floats(tmp_path, capsys, monkeypatch):
    # every float `_csv` writes into the pinned outputs is a Python float, whose str is its
    # repr, the shortest round-trip digits by Python's specification: no byte rests on
    # str(np.float64)
    written, csv_text = [], cli._csv

    def spy(header, rows):
        rows = list(rows)
        written.extend(v for row in rows for v in row if isinstance(v, (float, numpy.floating)))
        return csv_text(header, rows)

    monkeypatch.setattr(cli, "_csv", spy)
    test_output_bytes_pinned(tmp_path, capsys)
    assert written
    assert {type(v) for v in written} == {float}


# SHA-256 of the transcript and of the stdout summary of `contend --seed 5 --out t.jsonl`
PINNED_CONTEND_DIGESTS = {
    ("linear", 8, 2, 2000): ("14967820b3e9e4bfd5e33f7e84c04c789202354393beb377d716b22fdac462a9",
                             "93f08b3458b3e23de62c4729d26d704289592a34b8b67e842fde68d93dab7be4"),
    ("linear", 22, 11, 500): ("d486f15a4ea0fb87f0fb40a3653e50181c392fe08843dccd9dd098538029c02b",
                              "f994fa290b3ee843326b03dbb31eaea58a1143fcf6cf28c87c99083ce389c830"),
    ("binary", 8, 1, 300): ("df16ebd4f355a871c5e34276394fa838c24d9ae6d1e4a1ec77ac3dbe52cca89c",
                            "01063a403e85eb572f27237fd7155c48ed380c167de2c20e510f6869461f9f50"),
    # n > runs * k: the sampler packs only the rows of G the drawn winners pick
    ("linear", 300, 2, 20): ("49364acca73eedb457e9da80222cb5d36b7c9584d6dc1899b15cbbce068cea64",
                             "9e91460146dca9fc58f8c7b3c9b3043a1b71699fba952d7fae138e82beebfda5"),
    ("binary", 40, 1, 10): ("21d494fd07fa3d8f51ded56b36cbc43f32b8fc01ae82e09e081758720c2404cc",
                            "9087fe6f3540cff9d936a79b4222978463292174b5f7a761a3d8cfaf9c33b8e8"),
    # 6, 14 and 10 chunks of rounds at FORMAT_CHUNK_BYTES = 256 KiB
    ("linear", 8, 2, 30000): ("e88deb9a21964e593cbdcb4c888e242b0efbb4ebc7f6fca302f45d165069d4bf",
                              "d6f76761fe06f7d37b264e8d576ee36437e7d0b6af9508237ad3716dfad0d0c3"),
    ("linear", 300, 2, 2000): ("b0e2774e5c2fa5086617c2e7a7452890fd711c974093c9d4fa30b77135257141",
                               "7c7f5b0f0b706d75d1c398e2fab2b7dfeda2866474a59f3bf6f6cd60c278c97b"),
    ("linear", 22, 11, 20000): ("1953a92b79935110d7238f2d1ce6dfb1de602dfc48acc195954e1929a94df6c2",
                                "1e5c1da67403e92175687b8662937cb3ecb16d534afb699f9fc3edc274aa5aed"),
    # 15 chunks of 21 rounds with four-digit winners; then the packed-row slot table, the
    # formatter's np.unique label path and a 200,000-entry summary
    ("linear", 2000, 2, 300): ("23f1f5cb341c70fc7486dd84ab93eed662e1b0cfbf583170ba511078cca3be57",
                               "b57a10cb4d26742f7728de295a45eb0bda3ffa2254c9c90b9ef7f4574809626e"),
    ("linear", 200000, 2, 3): ("b33e49fe35b449c217b0197779b41a8158137847c6eaa77d62a647473799f9c5",
                               "cf16049a681c49943423847d0c52235871d499890a4443272f00c52db6a938eb"),
    # each line a round can take formatted once: 4,608 at (9,2) and 56 at (8,3) with null g;
    # at 4,000 runs (9,2) has more lines than rounds and formats every round
    ("linear", 9, 2, 5000): ("e0b20853553d9b6037be947a3d63e083058efd7d6a05a7693c2c729f8fd9e09a",
                             "02cbf40bef679a96cf2c8ba011a66bf19bcb884e6cae17e7d315556c79bc64c6"),
    ("linear", 9, 2, 4000): ("bd616e4fc29c71e40ee6f1e427e1b9b4b69577efacbfedd6334623023867a591",
                             "53ecd3d84e94aa3258c73bc01e09fb1ff3ad8da6c4fc4a454d6bf3d16684b343"),
    ("linear", 8, 3, 20000): ("4494da1c81e5b84123ec932227205ff796016df1baf9d82f414b204a737ca87e",
                              "d0cde563f6eccf8b834335781050c7372e72932bac742154cd35bc8b5d7cbb4a"),
    # more lines than rounds, a few distinct outcomes: 3 and 2 chunks formatted round by round
    ("linear", 40, 2, 3000): ("e061ba53accdc22ad1268e39c044a15aed680f879d9179e19a6deb9f59bbf9be",
                              "7527b7b6d393245cb12dea0768712101481997bcf970123e3107166a73c04c45"),
    ("linear", 12, 2, 5000): ("e4658541ac3088016e71435e888a0c4f88b5225c99ae982e0fddccaae3301927",
                              "9b88888b0ea519c26b18d3e5e976c418799db40b9a97ac0f0b6d7e3e4559a065"),
    # ranks counted at C(8,2) = 28 rounds and sorted at 27; all 256 outcomes of (256,1) drawn
    # (a one-byte round index) and all 257 of (257,1) (two bytes)
    ("linear", 8, 2, 28): ("5e08ef8cd97724d00b46cd3d6531ca83526e08806987565af220d7fbe20127db",
                           "a3528e18b345068a69748e29168dd36f729a4746b4b3fe87c564e92675f1d859"),
    ("linear", 8, 2, 27): ("cc0c7c47c84cbfdf6c56947b5b1bb97cee47b5f93a1cfad501e14ca00b608190",
                           "f833c10c71cb612eeb9c22c38fa035128641050c164359aeeebd28522366ab51"),
    ("binary", 256, 1, 5000): ("59dfbc332ae0878abcf1b96cf099bb63a85c7a40c642ffedee37ace3b7db1482",
                               "1937cb22530d339c5894ec65192cc86e0188c34ffdcb1694dfe2309fe68a2fea"),
    ("binary", 257, 1, 5000): ("5f7344696de3d371c81dbdee6ac79e8e1b251fd944fb09c313fee1ba1c3ee651",
                               "22a0a98630c85ca39aaada300f8ffea6c0f2b50dad26701f2384351ee9ab6ca0"),
    # loser bits from the raw words: the line table at an odd n, whose text chunks of 7 bits a
    # round start on and off a kept half; formatting each chunk's rounds at an odd n * runs
    ("linear", 7, 2, 30001): ("f9caf1d439c1b5d42faf5c7f2f64044c28fb6eb9d586cd70c7760c3777625a5f",
                              "2a662da04402c765e777c0260e8a8ae11953c6113d89d285292eca26eaadb4c4"),
    ("linear", 13, 2, 999): ("3f6092239c722064632f11c346261f08e98603e06538771d92de6a2befb38355",
                             "2096bafdfcfbb0f3ec63790cdc4162bc44985547e61d56cbfe0e71b66b205e2e"),
}


def test_contend_bytes_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the summary names the transcript path
    digests = {}
    for kind, n, k, runs in PINNED_CONTEND_DIGESTS:
        assert main(["contend", "--n", str(n), "--k", str(k), "--runs", str(runs),
                     "--kind", kind, "--seed", "5", "--out", "t.jsonl"]) == 0
        digests[kind, n, k, runs] = (hashlib.sha256(Path("t.jsonl").read_bytes()).hexdigest(),
                                     hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    # NEP 19 does not promise Generator streams stay the same across numpy versions
    assert digests == PINNED_CONTEND_DIGESTS, f"numpy {numpy.__version__}, new digests: {digests}"


def benchmark_checks():
    """The benchmark's output checker, loaded from its file: it imports nothing from eacsim."""
    path = Path(eacsim.__file__).resolve().parents[2] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n,k,runs", [(8, 2, 3000), (12, 3, 2000), (5, 1, 500), (300, 2, 200),
                                      (300, 2, 300)])
def test_contend_passes_the_benchmark_checker(tmp_path, capsys, n, k, runs):
    # an oracle written apart from the package: its own G, winners, loser parity and Bell
    # labels, and the summary's win rates against the transcript.  Up to (12, 3, 2000) the
    # transcript writes from its table of every line a round can take; at n = 300 there are
    # more such lines than rounds, and it formats every round, 145 rounds a chunk.
    argv = ["contend", "--n", str(n), "--k", str(k), "--runs", str(runs), "--seed", "7",
            "--kind", "linear", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    opts = dict(zip(argv[1::2], argv[2::2]))
    assert benchmark_checks().check_contend(opts, capsys.readouterr().out, tmp_path) == []


# SHA-256 of the stdout of `analytics --n 8 --k 2 --q-cr 0.3 --q-e 0.2 --M-cr 3 --M-e 5`
PINNED_ANALYTICS_DIGESTS = {
    "table": "47a1f69fbfac3b4841a35b45a3dea8c8acaef7ec672702e6eafcf71c497dcea5",
    "csv": "13f8eb703a96057c05df9c3cbe2a9e014d90953b9408a6a9648421a725733936",
    "json": "e04782d587d114cba18a08ca5f18148c6e20f936a1293bf40d43cdda28dfdc3a",
}


def test_analytics_bytes_pinned(capsys):
    digests = {}
    for fmt in PINNED_ANALYTICS_DIGESTS:
        assert main(["analytics", "--n", "8", "--k", "2", "--q-cr", "0.3", "--q-e", "0.2",
                     "--M-cr", "3", "--M-e", "5", "--format", fmt]) == 0
        digests[fmt] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == PINNED_ANALYTICS_DIGESTS


# SHA-256 of the circuit file, the codebook file and the stdout of `encode` in the current directory
PINNED_ENCODE_DIGESTS = {
    ("linear", 18, 9): ("6a3cc5f5a74dae86f3e6ff0594c0507a9516cd2831e525ea8d9adc86385fa6e4",
                        "8cbfdf7670d8eebba513e1f89c00a0406050d102e9c1971397dea386edd97a14",
                        "90c7b85f2b2e44cc886162eae040659362587ae077f3772c816376bd7419ec88"),
    ("binary", 9, 3): ("f3723929b589b4f12f3271d09aadea591bc17c5663587cb7b177c78da4372fcd",
                       "1f2f4163c5a9a4fc23b5c33339464b6d6d4133618a89e3fecb81759569167a03",
                       "5d81f687fb4a30418e8d570429c18088a5c30d93c720b0bf7e01de855c0da877"),
}


def test_encode_bytes_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # stdout names the files
    digests = {}
    for kind, n, k in PINNED_ENCODE_DIGESTS:
        assert main(["encode", "--n", str(n), "--k", str(k), "--kind", kind]) == 0
        tag = f"{kind}_n{n}_k{k}"
        digests[kind, n, k] = tuple(hashlib.sha256(data).hexdigest() for data in (
            Path(f"encoder_{tag}.txt").read_bytes(), Path(f"codebook_{tag}.csv").read_bytes(),
            capsys.readouterr().out.encode()))
    assert digests == PINNED_ENCODE_DIGESTS


@pytest.mark.parametrize("argv,err", [
    (["encode", "--n", "1", "--k", "1"], "need at least 2 contending nodes, got n=1"),
    (["contend", "--n", "1", "--k", "1", "--runs", "1"], "need at least 2 contending nodes, got n=1"),
    (["analytics", "--n", "1", "--k", "1", "--q-cr", "0.3", "--M-cr", "3"],
     "need 1 <= k < n, got k=1, n=1"),
])
def test_bad_instance_stderr_pinned(tmp_path, monkeypatch, capsys, argv, err):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--M-cr", "--M-e", "--k", "--n", "sweep"])
def test_integer_too_large_for_a_float_is_usage_error(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    if flag == "sweep":
        # m_bar = min(M_cr, M_e) is what a sweep point reads, so both are too large
        Path("big.cfg").write_text(SWEEP_CFG.replace(" = 3\n", f" = {2**1024}\n"))
        argv = ["sweep", "--config", "big.cfg"]
    else:
        values = {"--n": "8", "--k": "2", "--q-cr": "0.3", "--M-cr": "3", "--M-e": "3", flag: str(2**1024)}
        argv = ["analytics", *(word for pair in values.items() for word in pair)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: int too large to convert to float\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["big.cfg"] if flag == "sweep" else [])


def cli_import_prints(expression):
    """What ``expression`` prints after ``import sys, eacsim.cli`` in a fresh interpreter."""
    src = str(Path(eacsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, eacsim.cli; print({expression})"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def cli_import_loads(module):
    """Whether ``import eacsim.cli`` in a fresh interpreter puts ``module`` in sys.modules."""
    return cli_import_prints(f"{module!r} in sys.modules") == "True"


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency: the runtime must not import it
    assert not cli_import_loads("scipy")


def test_cli_import_leaves_tomllib_out():
    # only sweep parses a config, so tomllib is imported there and not at start-up
    assert not cli_import_loads("tomllib")


def test_cli_import_leaves_statistics_out():
    # channel's normal quantile is a literal: statistics, with fractions and decimal, would
    # add milliseconds to every start
    assert not cli_import_loads("statistics")


def test_cli_import_runs_no_dense_code():
    # statevector stays in sys.modules, where the benchmark's tracer looks it up, as a lazy
    # module: its code runs when a name is first read from it, never at CLI start-up
    namespace = "object.__getattribute__(sys.modules['eacsim.statevector'], '__dict__')"
    assert cli_import_prints(f"'StateVector' in {namespace}") == "False"


def test_only_cli_writes_files():
    # the library yields text and bytes: no module but cli calls open, print or a
    # .write/.writelines method, and in cli only _write calls open
    for path in sorted(Path(eacsim.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for call in (node for node in ast.walk(top) if isinstance(node, ast.Call)):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                where = f"{path.name}:{call.lineno} calls {name}"
                if path.name != "cli.py":
                    assert name not in ("open", "print", "write", "writelines"), where
                elif isinstance(call.func, ast.Name) and name == "open":
                    assert getattr(top, "name", None) == "_write", where


TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import eacsim.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
codes = [eacsim.cli.main(["reproduce", "--figure", "fig9", "--trials", "50", "--out-dir", "."]),
         eacsim.cli.main(["sweep", "--config", "sweep.cfg", "--out", "sweep.csv"])]
print(json.dumps({"codes": codes, "node_slots": tracer.layer_metrics()["channel.node_slots"]}))
"""


def test_traced_benchmark_path_runs(tmp_path):
    # the benchmark's tracer binds the estimators' arguments by name (n, params, trials),
    # so a rename shows here and not only in a traced benchmark run
    src = Path(eacsim.__file__).resolve().parents[1]
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    (tmp_path / "sweep.cfg").write_text(SWEEP_CFG.replace("trials = 4000", "trials = 50"))
    done = subprocess.run([sys.executable, "-c", TRACED_RUN, str(src.parent / "perfbench")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0] and result["node_slots"] > 0
