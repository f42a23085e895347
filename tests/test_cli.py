"""Command-line front end: files, formats, determinism, exit codes."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eacsim
from eacsim.cli import UsageError, main, parse_sweep_config

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


@pytest.mark.parametrize("ell", ["0", "-1"])
def test_encode_ell_below_one_is_usage_error(tmp_path, capsys, ell):
    code = main(["encode", "--kind", "binary", "--n", "4", "--k", "2",
                 "--ell", ell, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "ell >= 1" in capsys.readouterr().err


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


def test_contend_capacity_exit(tmp_path):
    # C(40,20) * (40 + 39) bytes of slice and words exceed the 256 MiB cap
    assert main(["contend", "--n", "40", "--k", "20", "--runs", "1",
                 "--out", str(tmp_path / "t.jsonl")]) == 4


def test_encode_capacity_exit(tmp_path):
    assert main(["encode", "--n", "40", "--k", "20", "--out-dir", str(tmp_path)]) == 4


def test_contend_past_dense_register(tmp_path):
    # n=13 needs a 25-qubit register, past the dense cap; the classical path runs it
    out = tmp_path / "t.jsonl"
    assert main(["contend", "--n", "13", "--k", "2", "--runs", "50", "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        record = json.loads(line)
        d = record["d_vector"]
        assert sum(d) == 2
        assert record["ancilla_word"] == d[:12]  # linear encoder: a_i = d_{i+1}


def test_contend_runs_checked_before_synthesis(tmp_path, capsys):
    # a binary (16,2) synthesis would exhaust its search first
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


@pytest.mark.parametrize("figure", ["fig8", "fig8l", "fig9", "fig10", "fig11"])
def test_reproduce_zero_trials_is_usage_error(tmp_path, capsys, figure):
    for trials in ("0", "-1"):
        assert main(["reproduce", "--figure", figure, "--trials", trials,
                     "--out-dir", str(tmp_path)]) == 2
        assert f"trials={trials}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # checked before any file is written


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


def test_sweep_config_is_directory(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EACSIM_OUT_DIR", str(tmp_path / "envout"))
    assert main(["encode", "--n", "4", "--k", "2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "envout" / "encoder_linear_n4_k2.txt").exists()


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency: the runtime must not import it
    src = str(Path(eacsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, eacsim.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
