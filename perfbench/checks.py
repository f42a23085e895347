"""Output checks: is what a CLI command produced correct?

`check_command` returns a list of problems; an empty list means the command
produced a correct result.  Every problem counts the command as failed.

The checks compute their references here, independently of the package:

* Monte Carlo rows are compared with the closed forms below.  A row passes
  when its estimate lies within 5 standard errors of the closed form, or --
  where the expected count is too small for the normal approximation -- when
  the exact binomial tail of the estimate is at least the one-sided 5-sigma
  tail.  When the closed form is 0 or 1 the estimate must match exactly.
  Sample values are never pinned, so a change of random draws still passes.
* Analytic curve rows must match the closed forms to 1e-9.
* Transcript lines must hold a weight-k ``d_vector``, the ancilla word the
  encoder computes from it, the winners it names and, for k = 2, loser
  outcomes whose parity matches the Bell label.  Per-node win rates must be
  within 5 standard errors of k/n.
* A codebook must hold C(n, k) distinct words and winner sets, and each word
  must be G.d for the matrix G of the emitted circuit.
* ``encode`` may exit 3 only when the search ran out of tries; it is a correct
  answer when stderr names an ell in (target, n-1] that is workable.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np

Z_MAX = 5.0
TAIL_MIN = 0.5 * math.erfc(Z_MAX / math.sqrt(2.0))  # one-sided P(Z > 5)
CURVE_TOL = 1e-9


# ---------------------------------------------------------------- closed forms

def p_full(n, q, m) -> float:
    """All n nodes connected after m slots."""
    return (1.0 - q**m) ** n


def p_state(n, j, q, m) -> float:
    """Exactly j of n nodes connected after m slots."""
    n, j = int(n), int(j)
    return math.comb(n, j) * (1.0 - q**m) ** j * (q**m) ** (n - j)


def p_success(k, q_cr, q_e, m) -> float:
    """All k winners hold both ebits at the decision horizon m."""
    return ((1.0 - q_cr**m) * (1.0 - q_e**m)) ** k


def q_threshold(n, m, epsilon) -> float:
    """The q at which P[all n connected after m slots] = 1 - epsilon."""
    return (-math.expm1(math.log1p(-epsilon) / n)) ** (1.0 / m)


def binomial_tail(count: int, trials: int, p: float) -> float:
    """P[X >= count] above the mean, P[X <= count] below it; X ~ Bin(trials, p)."""
    step = 1 if count > trials * p else -1
    log_norm = math.lgamma(trials + 1)
    log_p, log_q = math.log(p), math.log1p(-p)
    total, x = 0.0, count
    while 0 <= x <= trials:  # terms fall monotonically away from the mean
        term = math.exp(log_norm - math.lgamma(x + 1) - math.lgamma(trials - x + 1)
                        + x * log_p + (trials - x) * log_q)
        total += term
        if term <= total * 1e-17:
            break
        x += step
    return total


def mc_consistent(estimate: float, p: float, trials: int) -> bool:
    """Is a Monte Carlo frequency over ``trials`` consistent with probability p?"""
    if p in (0.0, 1.0):
        return estimate == p
    if abs(estimate - p) <= Z_MAX * math.sqrt(p * (1.0 - p) / trials):
        return True
    return binomial_tail(round(estimate * trials), trials, p) >= TAIL_MIN


# ---------------------------------------------------------------- figures

def _r(row, key):
    return float(row[key])


# file -> (rows, expected values of the row's columns)
CURVES = {
    "fig8.csv": (1616, lambda r: {
        "p_full": p_full(_r(r, "n"), _r(r, "q"), _r(r, "M")),
        "p_one_shot": p_full(_r(r, "n"), _r(r, "q"), 1)}),
    "fig8_thresholds.csv": (4, lambda r: {
        "q_bar": q_threshold(_r(r, "n"), _r(r, "M"), _r(r, "epsilon"))}),
    "fig8l.csv": (140, lambda r: {"p_full": p_full(_r(r, "n"), _r(r, "q"), _r(r, "m"))}),
    "fig9.csv": (50, lambda r: {"p_s": p_success(_r(r, "k"), _r(r, "q"), 0.0, _r(r, "M"))}),
    "fig10.csv": (270, lambda r: {
        "p_state": p_state(_r(r, "n"), _r(r, "j"), _r(r, "q"), _r(r, "M"))}),
    "fig11.csv": (240, lambda r: {
        "p_s": p_success(_r(r, "k"), _r(r, "q_cr"), _r(r, "q_e"), _r(r, "M"))}),
}
# file -> (rows, closed form of the row's estimate)
MONTE_CARLO = {
    "fig8_mc.csv": (24, lambda r: p_full(_r(r, "n"), _r(r, "q"), _r(r, "M"))),
    "fig8l_mc.csv": (40, lambda r: p_full(_r(r, "n"), _r(r, "q"), _r(r, "m"))),
    "fig9_mc.csv": (50, lambda r: p_success(_r(r, "k"), _r(r, "q"), 0.0, _r(r, "M"))),
    "fig10_mc.csv": (34, lambda r: p_state(_r(r, "n"), _r(r, "j"), _r(r, "q"), _r(r, "M"))),
    "fig11_mc.csv": (48, lambda r: p_success(
        _r(r, "k"), _r(r, "q_cr"), _r(r, "q_e"), _r(r, "M"))),
}
FIGURE_FILES = {
    "fig8": ("fig8.csv", "fig8_thresholds.csv", "fig8_mc.csv"),
    "fig8l": ("fig8l.csv", "fig8l_mc.csv"),
    "fig9": ("fig9.csv", "fig9_mc.csv"),
    "fig10": ("fig10.csv", "fig10_mc.csv"),
    "fig11": ("fig11.csv", "fig11_mc.csv"),
}


def _read_csv(path: Path, rows: int, problems: list) -> list[dict]:
    if not path.is_file():
        problems.append(f"{path.name}: missing")
        return []
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    if len(records) != rows:
        problems.append(f"{path.name}: {len(records)} rows, expected {rows}")
    return records


def _check_mc_rows(name, records, closed_form, trials, seed, problems) -> None:
    for i, row in enumerate(records):
        p, estimate = closed_form(row), _r(row, "estimate")
        lo, hi = _r(row, "ci_low"), _r(row, "ci_high")
        if int(row["trials"]) != trials or int(row["seed"]) != seed:
            problems.append(f"{name} row {i}: trials/seed {row['trials']}/{row['seed']}")
        if not 0.0 <= lo <= estimate <= hi <= 1.0:
            problems.append(f"{name} row {i}: interval [{lo}, {hi}] misses {estimate}")
        if not mc_consistent(estimate, p, trials):
            problems.append(f"{name} row {i}: estimate {estimate} vs closed form {p}")


def check_reproduce(opts: dict, workdir: Path) -> list[str]:
    problems: list[str] = []
    trials, seed = int(opts["--trials"]), int(opts["--seed"])
    for name in FIGURE_FILES[opts["--figure"]]:
        if name in CURVES:
            rows, expected = CURVES[name]
            for i, row in enumerate(_read_csv(workdir / name, rows, problems)):
                for column, value in expected(row).items():
                    if not math.isclose(_r(row, column), value,
                                        rel_tol=CURVE_TOL, abs_tol=CURVE_TOL):
                        problems.append(f"{name} row {i}: {column}={row[column]}, "
                                        f"closed form {value!r}")
        else:
            rows, closed_form = MONTE_CARLO[name]
            records = _read_csv(workdir / name, rows, problems)
            _check_mc_rows(name, records, closed_form, trials, seed, problems)
    return problems


def check_sweep(opts: dict, grid: dict, workdir: Path) -> list[str]:
    problems: list[str] = []
    lists = [grid[key] if isinstance(grid[key], list) else [grid[key]]
             for key in ("n", "k", "q_cr", "q_e", "M_cr", "M_e")]
    points = sorted((n, k, q_cr, q_e, min(m_cr, m_e))
                    for n, k, q_cr, q_e, m_cr, m_e in itertools.product(*lists))
    records = _read_csv(workdir / opts["--out"], len(points), problems)
    found = sorted((int(r["n"]), int(r["k"]), _r(r, "q_cr"), _r(r, "q_e"), int(r["M"]))
                   for r in records)
    if found != points:
        problems.append("sweep.csv: grid points differ from the config")

    def closed_form(row):
        return p_success(_r(row, "k"), _r(row, "q_cr"), _r(row, "q_e"), _r(row, "M"))

    for i, row in enumerate(records):
        if not math.isclose(_r(row, "analytic"), closed_form(row),
                            rel_tol=CURVE_TOL, abs_tol=CURVE_TOL):
            problems.append(f"sweep.csv row {i}: analytic {row['analytic']}")
    _check_mc_rows("sweep.csv", records, closed_form, grid["trials"], grid["seed"], problems)
    return problems


# ---------------------------------------------------------------- contend

def linear_matrix(n: int) -> np.ndarray:
    """G of the linear encoder: ancilla i copies data bit i+1 (1-based)."""
    return np.eye(n - 1, n, dtype=np.int64)


def check_contend(opts: dict, stdout: str, workdir: Path) -> list[str]:
    n, k, runs, seed = (int(opts[f]) for f in ("--n", "--k", "--runs", "--seed"))
    if opts.get("--kind", "linear") != "linear":
        return ["contend: only linear-encoder transcripts are checked"]
    summary = json.loads(stdout)
    lines = (workdir / summary["transcript"]).read_text().splitlines()
    records = json.loads("[" + ",".join(lines) + "]")
    if len(records) != runs:
        return [f"contend: {len(records)} transcript lines, expected {runs}"]
    problems: list[str] = []
    d = np.array([r["d_vector"] for r in records], dtype=np.int64)
    if d.shape != (runs, n) or not np.isin(d, (0, 1)).all():
        return [f"contend: d_vector shape {d.shape} or entries not bits"]
    bad = np.flatnonzero(d.sum(axis=1) != k)
    if bad.size:
        problems.append(f"contend line {bad[0]}: d_vector weight is not k={k}")
    words = np.array([r["ancilla_word"] for r in records], dtype=np.int64)
    if words.shape != (runs, n - 1) or not (words == (d @ linear_matrix(n).T) % 2).all():
        problems.append("contend: ancilla word differs from G.d")
    winners = [[i + 1 for i in np.flatnonzero(row)] for row in d]
    if any(r["winners"] != w for r, w in zip(records, winners)):
        problems.append("contend: winners differ from d_vector")
    if any(r["seed"] != seed for r in records):
        problems.append("contend: seed field differs from --seed")
    if k == 2:
        g = np.array([[-1 if x is None else x for x in r["g"]] for r in records])
        if g.shape != (runs, n) or not ((g == -1) == (d == 1)).all() \
                or not np.isin(g[d == 0], (0, 1)).all():
            problems.append("contend: g must be None for winners and a bit for losers")
        parity = np.where(g > 0, g, 0).sum(axis=1) % 2
        labels = np.array([r["bell_state"] for r in records])
        expected = np.where(parity == 1, "phi_minus", "phi_plus")
        if not (np.array([r["g_parity"] for r in records]) == parity).all() \
                or not (labels == expected).all():
            problems.append("contend: g_parity or Bell label does not match loser parity")
    rates = np.asarray(summary.get("node_win_rates", []), dtype=float)
    if rates.shape != (n,) or not np.allclose(rates, d.mean(axis=0), rtol=0, atol=1e-12):
        problems.append("contend: summary win rates differ from the transcript")
    else:
        p = k / n
        z = np.abs(rates - p) / math.sqrt(p * (1 - p) / runs)
        if (z > Z_MAX).any():
            problems.append(f"contend: node win rates {rates.tolist()} inconsistent with k/n")
    return problems


# ---------------------------------------------------------------- encode

# Injective encoders found offline, as row bitmasks (bit i = data qubit i+1),
# at one ancilla above the compressed target.  Any claimed ell at or above a
# witness's is workable: extra rows keep a map injective.
WITNESSES = {
    (12, 2): (8, (375, 3750, 1035, 513, 291, 3219, 3555, 2429)),
    (8, 2): (6, (68, 184, 210, 91, 177, 34)),
    (10, 3): (8, (853, 999, 423, 373, 1003, 55, 810, 360)),
    (12, 3): (9, (821, 376, 2144, 3167, 1267, 2636, 1354, 3098, 3764)),
    (16, 2): (8, (10864, 31652, 2706, 28046, 21740, 21155, 56962, 47672)),
}
SEARCH_BATCHES = 20
SEARCH_BATCH = 1000


def slice_bits(n: int, k: int) -> np.ndarray:
    """C(n,k) x n matrix of all weight-k outcomes."""
    rows = np.zeros((math.comb(n, k), n), dtype=np.int64)
    for i, ones in enumerate(itertools.combinations(range(n), k)):
        rows[i, list(ones)] = 1
    return rows


def injective(matrices: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """For a (batch, ell, n) stack of GF(2) matrices: which are injective on ``outcomes``."""
    words = (matrices @ outcomes.T) % 2  # (batch, ell, outcomes)
    packed = np.einsum("bjc,j->bc", words, 1 << np.arange(matrices.shape[1], dtype=np.int64))
    ordered = np.sort(packed, axis=1)
    return ~(np.diff(ordered, axis=1) == 0).any(axis=1)


def workable(n: int, k: int, ell: int) -> bool:
    """Does some ell x n GF(2) matrix separate all weight-k outcomes?"""
    if ell >= n - 1:
        return True  # the linear encoder
    if 2**ell < math.comb(n, k):
        return False
    outcomes = slice_bits(n, k)
    if (n, k) in WITNESSES:
        w_ell, rows = WITNESSES[(n, k)]
        g = np.array([[(row >> i) & 1 for i in range(n)] for row in rows], dtype=np.int64)
        if ell >= w_ell and injective(g[None], outcomes)[0]:
            return True
    rng = np.random.default_rng(0)
    for _ in range(SEARCH_BATCHES):
        batch = rng.integers(0, 2, size=(SEARCH_BATCH, ell, n), dtype=np.int64)
        if injective(batch, outcomes).any():
            return True
    return False


def _circuit_matrix(text: str, n: int) -> tuple[int, np.ndarray]:
    lines = text.splitlines()
    ell = int(re.search(r"\bell=(\d+)", lines[0]).group(1))
    g = np.zeros((ell, n), dtype=np.int64)
    for line in lines[1:]:
        control, target = map(int, re.fullmatch(r"CNOT d(\d+) a(\d+)", line).groups())
        g[target, control - 1] ^= 1
    return ell, g


def check_codebook(n: int, k: int, circuit_text: str, codebook_text: str) -> list[str]:
    problems: list[str] = []
    ell, g = _circuit_matrix(circuit_text, n)
    lines = codebook_text.splitlines()
    if lines[:1] != [",".join([f"a_{j}" for j in range(ell)] + ["winners"])]:
        return ["encode: codebook header does not match the circuit's ell"]
    rows = [line.rsplit(",", 1) for line in lines[1:]]
    if len(rows) != math.comb(n, k):
        problems.append(f"encode: {len(rows)} codebook rows, expected C({n},{k})")
    words = np.array([bits.split(",") for bits, _ in rows], dtype=np.int64)
    winners = [tuple(int(w) for w in names.split()) for _, names in rows]
    if len(set(map(tuple, words.tolist()))) != len(rows):
        problems.append("encode: codebook words are not distinct")
    if len(set(winners)) != len(rows) or any(
            len(w) != k or list(w) != sorted(w) or not 1 <= w[0] <= w[-1] <= n
            for w in winners):
        problems.append("encode: winner sets are not distinct sorted k-subsets of 1..n")
        return problems
    d = np.zeros((len(rows), n), dtype=np.int64)
    for i, w in enumerate(winners):
        d[i, [x - 1 for x in w]] = 1
    if words.shape != (len(rows), ell) or not (words == (d @ g.T) % 2).all():
        problems.append("encode: codebook word differs from G.d of the emitted circuit")
    return problems


def check_encode(opts: dict, rc: int, stderr: str, workdir: Path) -> list[str]:
    n, k, kind = int(opts["--n"]), int(opts["--k"]), opts.get("--kind", "linear")
    if kind == "linear":
        target = n - 1
    else:
        target = int(opts["--ell"]) if "--ell" in opts else max(
            1, math.ceil(math.log2(math.comb(n, k))))
    if rc == 3:
        named = [int(v) for v in re.findall(r"\bell\s*=\s*(\d+)", stderr)]
        if kind == "binary" and any(target < ell <= n - 1 and workable(n, k, ell)
                                    for ell in named):
            return []
        return [f"encode: exit 3 without a workable ell in ({target}, {n - 1}]: {stderr!r}"]
    tag = f"{kind}_n{n}_k{k}"
    circuit = (workdir / f"encoder_{tag}.txt").read_text()
    codebook = (workdir / f"codebook_{tag}.csv").read_text()
    problems = check_codebook(n, k, circuit, codebook)
    ell = _circuit_matrix(circuit, n)[0]
    if ell != target:
        problems.append(f"encode: ell={ell}, expected {target}")
    return problems


# ---------------------------------------------------------------- dispatch

def check_command(argv, result: dict, workdir: Path, sweep: dict | None = None) -> list[str]:
    """Problems with one command's result (exit code, output files, stdout/stderr)."""
    if result.get("traceback"):
        return [f"{argv[0]}: traceback\n{result['traceback']}"]
    rc = result.get("rc")
    opts = dict(zip(argv[1::2], argv[2::2]))
    try:
        if argv[0] == "encode" and rc in (0, 3):
            return check_encode(opts, rc, result["stderr"], workdir)
        if rc != 0:
            return [f"{argv[0]}: exit code {rc}: {result.get('stderr', '')!r}"]
        if argv[0] == "reproduce":
            return check_reproduce(opts, workdir)
        if argv[0] == "sweep":
            return check_sweep(opts, sweep, workdir)
        if argv[0] == "contend":
            return check_contend(opts, result["stdout"], workdir)
    except Exception as exc:  # malformed or missing output: a failed command, not a crash
        return [f"{argv[0]}: output check raised {exc!r}"]
    return [f"{argv[0]}: no check for this command"]
