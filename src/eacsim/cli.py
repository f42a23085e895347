"""Command-line front end.

Subcommands wrap the library: ``encode`` emits encoder circuits and
codebooks, ``contend`` samples contention rounds classically (no
statevector) and writes a JSON-lines transcript, ``analytics`` tabulates
the closed-form quantities, ``reproduce`` regenerates the figure datasets
(analytic curves plus Monte Carlo overlays with confidence intervals), and
``sweep`` runs a Cartesian parameter grid from a config file.

Conventions: output is deterministic for a given (command, flags, seed);
the master seed defaults to 0 and is echoed in emitted metadata; CSV uses a
header row and '.' decimals.  Exit codes: 0 success, 2 usage error or a path
that cannot be read or written, 3 encoder synthesis failure, 4 capacity
exceeded (``encode`` and ``contend`` refuse a weight-k slice whose C(n,k)
outcomes and ancilla words would pass ``encoder.SLICE_BYTES_CAP``, 256
MiB; any command whose arrays cannot be allocated, e.g. 10**15 trials, exits
4 too).  The environment variable EACSIM_OUT_DIR overrides the output directory.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from . import channel, markov, protocol
from .channel import ChannelParams, make_rng, normal_ci
from .encoder import (
    SynthesisFailed,
    _format_int_rows,
    build_binary_encoder,
    build_linear_encoder,
    format_circuit,
    verify_injectivity,
    write_codebook_csv,
)
from .statevector import CapacityError
from .states import DickeSpec

DEFAULT_SEED = 0
DEFAULT_EPSILON = 1e-5


class UsageError(ValueError):
    """Bad parameters or malformed input file."""


def _out_dir(args) -> Path:
    base = args.out_dir or os.environ.get("EACSIM_OUT_DIR") or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _build_encoder(spec: DickeSpec, kind: str, seed: int, ell: int | None):
    if kind == "linear":
        return build_linear_encoder(spec)
    return build_binary_encoder(spec, make_rng(seed), ell=ell)


# ---------------------------------------------------------------- encode

def cmd_encode(args) -> int:
    try:
        spec = DickeSpec(args.n, args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    circuit = _build_encoder(spec, args.kind, args.seed, args.ell)
    codebook = verify_injectivity(circuit, spec)
    out = _out_dir(args)
    tag = f"{args.kind}_n{args.n}_k{args.k}"
    circuit_path = out / f"encoder_{tag}.txt"
    codebook_path = out / f"codebook_{tag}.csv"
    circuit_path.write_text(format_circuit(circuit))
    with open(codebook_path, "w", newline="\n") as fh:
        write_codebook_csv(codebook, fh)
    print(f"encoder: {circuit_path}")
    print(f"codebook: {codebook_path} ({len(codebook.words)} words)")
    print(f"cnots: {len(circuit.cnots)} ell: {circuit.ell} seed: {args.seed}")
    return 0


# ---------------------------------------------------------------- contend

def cmd_contend(args) -> int:
    try:
        spec = DickeSpec(args.n, args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.runs < 1:
        raise UsageError(f"--runs must be >= 1, got {args.runs}")
    circuit = _build_encoder(spec, args.kind, args.seed, None)
    rng = make_rng(args.seed)
    d_bits, a_bits = protocol.sample_contention_outcomes(spec, circuit, args.runs, rng)
    if spec.k == 2:
        g_matrix, parity = protocol.sample_loser_outcomes(spec.n, d_bits, rng)
    else:
        g_matrix = parity = None

    out_path = Path(args.out) if args.out else _out_dir(args) / f"contend_n{args.n}_k{args.k}.jsonl"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="\n") as fh:
        protocol.write_transcript_arrays(d_bits, a_bits, g_matrix, parity, args.seed, fh)

    subsets, _, counts = protocol.unique_rows(d_bits)
    keys = b"".join(_format_int_rows([(subsets != 0, b" "), b"\n"])).decode("ascii").splitlines()
    summary = {
        "n": spec.n,
        "k": spec.k,
        "kind": args.kind,
        "runs": args.runs,
        "seed": args.seed,
        "transcript": str(out_path),
        "node_win_rates": [float(d_bits[:, i].mean()) for i in range(spec.n)],
        "subset_rates": {key: count / args.runs for key, count in zip(keys, counts.tolist())},
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------- analytics

def _analytics_rows(args) -> list[tuple]:
    params = ChannelParams(q_cr=args.q_cr, q_e=args.q_e, M_cr=args.m_cr, M_e=args.m_e)
    m_bar = params.m_bar
    rows = [
        ("m_bar", m_bar),
        ("success_cr", markov.success_prob(args.k, args.q_cr, args.m_cr)),
        ("success_e", markov.success_prob(args.k, args.q_e, args.m_e)),
        ("success_fully_noisy", markov.success_prob_fully_noisy(args.k, params)),
        ("absorbing_threshold", markov.absorbing_threshold(args.n, m_bar, args.epsilon)),
        ("dicke_joint", markov.dicke_outcome_probability(args.n, args.k)[0]),
        ("dicke_marginal", markov.dicke_outcome_probability(args.n, args.k)[1]),
    ]
    for j in range(args.n + 1):
        rows.append((f"state_prob_cr[j={j}]", markov.state_prob(args.n, j, args.q_cr, args.m_cr)))
    return rows


def cmd_analytics(args) -> int:
    try:
        rows = _analytics_rows(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "table":
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            print(f"{name:<{width}}  {shown}")
    elif args.format == "json":
        payload = {name: value for name, value in rows}
        _emit_text(args, json.dumps(payload, indent=2) + "\n")
    else:  # csv
        lines = ["quantity,value"] + [f"{name},{_fmt(value)}" for name, value in rows]
        _emit_text(args, "\n".join(lines) + "\n")
    return 0


def _emit_text(args, text: str) -> None:
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- reproduce

FIG8_M = (3, 5, 10, 20)
FIG8_N = (5, 10, 15, 20)
FIG8_Q = [round(0.01 * i, 2) for i in range(101)]
FIG8_MC_Q = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
FIG8L_Q = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
FIG8L_M_MAX = 20
FIG9_Q = (0.1, 0.3, 0.5, 0.7, 0.9)
FIG10_N = (5, 10, 15, 20)
FIG10_Q = (0.1, 0.3, 0.5, 0.7, 0.9)
FIG11_QCR = (0.3, 0.5, 0.7)
FIG11_QE = (0.0, 0.1, 0.3, 0.5, 0.7)


def _mc_row(prefix: tuple, estimate: float, trials: int, seed: int) -> tuple:
    lo, hi = normal_ci(estimate, trials)
    return prefix + (estimate, lo, hi, trials, seed)


def _reproduce_fig8(out: Path, trials: int, seed: int) -> list[Path]:
    rows = [
        (m, n, q, markov.state_prob(n, n, q, m), markov.state_prob(n, n, q, 1))
        for m in FIG8_M for n in FIG8_N for q in FIG8_Q
    ]
    p_curves = out / "fig8.csv"
    _write_csv(p_curves, ("M", "n", "q", "p_full", "p_one_shot"), rows)

    thr_rows = [
        (m, DEFAULT_EPSILON, max(FIG8_N), markov.absorbing_threshold_worst_case(FIG8_N, m))
        for m in FIG8_M
    ]
    p_thr = out / "fig8_thresholds.csv"
    _write_csv(p_thr, ("M", "epsilon", "n", "q_bar"), thr_rows)

    rng = make_rng(seed)
    mc_rows = []
    for m in (3, 20):
        for n in (10, 20):
            for q in FIG8_MC_Q:
                hist = channel.empirical_state_distribution(n, q, m, trials, rng)
                mc_rows.append(_mc_row((m, n, q), float(hist[n]), trials, seed))
    p_mc = out / "fig8_mc.csv"
    _write_csv(p_mc, ("M", "n", "q", "estimate", "ci_low", "ci_high", "trials", "seed"), mc_rows)
    return [p_curves, p_thr, p_mc]


def _reproduce_fig8l(out: Path, trials: int, seed: int) -> list[Path]:
    n = 10
    rows = [
        (n, q, m, markov.state_prob(n, n, q, m))
        for q in FIG8L_Q for m in range(1, FIG8L_M_MAX + 1)
    ]
    p_curves = out / "fig8l.csv"
    _write_csv(p_curves, ("n", "q", "m", "p_full"), rows)

    rng = make_rng(seed)
    mc_rows = []
    for q in (0.2, 0.4):
        traj = channel.empirical_full_connection_by_slot(n, q, FIG8L_M_MAX, trials, rng)
        for m in range(1, FIG8L_M_MAX + 1):
            mc_rows.append(_mc_row((n, q, m), float(traj[m - 1]), trials, seed))
    p_mc = out / "fig8l_mc.csv"
    _write_csv(p_mc, ("n", "q", "m", "estimate", "ci_low", "ci_high", "trials", "seed"), mc_rows)
    return [p_curves, p_mc]


def _reproduce_fig9(out: Path, trials: int, seed: int) -> list[Path]:
    n, m = 10, 3
    rows = [(n, m, q, k, markov.success_prob(k, q, m)) for q in FIG9_Q for k in range(1, n + 1)]
    p_curves = out / "fig9.csv"
    _write_csv(p_curves, ("n", "M", "q", "k", "p_s"), rows)

    rng = make_rng(seed)
    mc_rows = []
    for q in FIG9_Q:
        for k in range(1, n + 1):
            params = ChannelParams(q_cr=q, q_e=0.0, M_cr=m, M_e=m)
            est = channel.empirical_contention_success(n, k, params, trials, rng)
            mc_rows.append(_mc_row((n, m, q, k), est, trials, seed))
    p_mc = out / "fig9_mc.csv"
    _write_csv(p_mc, ("n", "M", "q", "k", "estimate", "ci_low", "ci_high", "trials", "seed"), mc_rows)
    return [p_curves, p_mc]


def _reproduce_fig10(out: Path, trials: int, seed: int) -> list[Path]:
    m = 3
    rows = [
        (m, n, q, j, markov.state_prob(n, j, q, m))
        for n in FIG10_N for q in FIG10_Q for j in range(n + 1)
    ]
    p_curves = out / "fig10.csv"
    _write_csv(p_curves, ("M", "n", "q", "j", "p_state"), rows)

    rng = make_rng(seed)
    mc_rows = []
    for n in (5, 10):
        for q in (0.3, 0.7):
            hist = channel.empirical_state_distribution(n, q, m, trials, rng)
            for j in range(n + 1):
                mc_rows.append(_mc_row((m, n, q, j), float(hist[j]), trials, seed))
    p_mc = out / "fig10_mc.csv"
    _write_csv(p_mc, ("M", "n", "q", "j", "estimate", "ci_low", "ci_high", "trials", "seed"), mc_rows)
    return [p_curves, p_mc]


def _reproduce_fig11(out: Path, trials: int, seed: int) -> list[Path]:
    n = 8
    rows = []
    for m in (3, 10):
        for q_cr in FIG11_QCR:
            for q_e in FIG11_QE:
                params = ChannelParams(q_cr=q_cr, q_e=q_e, M_cr=m, M_e=m)
                for k in range(1, n + 1):
                    rows.append((n, m, q_cr, q_e, k, markov.success_prob_fully_noisy(k, params)))
    p_curves = out / "fig11.csv"
    _write_csv(p_curves, ("n", "M", "q_cr", "q_e", "k", "p_s"), rows)

    rng = make_rng(seed)
    mc_rows = []
    for m in (3, 10):
        for q_cr in (0.3, 0.7):
            for q_e in (0.0, 0.3, 0.7):
                params = ChannelParams(q_cr=q_cr, q_e=q_e, M_cr=m, M_e=m)
                for k in (2, 4, 6, 8):
                    est = channel.empirical_contention_success(n, k, params, trials, rng)
                    mc_rows.append(_mc_row((n, m, q_cr, q_e, k), est, trials, seed))
    p_mc = out / "fig11_mc.csv"
    _write_csv(
        p_mc,
        ("n", "M", "q_cr", "q_e", "k", "estimate", "ci_low", "ci_high", "trials", "seed"),
        mc_rows,
    )
    return [p_curves, p_mc]


_FIGURES = {
    "fig8": _reproduce_fig8,
    "fig8l": _reproduce_fig8l,
    "fig9": _reproduce_fig9,
    "fig10": _reproduce_fig10,
    "fig11": _reproduce_fig11,
}


def cmd_reproduce(args) -> int:
    if args.trials < 1:
        raise UsageError(f"trials={args.trials} must be >= 1")
    out = _out_dir(args)
    paths = _FIGURES[args.figure](out, args.trials, args.seed)
    for path in paths:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- sweep

_SWEEP_TYPES = {
    "n": int, "k": int, "q_cr": float, "q_e": float,
    "M_cr": int, "M_e": int, "trials": int, "seed": int,
}
_GRID_KEYS = ("n", "k", "q_cr", "q_e", "M_cr", "M_e")


def parse_sweep_config(text: str) -> dict:
    """Parse the line-oriented ``key = value`` sweep format.

    Grid keys (n, k, q_cr, q_e, M_cr, M_e) accept either a scalar or a
    ``[a, b, c]`` list; trials and seed are scalars.  Raises UsageError
    naming the offending key on any malformed entry.
    """
    config: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SWEEP_TYPES:
            raise UsageError(f"unknown key '{key}' (line {lineno})")
        if key in config:
            raise UsageError(f"duplicate key '{key}' (line {lineno})")
        cast = _SWEEP_TYPES[key]
        try:
            if value.startswith("[") and value.endswith("]"):
                if key not in _GRID_KEYS:
                    raise UsageError(f"key '{key}' does not accept a list")
                items = [v.strip() for v in value[1:-1].split(",") if v.strip()]
                if not items:
                    raise UsageError(f"empty list for key '{key}'")
                config[key] = [cast(v) for v in items]
            else:
                config[key] = cast(value)
        except UsageError:
            raise
        except ValueError:
            raise UsageError(f"invalid value for key '{key}': {value!r}") from None
    for key in _GRID_KEYS:
        if key not in config:
            raise UsageError(f"missing required key '{key}'")
    config.setdefault("trials", 0)
    config.setdefault("seed", DEFAULT_SEED)
    if config["trials"] < 0:
        raise UsageError(f"trials must be >= 0 (0 = analytic only), got {config['trials']}")
    return config


SWEEP_COLUMNS = ("n", "k", "q_cr", "q_e", "M", "analytic",
                 "estimate", "ci_low", "ci_high", "trials", "seed")


def sweep_rows(config: dict) -> list[tuple]:
    grids = [config[key] if isinstance(config[key], list) else [config[key]]
             for key in _GRID_KEYS]
    trials, seed = config["trials"], config["seed"]
    rows = []
    for index, (n, k, q_cr, q_e, m_cr, m_e) in enumerate(itertools.product(*grids)):
        if not 1 <= k <= n:
            raise UsageError(f"grid point has k={k} outside 1..n={n}")
        params = ChannelParams(q_cr=q_cr, q_e=q_e, M_cr=m_cr, M_e=m_e)
        analytic = markov.success_prob_fully_noisy(k, params)
        if trials > 0:
            rng = channel.split_rng(seed, index)
            est = channel.empirical_contention_success(n, k, params, trials, rng)
            lo, hi = normal_ci(est, trials)
        else:
            est = lo = hi = None
        rows.append((n, k, q_cr, q_e, params.m_bar, analytic, est, lo, hi, trials, seed))
    return rows


def cmd_sweep(args) -> int:
    path = Path(args.config)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    config = parse_sweep_config(path.read_text())
    rows = sweep_rows(config)
    out_path = Path(args.out) if args.out else _out_dir(args) / "sweep.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out_path, SWEEP_COLUMNS, rows)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eacsim",
        description="Entanglement access control: protocol simulation and noise analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="emit an encoder circuit and its codebook")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=("linear", "binary"), default="linear")
    p.add_argument("--ell", type=int, default=None, help="override the binary ancilla count")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("contend", help="run contention rounds, write a JSONL transcript")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--kind", choices=("linear", "binary"), default="linear")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_contend)

    p = sub.add_parser("analytics", help="closed-form quantities for one parameter point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q-cr", dest="q_cr", type=float, required=True)
    p.add_argument("--q-e", dest="q_e", type=float, default=0.0)
    p.add_argument("--M-cr", dest="m_cr", type=int, required=True)
    p.add_argument("--M-e", dest="m_e", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_analytics)

    p = sub.add_parser("reproduce", help="regenerate a figure dataset")
    p.add_argument("--figure", choices=sorted(_FIGURES), required=True)
    p.add_argument("--trials", type=int, default=20_000, help="Monte Carlo overlay trials")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("sweep", help="Cartesian parameter sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "analytics" and args.m_e is None:
        args.m_e = args.m_cr
    try:
        return args.func(args)
    except (CapacityError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SynthesisFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
