"""Command-line front end.

Subcommands wrap the library: ``encode`` emits encoder circuits and
codebooks, ``contend`` samples contention rounds classically (no
statevector) and writes a JSON-lines transcript a chunk of rounds at a time,
holding each round as its row of the distinct outcomes (at small n, a
lookup into the formatted lines any round can take), ``analytics`` tabulates
the closed-form quantities, ``reproduce`` regenerates the figure datasets
(analytic curves plus Monte Carlo overlays with confidence intervals), and
``sweep`` runs a Cartesian parameter grid from a TOML config file.

Conventions: output is deterministic for a given (command, flags, seed);
the master seed defaults to 0, may be any non-negative integer, and is
echoed in emitted metadata; one builder, ``_mc_rows``, writes every Monte
Carlo row of ``reproduce`` and ``sweep``, each from the analytic row it
overlays (that row's leading columns, then the estimate) and in that row's
order.  Draw groups are numbered by first appearance among the analytic rows
a figure or sweep overlays, and group i reads ``split_rng(seed, i)``: a
group is the rows one estimator call serves, a figure's curve or the sweep
points that differ only in k.  Groups run two at a time, on the calling
thread and one more (``channel._run_draw_groups``), so no byte depends on
which group ends first; no thread outlives ``main``.
``_out_path`` places every output file: ``--out``, else the default name
under ``--out-dir``, $EACSIM_OUT_DIR or '.' (never both flags); ``_write``,
the one file sink (the library yields ASCII bytes and does no I/O), opens it
in binary mode, so files end lines with '\\n'; ``analytics`` without ``--out``
prints to stdout.  ``_csv`` formats every CSV table (header row, '.'
decimals).  Exit codes: 0 success, 2 usage error (a ValueError other than
CapacityError, or an integer too large for a float), a path that cannot be
read or written or a stdout its reader closed, 3 encoder synthesis failure, 4
capacity exceeded: an ``encoder.CapacityError``, whose docstring states the
caps (``encode``'s codebook, the binary construction's slice rule, which
``contend --kind binary`` applies too, ``contend``'s C(n,k) outcome count and
every encoder's CNOT array), or arrays that cannot be allocated, e.g. 10**15 trials.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from . import channel, markov, protocol
from .channel import ChannelParams, make_rng, normal_ci, split_rng
from .encoder import (
    CapacityError,
    SynthesisFailed,
    build_binary_encoder,
    build_linear_encoder,
    codebook_csv,
    format_circuit,
    verify_injectivity,
)
from .markov import DEFAULT_EPSILON
from .states import DickeSpec

DEFAULT_SEED = 0


class UsageError(ValueError):
    """Bad parameters or malformed input file."""


def _out_path(args, name: str | None) -> Path:
    """--out if given, else ``name`` under --out-dir, $EACSIM_OUT_DIR or '.'; makes its parent."""
    base = args.out_dir or os.environ.get("EACSIM_OUT_DIR") or "."
    path = Path(args.out) if args.out else Path(base) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _csv(header, rows) -> str:
    """CSV text of a table: the header row, then one line per row; a field is str(v),
    for a float (a Python float, never numpy's) its shortest round-trip digits, or empty
    for None."""
    return "".join(",".join("" if v is None else str(v) for v in row) + "\n" for row in (header, *rows))


def _write(args, name: str | None, content) -> Path:
    """Write ``content``, the text or an iterable of its ASCII byte chunks, to `_out_path`
    in binary mode, so lines end in '\\n' on every platform; returns the path."""
    path = _out_path(args, name)
    with open(path, "wb") as fh:
        fh.writelines([content.encode()] if isinstance(content, str) else content)
    return path


def _check_seed(seed: int, name: str) -> None:
    if seed < 0:
        raise UsageError(f"{name} must be a non-negative integer, got {seed}")


def _build_encoder(spec: DickeSpec, kind: str, ell: int | None):
    if kind == "binary":
        return build_binary_encoder(spec, ell=ell)
    if ell is not None:  # the linear encoder's width is always n - 1
        raise UsageError("--ell applies only to --kind binary")
    return build_linear_encoder(spec)


# ---------------------------------------------------------------- encode

def cmd_encode(args) -> int:
    spec = DickeSpec(args.n, args.k)
    _check_seed(args.seed, "--seed")
    circuit = _build_encoder(spec, args.kind, args.ell)
    codebook = verify_injectivity(circuit, spec)
    tag = f"{args.kind}_n{args.n}_k{args.k}"
    circuit_path = _write(args, f"encoder_{tag}.txt", format_circuit(circuit))
    codebook_path = _write(args, f"codebook_{tag}.csv", codebook_csv(codebook))
    print(f"encoder: {circuit_path}")
    print(f"codebook: {codebook_path} ({len(codebook.words)} words)")
    print(f"cnots: {len(circuit.cnots)} ell: {circuit.ell} seed: {args.seed}")
    return 0


# ---------------------------------------------------------------- contend

def cmd_contend(args) -> int:
    spec = DickeSpec(args.n, args.k)
    channel._check_count("--runs", args.runs)
    _check_seed(args.seed, "--seed")
    circuit = _build_encoder(spec, args.kind, None)
    rounds = protocol.draw_rounds(spec, circuit, args.runs, make_rng(args.seed))
    out_path = _write(args, f"contend_n{args.n}_k{args.k}.jsonl",
                      protocol.transcript(rounds, args.seed))
    tally = rounds.tally
    del rounds  # its round index goes before the summary's keys and floats come: a lower peak
    summary = {  # keys in sorted order: json writes them as they are, with no sorted copy
        "k": spec.k,
        "kind": args.kind,
        "n": spec.n,
        "node_win_rates": tally.node_win_rates().tolist(),
        "runs": args.runs,
        "seed": args.seed,
        "subset_rates": tally.subset_rates(),
        "transcript": str(out_path),
    }
    # 4096 parts a write: json.dump writes each small part alone, one string copies the text
    text = json.JSONEncoder(indent=2).iterencode(summary)
    while part := "".join(itertools.islice(text, 4096)):
        sys.stdout.write(part)
    print()
    return 0


# ---------------------------------------------------------------- analytics

def _analytics_rows(args) -> list[tuple]:
    m_e = args.m_cr if args.m_e is None else args.m_e
    params = ChannelParams(q_cr=args.q_cr, q_e=args.q_e, M_cr=args.m_cr, M_e=m_e)
    m_bar = params.m_bar
    rows = [
        ("m_bar", m_bar),
        ("success_cr", markov.success_prob(args.k, args.q_cr, args.m_cr)),
        ("success_e", markov.success_prob(args.k, args.q_e, m_e)),
        ("success_fully_noisy", markov.success_prob_fully_noisy(args.k, params)),
        ("absorbing_threshold", markov.absorbing_threshold(args.n, m_bar, args.epsilon)),
        *zip(("dicke_joint", "dicke_marginal"), markov.dicke_outcome_probability(args.n, args.k)),
    ]
    for j in range(args.n + 1):
        rows.append((f"state_prob_cr[j={j}]", markov.state_prob(args.n, j, args.q_cr, args.m_cr)))
    return rows


def cmd_analytics(args) -> int:
    rows = _analytics_rows(args)
    if args.format == "table":
        width = max(len(name) for name, _ in rows)
        text = "".join(f"{name:<{width}}  {f'{value:.6f}' if isinstance(value, float) else value}\n"
                       for name, value in rows)
    elif args.format == "json":
        text = json.dumps(dict(rows), indent=2) + "\n"
    else:  # csv
        text = _csv(("quantity", "value"), rows)
    if args.out:
        print(f"wrote {_write(args, None, text)}")
    else:
        sys.stdout.write(text)
    return 0


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


_MC_COLUMNS = ("estimate", "ci_low", "ci_high", "trials", "seed")


def _mc_rows(rows, width: int, pick, estimator, trials: int, seed: int) -> list[tuple]:
    """The Monte Carlo overlay of analytic ``rows``.  ``pick(*row)`` is (key, index) for a row
    the overlay draws, else falsy; key i, numbered by first appearance in row order, is drawn
    once, ``estimator(*key, trials, split_rng(seed, i))``, two keys at a time
    (`channel._run_draw_groups`).  Each picked row, in row order, becomes its first ``width``
    columns, the float at ``index`` of its key's curve, then that estimate's _MC_COLUMNS."""
    picked = [(row[:width], *p) for row in rows if (p := pick(*row))]
    keys = dict.fromkeys(key for _, key, _ in picked)
    curves = dict(zip(keys, channel._run_draw_groups(
        lambda i, key: estimator(*key, trials, split_rng(seed, i)), keys)))
    return [prefix + (est := float(curves[key][index]), *normal_ci(est, trials), trials, seed)
            for prefix, key, index in picked]


def _reproduce_fig8(trials: int, seed: int) -> list[tuple]:
    rows = [
        (m, n, q, markov.state_prob(n, n, q, m), markov.state_prob(n, n, q, 1))
        for m in FIG8_M for n in FIG8_N for q in FIG8_Q
    ]
    thr_rows = [
        (m, DEFAULT_EPSILON, max(FIG8_N),
         markov.absorbing_threshold(max(FIG8_N), m, DEFAULT_EPSILON))
        for m in FIG8_M
    ]
    mc_rows = _mc_rows(  # one draw per (n, q) serves M = 3 and M = 20
        rows, 3, lambda m, n, q, *_: m in (3, 20) and n in (10, 20) and q in FIG8_MC_Q
        and ((n, q, 20), m - 1), channel.empirical_full_connection_by_slot, trials, seed)
    return [("fig8.csv", ("M", "n", "q", "p_full", "p_one_shot"), rows),
            ("fig8_thresholds.csv", ("M", "epsilon", "n", "q_bar"), thr_rows),
            ("fig8_mc.csv", ("M", "n", "q") + _MC_COLUMNS, mc_rows)]


def _reproduce_fig8l(trials: int, seed: int) -> list[tuple]:
    n, slots = 10, range(1, FIG8L_M_MAX + 1)
    rows = [(n, q, m, markov.state_prob(n, n, q, m)) for q in FIG8L_Q for m in slots]
    mc_rows = _mc_rows(rows, 3, lambda n, q, m, _: q in (0.2, 0.4) and ((n, q, FIG8L_M_MAX), m - 1),
                       channel.empirical_full_connection_by_slot, trials, seed)
    return [("fig8l.csv", ("n", "q", "m", "p_full"), rows),
            ("fig8l_mc.csv", ("n", "q", "m") + _MC_COLUMNS, mc_rows)]


def _reproduce_fig9(trials: int, seed: int) -> list[tuple]:
    n, m = 10, 3
    rows = [(n, m, q, k, markov.success_prob(k, q, m)) for q in FIG9_Q for k in range(1, n + 1)]
    mc_rows = _mc_rows(
        rows, 4, lambda n, m, q, k, _: ((n, ChannelParams(q_cr=q, q_e=0.0, M_cr=m, M_e=m)), k - 1),
        channel.empirical_contention_success, trials, seed)
    return [("fig9.csv", ("n", "M", "q", "k", "p_s"), rows),
            ("fig9_mc.csv", ("n", "M", "q", "k") + _MC_COLUMNS, mc_rows)]


def _reproduce_fig10(trials: int, seed: int) -> list[tuple]:
    m = 3
    rows = [
        (m, n, q, j, markov.state_prob(n, j, q, m))
        for n in FIG10_N for q in FIG10_Q for j in range(n + 1)
    ]
    mc_rows = _mc_rows(rows, 4, lambda m, n, q, j, _: n in (5, 10) and q in (0.3, 0.7)
                       and ((n, q, m), j), channel.empirical_state_distribution, trials, seed)
    return [("fig10.csv", ("M", "n", "q", "j", "p_state"), rows),
            ("fig10_mc.csv", ("M", "n", "q", "j") + _MC_COLUMNS, mc_rows)]


def _reproduce_fig11(trials: int, seed: int) -> list[tuple]:
    n = 8
    rows = []
    for m in (3, 10):
        for q_cr in FIG11_QCR:
            for q_e in FIG11_QE:
                params = ChannelParams(q_cr=q_cr, q_e=q_e, M_cr=m, M_e=m)
                for k in range(1, n + 1):
                    rows.append((n, m, q_cr, q_e, k, markov.success_prob_fully_noisy(k, params)))
    mc_rows = _mc_rows(
        rows, 5, lambda n, m, q_cr, q_e, k, _: q_cr in (0.3, 0.7) and q_e in (0.0, 0.3, 0.7)
        and k % 2 == 0 and ((n, ChannelParams(q_cr=q_cr, q_e=q_e, M_cr=m, M_e=m)), k - 1),
        channel.empirical_contention_success, trials, seed)
    return [("fig11.csv", ("n", "M", "q_cr", "q_e", "k", "p_s"), rows),
            ("fig11_mc.csv", ("n", "M", "q_cr", "q_e", "k") + _MC_COLUMNS, mc_rows)]


_FIGURES = {
    "fig8": _reproduce_fig8,
    "fig8l": _reproduce_fig8l,
    "fig9": _reproduce_fig9,
    "fig10": _reproduce_fig10,
    "fig11": _reproduce_fig11,
}


def cmd_reproduce(args) -> int:
    channel._check_count("trials", args.trials)
    _check_seed(args.seed, "--seed")
    # every table is computed before any is written, so a failed run leaves no file
    for name, header, rows in _FIGURES[args.figure](args.trials, args.seed):
        print(f"wrote {_write(args, name, _csv(header, rows))}")
    return 0


# ---------------------------------------------------------------- sweep

_SWEEP_TYPES = {
    "n": int, "k": int, "q_cr": float, "q_e": float,
    "M_cr": int, "M_e": int, "trials": int, "seed": int,
}
_GRID_KEYS = ("n", "k", "q_cr", "q_e", "M_cr", "M_e")


def parse_sweep_config(text: str) -> dict:
    """Parse a TOML sweep config of top-level ``key = value`` pairs.

    Grid keys (n, k, q_cr, q_e, M_cr, M_e) take a value or a non-empty list,
    trials and seed one value: integers, except q_cr and q_e, which take an
    integer or a float and are read as floats.  Raises UsageError naming the
    key, or tomllib's line and column when the text is not TOML.
    """
    import tomllib  # only sweep reads a config; a module-level import slows every command's start

    try:
        config = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise UsageError(f"sweep config is not valid TOML: {exc}") from None
    for key, value in config.items():
        if key not in _SWEEP_TYPES:
            raise UsageError(f"unknown key '{key}'")
        is_list = isinstance(value, list)
        if is_list and key not in _GRID_KEYS:
            raise UsageError(f"key '{key}' does not accept a list")
        items = value if is_list else [value]
        if not items:
            raise UsageError(f"empty list for key '{key}'")
        cast = _SWEEP_TYPES[key]
        if any(type(v) not in {int, cast} for v in items):  # refuses bools and nested values
            raise UsageError(f"invalid value for key '{key}': {value!r}")
        config[key] = [cast(v) for v in items] if is_list else cast(value)
    for key in _GRID_KEYS:
        if key not in config:
            raise UsageError(f"missing required key '{key}'")
    config.setdefault("trials", 0)
    config.setdefault("seed", DEFAULT_SEED)
    if config["trials"] < 0:
        raise UsageError(f"trials must be >= 0 (0 = analytic only), got {config['trials']}")
    _check_seed(config["seed"], "seed")
    return config


SWEEP_COLUMNS = ("n", "k", "q_cr", "q_e", "M", "analytic") + _MC_COLUMNS


def sweep_rows(config: dict) -> list[tuple]:
    grids = [config[key] if isinstance(config[key], list) else [config[key]]
             for key in _GRID_KEYS]
    trials, seed = config["trials"], config["seed"]
    rows = []  # each point, then its params: (n, params) keys the draw group of its k curve
    for n, k, q_cr, q_e, m_cr, m_e in itertools.product(*grids):
        if not 1 <= k <= n:
            raise UsageError(f"grid point has k={k} outside 1..n={n}")
        params = ChannelParams(q_cr=q_cr, q_e=q_e, M_cr=m_cr, M_e=m_e)
        rows.append((n, k, q_cr, q_e, params.m_bar, markov.success_prob_fully_noisy(k, params),
                     params))
    if trials == 0:  # analytic only
        return [row[:6] + (None, None, None, trials, seed) for row in rows]
    return _mc_rows(rows, 6, lambda n, k, q_cr, q_e, m, p_s, params: ((n, params), k - 1),
                    channel.empirical_contention_success, trials, seed)


def cmd_sweep(args) -> int:
    path = Path(args.config)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    config = parse_sweep_config(path.read_text())
    rows = sweep_rows(config)
    print(f"wrote {_write(args, 'sweep.csv', _csv(SWEEP_COLUMNS, rows))} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------- parser

def _add_out_options(parser) -> None:
    """--out names the file, --out-dir the directory it gets its default name in; not both."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--out", default=None)
    group.add_argument("--out-dir", default=None)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``eacsim`` parser.  Without ``argv``, or when ``argv[0]`` names no subcommand, every
    subcommand is registered with its name and help line, so usage, top-level help and errors
    read the same, and only those ``argv`` names anywhere get their options (argparse builds a
    help formatter, probing the terminal, for each option it adds).  When ``argv[0]`` names one,
    argparse hands it every later word: only it is registered, under a usage line naming all."""
    parser = argparse.ArgumentParser(
        prog="eacsim",
        description="Entanglement access control: protocol simulation and noise analytics.",
    )
    parser.set_defaults(out=None, out_dir=None)  # read by `_out_path`; commands add the flags
    names = "{encode,contend,analytics,reproduce,sweep}"
    named = argv[0] if argv and argv[0] in names[1:-1].split(",") else None
    # only for one: a metavar renames the command in the "required" and "invalid choice" errors
    sub = parser.add_subparsers(dest="command", required=True, metavar=named and names)

    def add(name, text, func):
        if named in (None, name):
            p = sub.add_parser(name, help=text)
            p.set_defaults(func=func)
            return p if argv is None or name in argv else None

    if p := add("encode", "emit an encoder circuit and its codebook", cmd_encode):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--kind", choices=("linear", "binary"), default="linear")
        p.add_argument("--ell", type=int, default=None, help="override the binary ancilla count")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="echoed; circuits ignore it")
        p.add_argument("--out-dir", default=None)

    if p := add("contend", "run contention rounds, write a JSONL transcript", cmd_contend):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--runs", type=int, required=True)
        p.add_argument("--kind", choices=("linear", "binary"), default="linear")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        _add_out_options(p)

    if p := add("analytics", "closed-form quantities for one parameter point", cmd_analytics):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--q-cr", dest="q_cr", type=float, required=True)
        p.add_argument("--q-e", dest="q_e", type=float, default=0.0)
        p.add_argument("--M-cr", dest="m_cr", type=int, required=True)
        p.add_argument("--M-e", dest="m_e", type=int, default=None)
        p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", default=None)

    if p := add("reproduce", "regenerate a figure dataset", cmd_reproduce):
        p.add_argument("--figure", choices=sorted(_FIGURES), required=True)
        p.add_argument("--trials", type=int, default=20_000, help="Monte Carlo overlay trials")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out-dir", default=None)

    if p := add("sweep", "Cartesian parameter sweep from a config file", cmd_sweep):
        p.add_argument("--config", required=True)
        _add_out_options(p)

    return parser


def main(argv=None) -> int:
    """Run the subcommand ``argv`` (default sys.argv[1:]) names and return its exit code.
    The parser registers only the subcommand ``argv[0]`` names, if it names one, else every
    subcommand with the options of only those ``argv`` names; argparse runs the first word
    that names one, if it runs any."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet flush at exit
        return 2
    except (CapacityError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SynthesisFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
