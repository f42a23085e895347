"""The benchmark's workloads: the eacsim CLI commands each pass runs, and why.

Every workload is a fixed list of commands a user would type; the seed only
chooses the ``--seed`` each command gets and, for the sweep, the failure
probabilities on its grid, so the amount of work per pass does not depend on
the seed.

* ``datasets`` -- the paper's figure pipeline: ``reproduce`` for fig8,
  fig8l, fig9, fig10 and fig11 at the default 20k Monte Carlo trials, plus a
  48-point ``sweep`` that includes n=32.  ``channel`` does about 99% of the
  work; ``statevector`` and ``encoder`` do none.
* ``contend-dense`` -- ``contend --n 12 --k 2 --runs 1000``: the largest
  register the dense path allows (23 qubits, 128 MiB per vector).
  ``statevector`` and ``protocol`` do the work and ``channel`` is bypassed;
  this is where a classical contention sampler shows.
* ``contend-bulk`` -- ``contend --n 8 --k 2 --runs 100000``: the same command
  and layers as ``contend-dense``, but nearly all the time is the CLI's
  per-row JSON transcript loop (15 MB written).  A contend change that helps
  the big register must not cost this workload, and a bulk writer shows only
  here.
* ``encoders`` -- ``encode --kind binary`` for seven (n, k) pairs, five of
  which exhaust the random search and exit 3, plus ``encode --kind linear
  --n 18 --k 9``, which certifies a 48,620-row codebook.  The only workload
  where ``encoder`` does the work.

Left out on purpose:

* ``encode --n 16 --k 8 --kind binary`` takes about 47 s before it exits 3.
  It is left out for run length, not to hide its failure: (12, 6) shows the
  same exhausted search in about 2 s.
* ``statevector.measure`` runs only in the test suite; no CLI command calls
  it, so no workload times it.
* ``analytics`` is a handful of closed-form evaluations, well under a
  millisecond of work; the figure pipeline already runs the same ``markov``
  functions.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

FIGURES = ("fig8", "fig8l", "fig9", "fig10", "fig11")
FIGURE_TRIALS = 20_000
SWEEP_TRIALS = 10_000
BINARY_CASES = ((9, 3), (12, 2), (8, 2), (10, 3), (12, 3), (16, 2), (12, 6))


@dataclass(frozen=True)
class Command:
    """One CLI call; ``sweep`` is the grid to write to the ``--config`` file."""

    argv: tuple[str, ...]
    sweep: dict | None = None


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _datasets(rng: random.Random) -> list[Command]:
    commands = [
        Command(("reproduce", "--figure", figure, "--trials", str(FIGURE_TRIALS),
                 "--seed", _seed(rng)))
        for figure in FIGURES
    ]
    grid = {
        "n": [8, 32],
        "k": [1, 2, 4],
        "q_cr": [round(rng.uniform(0.05, 0.45), 3), round(rng.uniform(0.55, 0.95), 3)],
        "q_e": [0.0, round(rng.uniform(0.1, 0.6), 3)],
        "M_cr": [3, 10],
        "M_e": 5,
        "trials": SWEEP_TRIALS,
        "seed": int(_seed(rng)),
    }
    commands.append(Command(("sweep", "--config", "sweep.cfg", "--out", "sweep.csv"), grid))
    return commands


def _contend(n: int, runs: int):
    def build(rng: random.Random) -> list[Command]:
        return [Command(("contend", "--n", str(n), "--k", "2", "--kind", "linear",
                         "--runs", str(runs), "--seed", _seed(rng)))]
    return build


def _encoders(rng: random.Random) -> list[Command]:
    commands = [
        Command(("encode", "--kind", "binary", "--n", str(n), "--k", str(k),
                 "--seed", _seed(rng)))
        for n, k in BINARY_CASES
    ]
    commands.append(Command(("encode", "--kind", "linear", "--n", "18", "--k", "9",
                             "--seed", _seed(rng))))
    return commands


WORKLOADS = {
    "datasets": _datasets,
    "contend-dense": _contend(12, 1_000),
    "contend-bulk": _contend(8, 100_000),
    "encoders": _encoders,
}


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one pass; the same (workload, seed) gives the same commands."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def sweep_text(grid: dict) -> str:
    """A grid in the CLI's ``key = value`` sweep-config format."""
    def fmt(value):
        if isinstance(value, list):
            return "[" + ", ".join(str(v) for v in value) + "]"
        return str(value)
    return "".join(f"{key} = {fmt(value)}\n" for key, value in grid.items())
