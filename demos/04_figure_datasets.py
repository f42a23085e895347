"""Walkthrough: regenerating the analytic figure datasets and sweeping grids.

The `eacsim reproduce` subcommand writes the data behind the performance
plots as CSV (analytic curves plus seeded Monte Carlo overlays with 99%
Wilson score intervals); `eacsim sweep` evaluates arbitrary parameter grids
from a small TOML config file.  This demo drives both through the CLI entry
point and peeks at the emitted files.
"""
import csv
import tempfile
from pathlib import Path

from eacsim.cli import main

out = Path(tempfile.mkdtemp(prefix="eacsim_demo_"))
print(f"writing to {out}\n")

# --- figure datasets ---------------------------------------------------------
for figure in ("fig8", "fig9", "fig11"):
    main(["reproduce", "--figure", figure, "--trials", "10000",
          "--seed", "0", "--out-dir", str(out)])

with open(out / "fig9.csv", newline="") as fh:
    rows = [r for r in csv.DictReader(fh) if r["q"] == "0.3"]
print("\nfig9.csv slice (q=0.3, M=3): success probability versus winner count")
for r in rows:
    print(f"  k={r['k']:>2}  p_s={float(r['p_s']):.6f}")

with open(out / "fig11_mc.csv", newline="") as fh:
    sample = list(csv.DictReader(fh))[:4]
print("\nfig11_mc.csv head: Monte Carlo overlay rows carry CIs and the seed")
for r in sample:
    print(f"  M={r['M']} q_cr={r['q_cr']} q_e={r['q_e']} k={r['k']} "
          f"estimate={float(r['estimate']):.4f} "
          f"ci=[{float(r['ci_low']):.4f}, {float(r['ci_high']):.4f}] seed={r['seed']}")

# --- a custom sweep ------------------------------------------------------------
config = out / "sweep.cfg"
config.write_text(
    "# success probability across winner counts and noise levels\n"
    "n = 8\n"
    "k = [1, 2, 3, 4]\n"
    "q_cr = [0.2, 0.4, 0.6]\n"
    "q_e = 0.2\n"
    "M_cr = 5\n"
    "M_e = 5\n"
    "trials = 20000\n"
    "seed = 7\n"
)
main(["sweep", "--config", str(config), "--out", str(out / "sweep.csv")])

with open(out / "sweep.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))
print(f"\nsweep.csv: {len(rows)} grid points (4 k-values x 3 q-values)")
print("  analytic vs empirical at q_cr=0.4:")
for r in rows:
    if r["q_cr"] == "0.4":
        print(f"  k={r['k']}  analytic={float(r['analytic']):.6f}  "
              f"estimate={float(r['estimate']):.6f}")
