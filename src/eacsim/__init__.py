"""Simulator and analytics toolkit for quantum-genuine entanglement access control.

Modules:

* ``states`` - contention instances (``DickeSpec``) and the order of the
  weight-k slice.
* ``encoder`` - linear and binary contention-resolution encoders as GF(2)
  maps realized by CNOT arrays, plus codebooks (``codebook_csv`` yields their
  CSV bytes), parity recovery and the caps (``CapacityError``).
* ``protocol`` - the records of a noise-free round, the anonymity audit, and
  the classical rounds ``contend`` runs: ``draw_rounds`` draws them and keeps
  each as its outcome's row, ``DrawnRounds.bits`` builds outcomes' bits and
  ``transcript`` yields their transcript's bytes.
* ``statevector`` - the dense reference and test oracle: a minimal
  statevector simulator (H/X/Z/I, CNOT, measurement, fidelity), the Dicke
  and GHZ states, the encoder run on a register, and the reference rounds
  (contention, EPR extraction from GHZ, Bell-state disambiguation).  No CLI
  command runs it, so it is imported lazily: ``eacsim.statevector`` and the
  names re-exported from it run its code at their first use, not at start-up.
* ``channel`` - Monte Carlo model of heralded, slotted, noisy entanglement
  distribution.
* ``markov`` - closed-form transition/state/success probabilities and the
  absorbing threshold.
* ``cli`` - the ``eacsim`` command-line front end; ``_write`` is the one file sink.
"""

from .states import DickeSpec
from .encoder import (
    CapacityError,
    Codebook,
    EncoderCircuit,
    InvalidParity,
    NotInjective,
    SynthesisFailed,
    UnknownWord,
    build_binary_encoder,
    build_linear_encoder,
    decode,
    recover_last_bit_linear,
    verify_injectivity,
)
from .protocol import (
    BellState,
    ContentionOutcome,
    NodeView,
    WrongWinnerCount,
    anonymity_audit,
    build_u_d,
)
from .channel import (
    ChannelParams,
    DistributionTrace,
    SlotTimeline,
    empirical_contention_success,
    empirical_state_distribution,
    make_rng,
    simulate_distribution,
    split_rng,
)
from .markov import (
    NonPositiveHorizon,
    absorbing_threshold,
    dicke_outcome_probability,
    state_prob,
    success_prob,
    success_prob_fully_noisy,
    success_prob_parallel,
    time_horizon,
    transition_prob,
)

__version__ = "0.1.0"

_STATEVECTOR_NAMES = frozenset({
    "MeasurementRecord", "StateVector", "apply_1q", "apply_cnot", "apply_encoder",
    "canonicalize_bell", "dicke_state", "extract_epr", "fidelity", "ghz_state", "measure",
    "run_contention", "run_round",
})


def _lazy_submodule(name: str):
    """Import the submodule ``name`` as a module whose code runs at its first attribute access
    (importlib's LazyLoader), so it is in sys.modules, as before, but costs nothing until used."""
    import importlib.util  # here, so that the package exports no new names
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


statevector = _lazy_submodule("statevector")


def __getattr__(name: str):
    """PEP 562: the dense names are read from ``statevector`` at their first use."""
    if name in _STATEVECTOR_NAMES:
        return getattr(statevector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# what `from eacsim import *` bound when statevector was imported eagerly
__all__ = sorted({*(name for name in globals() if not name.startswith("_")), *_STATEVECTOR_NAMES})
