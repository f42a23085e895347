"""Simulator and analytics toolkit for quantum-genuine entanglement access control.

Modules:

* ``states`` - contention instances (``DickeSpec``) and the order of the
  weight-k slice.
* ``encoder`` - linear and binary contention-resolution encoders as GF(2)
  maps realized by CNOT arrays, plus codebooks (``codebook_csv`` yields their
  CSV bytes), parity recovery and the caps (``CapacityError``).
* ``protocol`` - the records of a noise-free round, the anonymity audit, and
  the classical rounds ``contend`` runs: ``draw_rounds`` draws them as ranks,
  ``DrawnRounds.rows`` builds their bits and ``transcript`` yields their
  transcript's bytes.
* ``statevector`` - the dense reference and test oracle: a minimal
  statevector simulator (H/X/Z/I, CNOT, measurement, fidelity), the Dicke
  and GHZ states, the encoder run on a register, and the reference rounds
  (contention, EPR extraction from GHZ, Bell-state disambiguation).  No CLI
  command runs it.
* ``channel`` - Monte Carlo model of heralded, slotted, noisy entanglement
  distribution.
* ``markov`` - closed-form transition/state/success probabilities and the
  absorbing threshold.
* ``cli`` - the ``eacsim`` command-line front end; ``_write`` is the one file sink.
"""

from .statevector import (
    MeasurementRecord,
    StateVector,
    apply_1q,
    apply_cnot,
    apply_encoder,
    canonicalize_bell,
    dicke_state,
    extract_epr,
    fidelity,
    ghz_state,
    measure,
    run_contention,
    run_round,
)
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
