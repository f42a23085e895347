"""Simulator and analytics toolkit for quantum-genuine entanglement access control.

Subpackages:

* ``statevector`` - minimal dense statevector simulator (H/X/Z/I, CNOT,
  measurement, joint probabilities, fidelity).
* ``states`` - Dicke, W and GHZ resource states, and the order of the weight-k
  slice.
* ``encoder`` - linear and binary contention-resolution encoders as GF(2)
  maps realized by CNOT lists, plus codebooks and parity recovery.
* ``protocol`` - end-to-end noise-free rounds: contention, EPR extraction
  from GHZ, Bell-state disambiguation, anonymity audit.
* ``channel`` - Monte Carlo model of heralded, slotted, noisy entanglement
  distribution.
* ``markov`` - closed-form transition/state/success probabilities and the
  absorbing threshold.
* ``cli`` - the ``eacsim`` command-line front end.
"""

from .statevector import (
    CapacityError,
    MeasurementRecord,
    StateVector,
    apply_1q,
    apply_cnot,
    basis_state,
    fidelity,
    measure,
    outcome_probability,
    states_equal,
)
from .states import DickeSpec, dicke_state, ghz_state
from .encoder import (
    Codebook,
    EncoderCircuit,
    InvalidParity,
    NotInjective,
    SynthesisFailed,
    UnknownWord,
    apply_encoder,
    build_binary_encoder,
    build_linear_encoder,
    cnot_count_bound,
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
    canonicalize_bell,
    extract_epr,
    run_contention,
    run_round,
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
    indicator_pmf,
    state_prob,
    success_prob,
    success_prob_fully_noisy,
    success_prob_parallel,
    time_horizon,
    transition_matrix,
    transition_prob,
)

__version__ = "0.1.0"
