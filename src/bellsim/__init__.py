"""Desk-scale simulation of interference, entanglement, and chained Bell tests.

The package follows one derivation chain: single-photon two-path
interference with finite bandwidth (:mod:`bellsim.spectra`,
:mod:`bellsim.interferometer`), the unitarity condition that exactly-one-
count-per-photon imposes on beam-splitter matrices
(:mod:`bellsim.measurement`), two-photon interferometer pairs with
coincidence post-selection (:mod:`bellsim.entangle`), chained Bell
inequalities over pluggable correlation models (:mod:`bellsim.bell`), and
the statistical-distance argument falsifying biased-marginal extensions
(:mod:`bellsim.extensions`).  :mod:`bellsim.cli` drives parameter scans
over all of it.
"""

from .spectra import (
    HBAR,
    PLANCK_CONSTANT,
    RATIO_THRESHOLD,
    IntegrationError,
    Spectrum,
    SpectrumShape,
    coherence_time,
    heisenberg_product,
    integrate_over_spectrum,
)
from .interferometer import (
    DetectionDistribution,
    EventCounts,
    InterferenceRegime,
    InterferometerConfig,
    classify_interference,
    local_detection_distribution,
    probability_monochromatic,
    probability_wavepacket,
    quantum_detection_distribution,
    sample_events,
)
from .measurement import (
    MeasurementMatrix,
    MeasurementValidation,
    PathAmplitudes,
    SplitterOutcome,
    hadamard_beam_splitter,
    is_valid_quantum_measurement,
    mach_zehnder_effective,
    outcome_distribution,
    pi_quarter_model,
    symmetric_beam_splitter,
    unitarity_residual,
)
from .entangle import (
    EntanglementConditions,
    FransonConfig,
    FransonResult,
    JointDistribution,
    bob_measurement_rule,
    check_entanglement_conditions,
    downconverted_frequencies,
    ideal_joint_distribution,
    marginal,
    no_signaling_residual,
    physical_joint_distribution,
)
from .bell import (
    BoundednessReport,
    ChainedConfig,
    ChainedResult,
    Classification,
    CorrelationModel,
    LhvMinimum,
    boundedness_check,
    chained_I,
    deterministic_strategy_model,
    deterministic_strategy_value,
    lhv_minimum_I,
    pr_box_model,
    quantum_I_closed_form,
    quantum_model,
    suppressed_nonlocality_model,
)
from .extensions import (
    BiasedMarginalModel,
    DistanceReport,
    FalsificationCapError,
    FalsificationWitness,
    LeggettReport,
    colbeck_renner_bound,
    find_falsifying_N,
    leggett_inconsistency_demo,
    statistical_distance,
)

__version__ = "0.1.0"
