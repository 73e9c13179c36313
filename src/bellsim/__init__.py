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

# Ufuncs that may define artifact bits.  A CLI artifact's bytes must not
# depend on which SIMD kernels numpy dispatches on the host.  numpy's float64
# arithmetic, sin, cos and hypot give the same bits with its AVX-512 kernels,
# its AVX2 kernels and its baseline (numpy 2.4), and sin equals libm's, so
# they may compute any value that reaches an artifact.  exp and log may not:
# under AVX-512 dispatch np.exp differs from libm's exp at 46 434 of 10^6
# arguments in [-700, 700], and np.log changes bits too.  Where an artifact
# needs exp, map libm's math.exp over the elements, as the gaussian
# envelope does; Spectrum.density's np.exp reaches only the library's
# gaussian quadrature, which no artifact reads.  An artifact's squares are
# numpy products (the port law squares each modulus as modulus * modulus),
# so libm exp defines artifact bits but no libm pow does: glibc's
# pow(x, 2.0) differs from the correctly rounded product at 0.085% of x in
# [0, 2).  Python's float ** 2 (libm pow) remains only where the square is
# exact (the pair populations, 0.25 squared) or meets an artifact through a
# tolerance test alone (the path norms behind the unitarity `valid`
# column).  No BLAS or LAPACK call (np.dot, matmul, numpy.linalg) may define
# an artifact bit: OpenBLAS picks its kernel per host, and a dot product's
# summation order follows the kernel, so the quadrature sums each pass with
# math.fsum and takes its Gauss-Legendre rule from a table.  The chained sum
# adds its distinct terms exactly, as Python integers from np.frexp, which
# is exact on every kernel, or, for a model without a difference law, sums
# all its terms with math.fsum.  The tier-1 test
# test_digests_do_not_depend_on_the_avx512_dispatch reruns every full-scale
# digest and JSON golden with numpy's AVX-512 kernels disabled, and
# test_digests_do_not_depend_on_the_openblas_kernel on OpenBLAS's Haswell
# kernels.

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
    Classification,
    CorrelationModel,
    LhvMinimum,
    boundedness_check,
    chained_I,
    classify,
    deterministic_strategy_model,
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
