"""Quantum phase and angle measurement statistics for one- and two-mode fields."""

__version__ = "0.1.0"

from .errors import (
    AliasingError,
    ConditioningError,
    RelphaseError,
    SupportError,
    TruncationError,
)
from .fock import (
    PrimitiveConvention,
    SingleModeState,
    TwoModeState,
    evolve,
    jm_labels,
    make_coherent_state,
    make_number_state,
    single_to_two_mode,
    state_from_json,
    state_to_json,
)
from .naimark import (
    YMoments,
    QuadratureMoments,
    commutator_check,
    generalized_phase_pdf,
    heterodyne_moments,
    y_moments,
)
from .pegg_barnett import DiscretePhasePmf, pb_convergence, pb_pmf, phase_cdf
from .phase import (
    AngularPdf,
    PhaseWavefunction,
    angular_grid,
    ml_phase_pdf,
    number_moment_spectral,
    paley_wiener_diagnostics,
    phase_pdf,
    phase_wavefunction,
)
from .polarization import (
    LinearPolSpec,
    XCoherent,
    XNumber,
    XSuperposition,
    db_view,
    local_maxima,
    polarization_ellipse,
    snapshot_sequence,
    to_circular,
)
from .pom import (
    BranchSet,
    absolute_time_pdf,
    branch_wavefunctions,
    conditioning_probability,
    marginal_pdf,
    snapshot_pdf,
    snapshot_sweep,
)
from .schwinger import (
    apply_jminus,
    apply_jplus,
    apply_jz,
    commutator_residuals,
    j_squared_eigencheck,
    rotate_z,
)
