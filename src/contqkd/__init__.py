"""Analysis engine and protocol simulator for continuous-alphabet quantum key distribution."""

__version__ = "0.1.0"

from .attack import (
    AttackParams,
    EveIsometry,
    attacked_state,
    bipartite_reductions,
    build_isometry,
    coupling_coefficient,
)
from .infocalc import (
    SphereQuadrature,
    default_quadrature,
    nonselected_information,
    selected_information,
)
from .protosim import (
    ProtocolConfig,
    SiftingPartition,
    Transcript,
    empirical_mi,
    read_transcript,
    run_protocol,
    sift,
    write_transcript,
)
from .qstate import (
    DensityMatrix,
    NumericalCorruptionError,
    partial_trace,
    singlet,
)
from .security import (
    InfoCurve,
    SecurityReport,
    accessible_information,
    cier,
    critical_point,
    optimal_params,
    qber,
    qber_sphere_averaged,
    reconciled_i_ab,
    sweep_curve,
)

__all__ = [
    "__version__",
    "AttackParams",
    "DensityMatrix",
    "EveIsometry",
    "InfoCurve",
    "NumericalCorruptionError",
    "ProtocolConfig",
    "SecurityReport",
    "SiftingPartition",
    "SphereQuadrature",
    "Transcript",
    "accessible_information",
    "attacked_state",
    "bipartite_reductions",
    "build_isometry",
    "cier",
    "coupling_coefficient",
    "critical_point",
    "default_quadrature",
    "empirical_mi",
    "nonselected_information",
    "optimal_params",
    "partial_trace",
    "qber",
    "qber_sphere_averaged",
    "read_transcript",
    "reconciled_i_ab",
    "run_protocol",
    "selected_information",
    "sift",
    "singlet",
    "sweep_curve",
    "write_transcript",
]
