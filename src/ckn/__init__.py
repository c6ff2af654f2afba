"""Critical points of the Caffarelli-Kohn-Nirenberg quotient on the cylinder.

The library computes the explicit symmetric branch, follows the first
non-symmetric branch bifurcating from it, reparametrizes both for
interpolation exponents theta < 1, and extracts bifurcation-diagram
diagnostics: energy crossings, minimizing envelopes, and the existence
threshold tied to the Gagliardo-Nirenberg constant.
"""

from .analysis import (
    Crossing,
    ThetaCurve,
    curve_values,
    detect_crossing,
    lambda_FS,
    lambda_GN,
    map_to_theta,
    min_envelope,
    symmetric_theta_curve,
)
from .continuation import (
    Branch,
    BranchPoint,
    asymmetry,
    continue_branch,
    initialize,
    merge_branches,
    symmetric_discrete_branch,
)
from .eigensolver import EigenResult, SolverCache, lowest_eigenpair
from .fixedpoint import (
    FixedPointResult,
    critical_value,
    rescale_to_eqmu,
    roothan_solve,
    self_potential,
)
from .gn import J_infinity, RadialProfile, balance_constant, radial_ground_state
from .io import FieldStore, RunConfig, load_field, read_csv, save_field, write_csv
from .model import (
    CylinderGrid,
    Field,
    ProblemParams,
    build_grid,
    evaluate_norms,
    evaluate_Q,
    sphere_area,
    theta_critical,
)
from .symmetric import (
    SymmetricSolution,
    critical_value_sym,
    lambda1_H,
    mu_FS,
    soliton,
    soliton_norms,
    transverse_mode,
)

__version__ = "0.1.0"
