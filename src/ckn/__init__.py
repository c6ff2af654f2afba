"""Critical points of the Caffarelli-Kohn-Nirenberg quotient on the cylinder.

The library computes the explicit symmetric branch, follows the first
non-symmetric branch bifurcating from it, reparametrizes both for
interpolation exponents theta < 1, and extracts bifurcation-diagram
diagnostics: energy crossings, minimizing envelopes, and the existence
threshold tied to the Gagliardo-Nirenberg constant.
"""

import os
import sys

# One BLAS thread unless the user set another: threads double CPU time and
# slow the band factor at these sizes.  OpenBLAS reads the variable once,
# when numpy loads it, so the default is set only while numpy is not loaded.
# BLAS_THREADS is the value in effect as far as ckn can tell: the user's,
# ckn's "1", or None when numpy was loaded first with the variable unset.
BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")
if BLAS_THREADS is None and "numpy" not in sys.modules:
    BLAS_THREADS = os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
    compute_branch,
    continue_branch,
    initialize,
    symmetric_discrete_branch,
)
from .eigensolver import EigenResult, SolverCache, lowest_eigenpair
from .fixedpoint import (
    FixedPointResult,
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
