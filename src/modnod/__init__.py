"""modnod: modulated nonlinear opinion dynamics.

A small numpy library for a saturated opinion-formation model with
multiplicative (modulatory) network interactions: trajectory simulation,
equilibrium continuation with bifurcation detection, Lyapunov-Schmidt
reduction of steady-state singularities, and builders for the studied
example networks.  A CLI (``modnod``) wraps the same operations.
"""

from .errors import (
    ComplementDiverged,
    DegenerateLeader,
    Diverged,
    ModnodError,
    NewtonDiverged,
    NoBranchFound,
    NonConvergence,
    NonFinite,
    NoStrictLeader,
    NotSettled,
    OutOfDomain,
    ParseError,
    SingularJacobian,
    StallError,
    ValidationError,
)
from .model import (
    NetworkSpec,
    Saturation,
    as_state,
    inner_argument,
    jacobian,
    modulated_gains,
    vector_field,
)
from .spectral import (
    EigenTriple,
    critical_attention,
    eigenpair_near,
    full_spectrum,
    leading_eigenpair,
    max_entry_normalized,
)
from .dynamics import Trajectory, integrate, settle
from .continuation import (
    Branch,
    BranchPoint,
    BifurcationEvent,
    EventKind,
    StepParams,
    branch_point_at,
    detect_events,
    diagram,
    newton_equilibrium,
    switch_branch,
    trace_branch,
)
from .reduction import (
    Classification,
    LSReport,
    classify_singularity,
    ls_derivatives,
    ls_reduced_g,
)
from .scenarios import (
    SCENARIOS,
    build_drive_steer,
    build_influencer_ring,
    build_scenario,
    build_two_node,
    drive_steer_label,
)

__version__ = "0.1.0"
