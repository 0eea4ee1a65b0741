"""Quasi-static kinematics of tendon-driven rolling-contact joint mechanisms.

The mechanism is a chain of rigid links joined by no-slip rolling contacts
and actuated by a left and a right tendon.  Equilibrium configurations are
found either from commanded tendon tensions (recursive Newton solver) or
from commanded tendon lengths (least-squares tension search), optionally
under external loads.

Typical use:

    from rolljoint import catalog, solve_tension
    design = catalog.demo_five_link()
    config, report = solve_tension(design, tau=(3.0, 1.0))
"""

from . import catalog
from .errors import (
    ContactRolloffError,
    DegenerateTendonError,
    DomainError,
    InvalidLoadError,
    NoConvergenceError,
    NonFiniteResultError,
    RolljointError,
    SingularBlockError,
    SolveError,
    TensionFloorError,
    UnsupportedLoadError,
)
from .geometry import (
    Pose2,
    Twist2,
    Wrench2,
    adjoint,
    coadjoint,
    coadjoint_small,
    compose,
    exp_twist,
    inverse,
)
from .loads import ConstantBody, ConstantWorkspace, ExternalLoad, LinearSpring
from .mechanism import (
    Configuration,
    LinkDesign,
    MechanismDesign,
    forward_poses,
    pose_difference,
    tendon_lengths,
    validate,
)
from .oracle import dense_solve, energy, energy_gradient_fd, energy_minimize
from .solver_displacement import (
    DisplacementOptions,
    DisplacementReport,
    solve_displacement,
    tendon_jacobian,
)
from .solver_tension import (
    NewtonStep,
    SolveReport,
    SolverOptions,
    newton_step,
    solve_tension,
    tangent_start,
)
from .statics import LinkBlocks, assemble_blocks, residual
from .surface import CircularArc, ContactSurface, CurvatureProfile

__version__ = "0.1.0"

__all__ = [
    # geometry
    "Pose2", "Twist2", "Wrench2", "compose", "inverse", "exp_twist",
    "adjoint", "coadjoint", "coadjoint_small",
    # surfaces
    "ContactSurface", "CircularArc", "CurvatureProfile",
    # mechanism
    "LinkDesign", "MechanismDesign", "Configuration", "forward_poses",
    "tendon_lengths", "validate", "pose_difference",
    # loads
    "ExternalLoad", "ConstantBody", "ConstantWorkspace", "LinearSpring",
    # statics
    "LinkBlocks", "assemble_blocks", "residual",
    # solvers
    "SolverOptions", "SolveReport", "NewtonStep", "newton_step", "solve_tension",
    "tangent_start",
    "DisplacementOptions", "DisplacementReport", "solve_displacement", "tendon_jacobian",
    # oracles
    "dense_solve", "energy", "energy_gradient_fd", "energy_minimize",
    # designs
    "catalog",
    # errors
    "RolljointError", "DomainError", "DegenerateTendonError", "SingularBlockError",
    "UnsupportedLoadError", "InvalidLoadError", "SolveError", "NoConvergenceError",
    "ContactRolloffError", "TensionFloorError", "NonFiniteResultError",
]
