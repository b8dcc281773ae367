"""Damped beam with an obstacle at the free end: simulation and diagnostics."""

from .model import (
    BeamParams,
    ForceLaw,
    InitSpec,
    Laws,
    NormalCompliance,
    SchemeConfig,
    body_force,
    body_force_primitive,
    contact_potential,
    contact_traction,
    is_stabilizing_xi,
)
from .discretize import Mesh, SemiDiscreteSystem, assemble, build_mesh, recover_stress
from .timestep import (
    NewtonDivergence,
    Trajectory,
    energy,
    initial_state,
    simulate,
    state_norm,
    total_energy,
)
from .diagnostics import (
    absorbing_probe,
    complementarity_report,
    constraint_violation,
    energy_series,
    fit_decay,
    observability,
)
from .spectral import (
    GeneratorPencil,
    generator,
    spectrum,
    trend_toward_zero,
    xi_study,
)
from .config import ConfigError, ExperimentConfig, load_config

__version__ = "0.1.0"
