"""Numerical laboratory for 2D isentropic expansion waves.

Simulates perturbations of the centered 1D rarefaction fan, reconstructs
the characteristic foliation and its null-frame quantities, and measures
commutation and propagation residuals, sign conditions, scaling laws and
weighted energies against exact 1D solutions.
"""

__version__ = "0.1.0"  # before the submodule imports: the run cache keys on it

from .gas import (PolytropicGas, PrimitiveState, RiemannInvariants, enthalpy, sound_speed,
                  to_invariants)
from .riemann1d import CenteredFan, RiemannProblem1D, WaveFan, solve_riemann
from .euler2d import (FlowField, Grid, PerturbationMode, PerturbationSpec, SolverConfig,
                      init_perturbed_rarefaction, max_signal_speed, run, step)
from .geometry import (SecondFrame, Slice, commutation_residual_y, commutation_residual_z,
                       evolve_u, foliate, frame_fields, second_frame, sign_monitors,
                       structure_residuals)
from .energies import (EnergyAnalysis, EnergyReport, FrameDerivativeOp, GronwallInstance,
                       check_data_predicates, fit_gronwall_constants, gronwall_verify)
from .harness import RunConfig, StudySpec, parse_config, run_single, run_study
