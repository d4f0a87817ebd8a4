"""Effective impedance conditions for thin random layers of sound-soft particles.

The package samples hard-core particle layers, solves the near-field
corrector problems that produce the effective impedance coefficient c1,
solves the epsilon-scaled quasi-periodic reference Helmholtz problem, and
compares reference reflection coefficients against the first- and
second-order effective models.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateFit, EmptyConfiguration, FactorTooLarge,
                     HelmlayerError, InvalidDtnSpec, InvalidExtent, InvalidLayer,
                     NoConvergence, NumericalFailure, ParticleOutOfDomain, PassivityViolation,
                     ResolutionTooCoarse, ShapeMismatch, SingularSystem)
from .geometry import (LayerSpec, ParticleConfiguration, PointProcessParams,
                       check_hypotheses, distance_field, sample_matern, substream)
from .grid import DtnSpec, Grid, build_grid, classify_nodes, dtn_apply, quasi_mode
from .assemble import DiscreteSystem, assemble
from .solver import SolveReport, solve
from .corrector import (C1Estimate, CorrectorConfig, CorrectorSolution, decay_profile,
                        estimate_c1, solve_w1)
from .scattering import (PlaneWave, ScatteringScene, effective_reflection,
                         extract_reflection, farfield_reflection, reference_solve,
                         robin_halfspace_reflection)
from .experiments import (ExperimentConfig, SweepReport, fit_rate, run_c1_study,
                          run_sweep, run_validate)
