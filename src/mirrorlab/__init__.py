"""mirrorlab: time-dependent mirror flows induced by weight-decay schedules.

The package couples explicit regularization schedules with reparameterized
gradient flows and the Legendre/Bregman geometries they induce, and ships the
desk-scale experiments (matrix sensing, diagonal networks, sparse coding) that
exercise the convergence and optimality statements behind the construction.
"""

from .core import (DivergedError, DomainError, DomainExitError, InputError,
                   IntegratorConfig, MirrorlabError, RunRecord, Schedule,
                   UnsupportedOperation, make_rng)
from .reparam import (DeepHadamard, DiffPowers, DiffSquares, Hadamard,
                      L1Identity, LogRatio, Parameterization,
                      QuadraticCommuting, SymFactor)
from .legendre import (ContractingReport, DiffPowersFlow, DomainSpec, Entropy,
                       HyperbolicEntropy, LegendreFamily, LogCosh,
                       QuadraticFamily, contracting_check, family_for)
from .commute import check_commuting, hessian_fd, lie_bracket
from .flow import (EquivalenceReport, LinearRegressionLoss, QuadraticLoss,
                   run_mirror_flow, run_param_flow, verify_equivalence)
from .experiments import (RegressionConfig, SensingConfig,
                          SparseCodingConfig, constrained_argmin,
                          diagonal_network_run, kkt_residual, make_dictionary,
                          make_regression_problem, make_sensing_problem,
                          matrix_sensing_run, sparse_coding_run,
                          stationarity_step)

__version__ = "0.1.0"
