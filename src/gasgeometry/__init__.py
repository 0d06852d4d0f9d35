"""Fisher-Rao information geometry of ideal quantum and classical gases.

The package has four layers:

* :mod:`gasgeometry.special_functions`: Gamma, Riemann zeta and the
  real-order polylogarithm at ~1e-13 relative accuracy.
* :mod:`gasgeometry.gibbs_core`: generic exponential-family geometry,
  finite-difference Hessian metrics, scalar curvature by two routes, and
  an exact Fock-space enumeration oracle.
* :mod:`gasgeometry.quantum_gas`: closed-form thermodynamics, metric,
  determinant bundles and curvature of Fermi-Dirac, Bose-Einstein (with
  and without the ground-state correction) and classical ideal gases for
  an arbitrary density-of-states exponent.
* :mod:`gasgeometry.verification` / :mod:`gasgeometry.cli`: oracle
  cross-check suites and the command-line front end.
"""
from .errors import (ConditioningWarning, DomainError, EnumerationLimitError,
                     PolylogOverflowError, SingularMetricError)
from .gibbs_core import (FockEnsembleSpec, FreeEnergyField, LagrangeCoords,
                         MetricTensor2, fock_be_tail_bound, fock_entropy,
                         fock_free_energy_field, fock_log_partition,
                         fock_moments, hessian_metric, jacobian_metric,
                         legendre_entropy, scalar_curvature_det,
                         scalar_curvature_riemann)
from .quantum_gas import (BOSE_EINSTEIN, BOSE_EINSTEIN_NO_GROUND,
                          CLASSICAL_IDEAL, FERMI_DIRAC, STATISTICS,
                          DensityOfStatesEntry, DeterminantBundle, GasModel,
                          GeometrySample, LimitCoefficients, ThermoPoint,
                          averages, det_bundle, dos_catalog, free_energy,
                          free_energy_field, geometry_sample,
                          ground_state_free_energy, ground_state_occupation,
                          limit_coefficients, limit_curvature, metric,
                          metric_be, metric_classical, metric_fd,
                          metric_field)
from .special_functions import (gamma_real, polylog, polylog_quadrature,
                                polylog_series, polylog_step_down, zeta_real)

__version__ = "0.1.0"

__all__ = [
    "ConditioningWarning", "DomainError", "EnumerationLimitError",
    "PolylogOverflowError", "SingularMetricError",
    "FockEnsembleSpec", "FreeEnergyField", "LagrangeCoords", "MetricTensor2",
    "fock_be_tail_bound", "fock_entropy", "fock_free_energy_field",
    "fock_log_partition", "fock_moments", "hessian_metric", "jacobian_metric",
    "legendre_entropy", "scalar_curvature_det", "scalar_curvature_riemann",
    "BOSE_EINSTEIN", "BOSE_EINSTEIN_NO_GROUND", "CLASSICAL_IDEAL",
    "FERMI_DIRAC", "STATISTICS",
    "DensityOfStatesEntry", "DeterminantBundle", "GasModel", "GeometrySample",
    "LimitCoefficients", "ThermoPoint",
    "averages", "det_bundle", "dos_catalog", "free_energy",
    "free_energy_field", "geometry_sample", "ground_state_free_energy",
    "ground_state_occupation", "limit_coefficients", "limit_curvature",
    "metric", "metric_be", "metric_classical", "metric_fd", "metric_field",
    "gamma_real", "polylog", "polylog_quadrature", "polylog_series",
    "polylog_step_down", "zeta_real",
    "__version__",
]
