"""Eigenvalue-count and spectral-radius bounds for -Delta + V on R^3 with
complex potentials, validated against Nystrom Birman-Schwinger determinants."""

from .potentials import (CompactSupport, ExponentialDecay, Potential,
                         PotentialFunctionals, QuadratureSpec,
                         bump_potential, gaussian_potential,
                         measure_functionals, mollified_exponential_potential,
                         screened_coulomb_potential, tabulated_potential,
                         validate_decay_hypothesis, zero_potential)
from .scalarbounds import (BoundParameters, BoundReport, f_inverse, f_series,
                           count_bounds, g_eps, h_eps, hadamard_deviation_bound,
                           lemma1_constant, lemma1_kernel_bound,
                           lemma2_constant, lemma2_kernel_bound, log_f_series,
                           n_bound_corollary1, n_bound_corollary2,
                           n_bound_theorem1, n_bound_theorem2, radius_bound)
from .kernel import (EllipsoidSpec, exponential_grad_majorant,
                     free_resolvent_kernel, hs_identity_check, iterated_kernel,
                     proposition_bound)
from .fredholm import (BSAssembler, DeterminantEvaluator, build_grid,
                       determinant_bound_check, fredholm_series_term)
from .zerocount import (ContourSpec, ZeroCountResult, ZeroLocation,
                        empirical_vs_bound, jensen_bound, jensen_chain,
                        locate_zeros, winding_number)
from .oracle import RadialProblem, count_eigenvalues_radial, jost_like_value

__version__ = "0.1.0"
