"""Characteristic-function toolkit for independence of linear statistics on cylinders.

The library verifies, at desk scale and exactly where possible, the calculus
behind Gaussian characterization by independent linear statistics on the
cylinder group R x T and on the rational dual of a solenoid: duality and
automorphism actions, closed-form characteristic-function bundles and their
convolution algebra, the independence functional equation and the parameter
systems it forces, finite-difference structure detection, explicit verified
families, exact a-adic arithmetic, and Monte-Carlo corroboration.
"""

from .charfn import (CylinderCF, InconclusiveError, TorusCF, classify_support,
                     convolve, is_gaussian, is_valid_probability, reflect,
                     support_line, symmetrize, transform)
from .families import (ConstructionError, Family, four_statistic_family,
                       line_gaussian_family, torus_triple_verdict,
                       twisted_torus_pair)
from .fdiff import (GridFunction, OffGridError, ProfileError, ProfileFit,
                    delta, fit_quadratic_profile, polynomial_degree,
                    verify_triple_differences)
from .groups import CylinderAuto, CylinderPoint, DualPoint, pair
from .independence import (ConditionReport, DegenerateFormError,
                           SingularSystemError, StatMatrix, StepSubgroups,
                           SubgroupTag, classify_step_subgroups,
                           coefficient_conditions, default_grid,
                           gaussian_system_check, independence_residual,
                           nu_support_check, reduce_to_normal_form,
                           solve_sigmas)
from .montecarlo import (SampleSet, empirical_cf, empirical_independence,
                         sample_line_gaussian, sample_torus_twisted)
from .solenoid import (AdicInteger, BaseSequence, IncompatibleAutoError,
                       adic_add, adic_add_carries, ha_member, pullback_residual)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
