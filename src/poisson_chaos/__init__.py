"""Constructive stochastic analysis for Poisson processes on finite
discrete measure spaces, with a verification harness that checks every
identity by exact enumeration, exhaustive pathwise scans, or seeded
Monte Carlo."""

from .errors import (BudgetError, ConfigError, ContractViolationError,
                     EvaluationError, UnsupportedArityError)
from .estimation import (Estimate, McPlan, OracleBudget, PoissonEnumeration,
                         TolerancePolicy, Verdict, compare, mc_estimate,
                         mc_expectation, oracle_expectation, worker_count)
from .functionals import (ChaosVector, CountPolynomial, Exponential,
                          Functional, KernelEstimate, LinearCombo, Opaque,
                          chaos_by_enumeration, chaos_of_exponential,
                          difference, difference_counts, difference_rows,
                          iterated_difference, iterated_difference_counts,
                          t_coefficient_mc)
from .malliavin import (ChaosField, FunctionalField, chaos_field_from_vector,
                        difference_field, malliavin_chaos, ou_chaos,
                        ou_generator_counts, ou_generator_pathwise,
                        ou_inverse_chaos, ou_inverse_quadrature,
                        ou_semigroup_mc, semigroup_chaos,
                        semigroup_closed_form, skorohod_chaos,
                        skorohod_counts, skorohod_pathwise)
from .patterns import (PointPattern, factorial_apply, factorial_counts,
                       factorial_tensor_power, sample_poisson,
                       sample_poisson_counts, superpose, thin, thin_counts)
from .rng import RngStream, stream_uniforms
from .space import (Kernel, MeasureSpace, contraction, inner_product,
                    integrate, norm, symmetrize, tensor, tensor_power)
from .wiener_ito import (WiState, chaos_finite_sum, chaos_reconstruct,
                         chaos_reconstruct_counts, patterns_up_to,
                         product_formula_rhs, wiener_ito, wiener_ito_counts)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "ChaosField", "ChaosVector", "ConfigError",
    "ContractViolationError", "CountPolynomial", "Estimate", "EvaluationError",
    "Exponential", "Functional", "FunctionalField", "Kernel", "KernelEstimate",
    "LinearCombo", "McPlan", "MeasureSpace", "Opaque", "OracleBudget",
    "PointPattern", "PoissonEnumeration", "RngStream", "TolerancePolicy",
    "UnsupportedArityError", "Verdict", "WiState", "chaos_by_enumeration",
    "chaos_field_from_vector", "chaos_finite_sum", "chaos_of_exponential",
    "chaos_reconstruct", "chaos_reconstruct_counts", "compare", "contraction",
    "difference", "difference_counts", "difference_field", "difference_rows",
    "factorial_apply",
    "factorial_counts", "factorial_tensor_power", "inner_product", "integrate",
    "iterated_difference", "iterated_difference_counts", "malliavin_chaos",
    "mc_estimate", "mc_expectation", "norm", "oracle_expectation", "ou_chaos",
    "ou_generator_counts", "ou_generator_pathwise", "ou_inverse_chaos",
    "ou_inverse_quadrature", "ou_semigroup_mc", "patterns_up_to",
    "product_formula_rhs", "sample_poisson", "sample_poisson_counts",
    "semigroup_chaos", "semigroup_closed_form", "skorohod_chaos",
    "skorohod_counts", "skorohod_pathwise", "stream_uniforms", "superpose",
    "symmetrize", "t_coefficient_mc", "tensor", "tensor_power", "thin",
    "thin_counts", "wiener_ito", "wiener_ito_counts", "worker_count",
]
