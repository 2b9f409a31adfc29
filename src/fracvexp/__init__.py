"""fracvexp: the variable-exponent fractional p(x,.)-Laplacian at desk scale.

Evaluate the nonlocal operator pointwise, certify the auxiliary lemmas and
maximum principles behind the moving-planes method, solve the model
Dirichlet problem on the unit ball, and sweep reflecting hyperplanes to
diagnose radial symmetry.
"""

from .errors import (EvaluationError, FracvexpError, NumericError,
                     PreconditionError, TailError)
from .exponents import (ExponentSpec, ValidationReport, eval_p, make_spec,
                        spec_from_config, validate, validate_p1, validate_p2)
from .geometry import PlaneGeometry, axis_plane
from .grids import ReflectedFunction, SampledFunction
from .nonlocal_operator import (TailReport, eval_plap, eval_plap_field,
                                f_power, kernel, tail_integrability_check)
from .quadrature import QuadratureConfig

__version__ = "0.1.0"

__all__ = [
    "EvaluationError", "ExponentSpec", "FracvexpError", "NumericError",
    "PlaneGeometry", "PreconditionError", "QuadratureConfig",
    "ReflectedFunction", "SampledFunction", "TailError", "TailReport",
    "ValidationReport", "axis_plane", "eval_p", "eval_plap", "eval_plap_field",
    "f_power", "kernel", "make_spec", "spec_from_config",
    "tail_integrability_check", "validate", "validate_p1", "validate_p2",
]
