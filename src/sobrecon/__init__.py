"""Reconstruction of mixed-smoothness functions from boundary traces.

A function whose mixed derivatives up to a per-axis order are square
integrable is uniquely determined by the traces of those derivatives on
lower boundary faces.  This package implements the reconstruction map and
its inverse exactly on piecewise polynomials, and uses them to build
approximations that converge in Sobolev norms by projecting the traces
(Legendre or step-function basis) instead of the function itself.
"""

from .analytic import AnalyticFunction
from .bench import FIGURES, SweepResult, fit_slope, run_sweep, sweep_point
from .core import (
    FaceSpec,
    HyperRect,
    MultiIndex,
    TraceFunction,
    active_axes,
    face_spec,
    multiindex_range,
)
from .expansion import (
    PolyTraceBundle,
    apply_tensor,
    extract_traces_poly,
    fund_int_pair,
    reconstruct,
)
from .legseries import LegendreSeries, legendre_values
from .piecewise import PiecewisePoly, coeff_distance
from .projection import (
    legendre_trace_bundles,
    sobolev_project_legendre,
    sobolev_project_step,
    step_trace_bundles,
)
from .quadrature import (
    AxisGrading,
    QuadratureRule,
    dc_error,
    integrate,
    l2_error,
    rule_for,
    sobolev_error,
)
from .targets import available_examples, example1, example2, get_example, random_poly_function

__version__ = "0.1.0"

__all__ = [
    "AnalyticFunction",
    "AxisGrading",
    "FIGURES",
    "FaceSpec",
    "HyperRect",
    "LegendreSeries",
    "MultiIndex",
    "PiecewisePoly",
    "PolyTraceBundle",
    "QuadratureRule",
    "SweepResult",
    "TraceFunction",
    "active_axes",
    "apply_tensor",
    "available_examples",
    "coeff_distance",
    "dc_error",
    "example1",
    "example2",
    "extract_traces_poly",
    "face_spec",
    "fit_slope",
    "fund_int_pair",
    "get_example",
    "integrate",
    "l2_error",
    "legendre_trace_bundles",
    "legendre_values",
    "multiindex_range",
    "random_poly_function",
    "reconstruct",
    "rule_for",
    "run_sweep",
    "sobolev_error",
    "sobolev_project_legendre",
    "sobolev_project_step",
    "step_trace_bundles",
    "sweep_point",
]
