"""Douglas-Rachford iterations for convex feasibility with flexible controls."""

from types import ModuleType as _ModuleType

from .control import (
    ControlMap,
    Cyclic,
    Explicit,
    InvalidControl,
    RandomBlock,
    cover_index,
    is_quasi_periodic,
    window,
    windows_quasi_periodic,
)
from .convex import (
    AffineSubspace,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Hyperplane,
    InvalidSet,
    set_from_params,
)
from .diagnostics import (
    CheckParameterError,
    PropertyReport,
    asymptotic_regularity_series,
    check_firmly_nonexpansive,
    check_nonexpansive,
    check_quasi_nonexpansive,
    feasibility_report,
)
from .operators import (
    Composition,
    DrOperator,
    Operator,
    Projection,
    Reflection,
    Relaxation,
    composite_reflection,
    dr_operator,
)
from .problem_io import (
    ParseError,
    RunConfig,
    execute_config,
    format_reports,
    format_trace,
    load_document,
    parse_document,
    write_trace,
)
from .solver import (
    CONVERGED_DISPLACEMENT,
    FEASIBLE,
    MAX_ITERS,
    NON_FINITE,
    FeasibilityProblem,
    IterationTrace,
    StopRule,
    TraceStep,
    build_S,
    build_composite_Q,
    run_composite,
    run_unrestricted_dr,
    run_unrestricted_product,
)
from .space import DimensionMismatch, Point, norm

# The public names are the ones bound above: every name without a leading
# underscore that is not a submodule.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
