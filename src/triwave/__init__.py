"""triwave: tridiagonal-representation solver for the 1D Schrodinger equation.

Wavefunctions are expanded in weighted Laguerre / Jacobi bases under a
coordinate map that takes the real line to a half line or a finite interval.
Requiring the wave operator H - E to be tridiagonal in the basis singles out
four solvable potential families; the expansion coefficients then satisfy
three-term recursions solved by classical and Pollaczek-type orthogonal
polynomial families.  An independent finite-difference grid oracle verifies
every closed-form spectrum.
"""

from .basis import (
    BasisSpec,
    CoordinateMap,
    basis_eval,
    morse_basis,
    morse_map,
    oscillator_dual_hahn_basis,
    oscillator_map,
    oscillator_pollaczek_basis,
    overlap_matrix,
    rosen_morse_basis,
    rosen_morse_map,
    series_eval,
)
from .exceptions import (
    AccuracyError,
    ComplexWeightError,
    DomainError,
    EvaluationOverflowError,
    ParameterDomainError,
    RecursionBreakdownError,
    SingularParameterError,
    TriwaveError,
    UnsupportedStructureError,
)
from .models import (
    GeneralizedMorse,
    HarmonicOscillator,
    Level,
    OscillatorInverseSquare,
    RosenMorse,
    SpectrumCheck,
    SpectrumResult,
    SupercriticalInverseSquare,
    WavefunctionSeries,
    check_spectrum,
    closed_form_coefficients,
    default_grid,
    morse_bound_count,
    potential_eval,
    recursion_for,
    spectrum,
    wavefunction,
)
from .operators import (
    CoefficientSeries,
    RecursionCoefficients,
    build_morse,
    build_oscillator_dual_hahn,
    build_oscillator_pollaczek,
    build_rosen_morse,
    numeric_jmatrix,
    solve_recursion,
    symmetric_form,
)
from .oracle import (
    GridSolution,
    QuadratureRule,
    adaptive_quad,
    gauss_rule,
    grid_solve,
    node_count,
)
from .orthopoly import (
    DualHahnFamily,
    JacobiFamily,
    LaguerreFamily,
    PollaczekFamily,
    dual_hahn_closed_form,
    evaluate,
    gamma_abs_squared,
    pollaczek_closed_form,
    sequence,
    weight_eval,
)

__version__ = "0.1.0"
