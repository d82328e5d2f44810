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
    coeff_transform,
    measure_factor,
    morse_basis,
    morse_map,
    oscillator_dual_hahn_basis,
    oscillator_map,
    oscillator_pollaczek_basis,
    overlap,
    overlap_matrix,
    rosen_morse_basis,
    rosen_morse_map,
)
from .exceptions import (
    AccuracyError,
    ComplexWeightError,
    DomainError,
    ParameterDomainError,
    QuadratureOrderError,
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
    SpectrumResult,
    SupercriticalInverseSquare,
    WavefunctionSeries,
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
    truncated_eigenvalues,
)
from .oracle import (
    GridSolution,
    QuadratureRule,
    adaptive_quad,
    gauss_rule,
    grid_solve,
    node_count,
    overlap_integral,
)
from .orthopoly import (
    DualHahnFamily,
    JacobiFamily,
    LaguerreFamily,
    PollaczekFamily,
    dual_hahn_closed_form,
    dual_hahn_eval,
    gamma_abs_squared,
    jacobi_eval,
    laguerre_eval,
    pollaczek_closed_form,
    pollaczek_eval,
    weight_eval,
)

__version__ = "0.1.0"
