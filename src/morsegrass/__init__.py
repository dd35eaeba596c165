"""Executable Morse theory of complex Grassmannians.

Schubert cell combinatorics, Poincare/Morse/Morse-Bott polynomials, explicit
gradient flows and their limits, momentum polytopes, Witten-complex homology,
and the Schubert-calculus cup product.

Names are loaded on first use (PEP 562): ``import morsegrass`` imports no
submodule, and numpy is imported only through ``flows``, when a name from it
is first looked up or ``flow_moment_trace`` first runs.  The
exact modules (symbols, polynomials, witten, ring, graphs, polytopes) never
import numpy at load.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "symbols": (
        "MAX_SYMBOLS", "AmbientMismatchError", "AmbiguousCellError", "CapacityError",
        "GeneralizedSchubertSymbol", "SchubertSymbol", "bruhat_leq",
        "cell_dimension", "check_ambient", "complement", "critical_index",
        "enumerate_generalized_symbols", "enumerate_symbols", "flow_line_exists",
        "generalized_index", "morse_refinements", "ndcm_dimension", "schubert_conditions",
    ),
    "polynomials": (
        "IntPolynomial", "MorseViolation", "euler_characteristic", "gaussian_generating",
        "is_lacunary_perfect", "mb_polynomial", "morse_inequalities",
        "morse_polynomial_by_cells", "poincare_closed", "poincare_recurrence",
    ),
    "flows": (
        "DegenerateInputError", "DivergenceError", "GrassmannPoint", "HeightSpectrum",
        "TangentVector", "flow", "gradient", "height_value", "integrate_flow",
        "limit_symbol", "plucker_embed", "plucker_weights", "projective_distance",
        "projector", "random_point", "span_distance",
    ),
    "polytopes": (
        "MomentPoint", "VertexPolytope", "face_counts", "flow_moment_trace",
        "grassmannian_polytope", "membership", "moment_height", "moment_map",
        "schubert_polytope", "symbol_vertex",
    ),
    "witten": (
        "ComplexValidationError", "HomologyResult", "WittenComplex", "circle_complex",
        "dump_complex", "elementary_divisors", "grassmannian_complex", "homology",
        "load_complex", "rp_complex", "smith_normal_form", "torus_complex",
    ),
    "ring": (
        "CohomologyClass", "chern_presentation_check", "cup_product", "degree",
        "duality_pairing", "lr_coefficient", "pieri_product", "special_symbol", "triple_product",
    ),
    "graphs": (
        "FlowGraph", "LabeledEnds", "cup_product_instance", "graph_first_betti",
        "interval_graph", "moduli_dimension", "two_in_one_out_tree", "y_graph",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule also binds it in this namespace
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_OWNER))
