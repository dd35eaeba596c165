"""Executable Morse theory of complex Grassmannians.

Schubert cell combinatorics, Poincare/Morse/Morse-Bott polynomials, explicit
gradient flows and their limits, momentum polytopes, Witten-complex homology,
and the Schubert-calculus cup product.
"""

from .symbols import (
    MAX_SYMBOLS,
    AmbientMismatchError,
    CapacityError,
    GeneralizedSchubertSymbol,
    PartialFlagSpectrum,
    SchubertSymbol,
    bruhat_leq,
    cell_dimension,
    check_ambient,
    complement,
    critical_index,
    enumerate_generalized_symbols,
    enumerate_symbols,
    flow_line_exists,
    generalized_index,
    morse_refinements,
    ndcm_dimension,
    ndcm_shape,
    schubert_conditions,
)
from .polynomials import (
    IntPolynomial,
    MorseViolation,
    euler_characteristic,
    gaussian_generating,
    is_lacunary_perfect,
    mb_polynomial,
    morse_inequalities,
    morse_polynomial_by_cells,
    partition_count,
    poincare_closed,
    poincare_recurrence,
)
from .flows import (
    AmbiguousCellError,
    DegenerateInputError,
    DivergenceError,
    GrassmannPoint,
    HeightSpectrum,
    TangentVector,
    flow,
    gradient,
    height_value,
    integrate_flow,
    limit_symbol,
    plucker_embed,
    plucker_weights,
    projective_distance,
    projector,
    random_point,
    span_distance,
)
from .polytopes import (
    MomentPoint,
    VertexPolytope,
    face_counts,
    flow_moment_trace,
    grassmannian_polytope,
    membership,
    moment_height,
    moment_map,
    schubert_polytope,
    symbol_vertex,
)
from .witten import (
    ComplexValidationError,
    HomologyResult,
    WittenComplex,
    circle_complex,
    dump_complex,
    elementary_divisors,
    grassmannian_complex,
    homology,
    load_complex,
    rp_complex,
    smith_normal_form,
    torus_complex,
    validate_complex,
)
from .ring import (
    CohomologyClass,
    PartitionShape,
    chern_presentation_check,
    cup_product,
    degree,
    duality_pairing,
    lr_coefficient,
    partition_to_symbol,
    pieri_product,
    special_symbol,
    symbol_to_partition,
    triple_product,
)
from .graphs import (
    FlowGraph,
    LabeledEnds,
    cup_product_instance,
    graph_first_betti,
    interval_graph,
    moduli_dimension,
    two_in_one_out_tree,
    y_graph,
)

__version__ = "0.1.0"
