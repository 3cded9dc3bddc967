"""Word combinatorics, aperiodic labelings, and traveling-salesman
bounds on Cayley metrics of finitely generated groups."""

__version__ = "0.1.0"

from .words import (  # noqa: F401
    Occurrence,
    PowerWitness,
    Word,
    first_aperiodic_word,
    format_word,
    is_k_aperiodic,
    max_power_order,
    parse_word,
    reduce,
    shift_right,
)
from .cancellation import (  # noqa: F401
    Piece,
    SymmetrizedSet,
    satisfies_small_cancellation,
)
from .trees import PlaneTernaryTree, enumerate_simple_paths  # noqa: F401
from .sequences import (  # noqa: F401
    InadmissibleEngine,
    LabeledTree,
    label_ray_adversarial,
    label_tree_adversarial,
    label_tree_three_letters,
    squarefree_ternary,
)
from .groups import GroupOracle, make_oracle  # noqa: F401
from .tours import (  # noqa: F401
    ClosedPath,
    RelatedSet,
    SamplerConfig,
    Tour,
    folner_traversal_demo,
    is_xi_related,
    k_boundary,
    l_prime,
    mst_bounds,
    revise,
    sample_related_set,
    tsp_exact,
    tsp_heuristic,
    ts_lambda_experiment,
    xi_boundary,
)
from .forests import (  # noqa: F401
    ClusterTree,
    PieceDecomposition,
    TreeForest,
    build_forest_p,
    build_forest_p10,
    decompose_pieces,
    verify_forest,
)
from .testers import (  # noqa: F401
    PropertySpec,
    SearchBudget,
    Verdict,
    XiParams,
    burnside_pipeline,
    construct_xi,
    test_property,
    variety_counterexample,
    verify_product_aperiodicity,
)
