"""Free commutative Rota-Baxter algebras, multiple zeta values and their
q-analogs: exact mixable shuffle products (the quasi-shuffle is their
weight-1 case), symbolic identity verification, double-shuffle relation
generation and numeric checks by truncated nested sums.
"""

from .coefficients import (
    ONE_MINUS_Q,
    PolyQ,
    RatFuncQ,
    poly_gcd,
    series_exp,
    series_log1p,
)
from .letters import (
    COMPOSITION,
    MONOMIAL,
    QLETTERS,
    LetterSystem,
)
from .tensor_algebra import (
    ShaAlgebra,
    ShaElement,
    mixable_shuffle,
    render_word,
)
from .identity_engine import (
    IdentityReport,
    bohnenblust_spitzer_check,
    congruence_check,
    exp_star_log_check,
    freshman_power,
    set_partitions,
    spitzer_check,
)
from .mzv_calculus import (
    CongruenceRelation,
    InadmissibleError,
    Relation,
    congruence_zeta_relation,
    double_shuffle_relation,
    hoffman_partition_relation,
    is_admissible,
    q_stuffle,
    shuffle_zeta,
    spitzer_zeta_relation,
    stuffle,
)
from .numeric_eval import (
    EvalConfig,
    EvalResult,
    eval_relation,
    mpl_num,
    nested_sum_oracle,
    qmzv_num,
    zeta_num,
)
from . import operator_gallery

__version__ = "0.1.0"
