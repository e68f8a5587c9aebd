"""Exact-arithmetic toolkit for Szlenk-type indices.

Two cooperating halves:

* a symbolic calculus on ordinals (Cantor normal form below epsilon_0) and
  epsilon-indexed Szlenk profiles of direct-sum expressions, and
* an exact derivation engine on a finitely representable class of w*-compact
  sets ("fan sets") whose epsilon-Szlenk derivations can be computed with
  rational arithmetic only.

All comparisons are exact: magnitudes are carried as q-th powers of rationals
so no irrational q-th root is ever materialized.
"""
from __future__ import annotations

from .ordinal import (  # noqa: F401
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    ParseError,
    add,
    is_power_of_omega,
    least_omega_power_above,
    mul,
    omega_pow,
)

from .calculus import (  # noqa: F401
    Atom,
    ConstNorms,
    ConstTail,
    Copies,
    CSpace,
    DirectSum,
    EpsProfile,
    FiniteSum,
    GeometricNorms,
    InvalidParams,
    LadderMembers,
    LadderTail,
    MalformedExpr,
    ParamFamily,
    SpaceIndex,
    c_space_index,
    direct_sum_index,
    frount_M,
    frount_M_qpow,
    profile_eval,
    profile_total_sup,
    sigma,
    sigma_qpow,
)

from .fansets import (  # noqa: F401
    DerivationTrace,
    DisjUnion,
    Fan,
    GroupNotFound,
    MalformedFanSet,
    OutsideExactFragment,
    ProdQ,
    Scale,
    Sing,
    TraceStep,
    contains_origin,
    count_apexes,
    depth_fan,
    derive,
    derive_steps,
    diam_q,
    disj,
    project,
    radius_q,
    scaled,
    sz_eps,
)

from .pointmodel import (  # noqa: F401
    ProductModel,
    model_sz,
)

from .products import (  # noqa: F401
    AEpsGrid,
    BqCover,
    ProductBound,
    ProductUnion,
    a_eps_grid,
    bound_product_derivation,
    bq_cover,
    bq_member,
    derive_product_step,
    product_sz,
    product_union_derive,
    product_union_sz,
)

from .checks import (  # noqa: F401
    SUITES,
    SuiteReport,
    TvlReport,
    UnionLemmaReport,
    UnknownSuite,
    run_suite,
    tvl_check,
    union_lemma_check,
)

from .documents import (  # noqa: F401
    DocumentError,
    dumps_canonical,
    fanset_from_doc,
    fanset_to_doc,
    space_from_doc,
    space_index_to_doc,
    space_to_doc,
    trace_to_doc,
)

__version__ = "0.1.0"
