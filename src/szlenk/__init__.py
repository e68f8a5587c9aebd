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
