"""Static analysis engines behind the ``repro check`` verification rules.

Two engines live here, both pure-AST (no imports of the analyzed code):

* :mod:`repro.check.analysis.intervals` — an abstract-interpretation
  value-range analyzer over integer intervals.  Rule R006 drives it over
  ``repro.core``/``repro.cache``/``repro.fastsim`` to prove that every
  write into a declared hardware bit-field fits its width.
* :mod:`repro.check.analysis.parity` — AST extraction of override-guard
  styles, width constants and ``@hw_checked`` declarations from the
  reference policies, plus the packed engine's width-constant usage.
  Rule R007 checks them (and a committed manifest) to catch the class
  of drift that caused the historical ``nasc=0`` override bug and
  packed arrays outgrowing their hardware fields.
"""

from repro.check.analysis.intervals import (
    FieldTable,
    Interval,
    ValueRangeAnalyzer,
    WidthViolation,
)
from repro.check.analysis.parity import (
    PARITY_MANIFEST_NAME,
    check_consistency,
    compute_parity,
    diff_parity,
    load_parity,
    parity_path,
    write_parity,
)

__all__ = [
    "FieldTable",
    "Interval",
    "ValueRangeAnalyzer",
    "WidthViolation",
    "PARITY_MANIFEST_NAME",
    "check_consistency",
    "compute_parity",
    "diff_parity",
    "load_parity",
    "parity_path",
    "write_parity",
]
