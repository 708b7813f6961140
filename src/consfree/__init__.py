"""consfree: a toolkit for first-order cons-free term rewriting.

Cons-free rules never build new data, so everything a program can compute is
assembled from pieces of its input and of its own right-hand sides.  That
makes exhaustive tabulation polynomial, and this package ships the whole
workbench around that fact: term and rule types, a `.trs` reader/printer,
static analyzers (cons-freeness, semi-linearity, constrainedness, data-safe
terms), a brute-force rewrite oracle, the tabulation decision procedure, two
semantics-preserving transformations (argument duplication removal and the
fallback-constant extension that reconciles call-by-value with full
rewriting), and a compiler from clocked Turing machines to cons-free systems.
"""

__version__ = "0.1.0"

from .terms import (  # noqa: E402
    App,
    Kind,
    Rule,
    Symbol,
    Term,
    Trs,
    Var,
    apply,
    format_term,
    is_data,
    match,
    positions,
    replace_at,
    subterms,
)
from .fmt import encode_input, parse_trs, print_trs  # noqa: E402

__all__ = [
    "App",
    "Kind",
    "Rule",
    "Symbol",
    "Term",
    "Trs",
    "Var",
    "apply",
    "encode_input",
    "format_term",
    "is_data",
    "match",
    "parse_trs",
    "positions",
    "print_trs",
    "replace_at",
    "subterms",
    "__version__",
]
