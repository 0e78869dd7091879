"""Exact rational-point counting and bound tables for curves over finite fields.

The package computes, in exact integer and rational arithmetic only:

* prime powers and the check of a field order against a cap (``primes``),
* deterministic finite-field arithmetic with a canonical modulus choice
  (``gf``), in fields up to 2^16, built only by ``verify``, the tests and
  the benchmark,
* point counts for a recursive family of projective curves (``homma_family``),
* split-place counts and ratios for an asymptotically optimal
  Artin-Schreier tower (``gs_tower``),
* Weierstrass semigroups of the tower and its genus (``semigroup``),
* the bound records on D(q) and their tables (``bounds``),
* a deterministic CLI (``cli``) and a self-verification suite (``verify``),
  a package with one module per scope (``verify.gf``, ``verify.homma``,
  ``verify.gs``, ``verify.semigroup``, ``verify.bounds``), each loaded
  only when its scope runs.

The production modules hold only what a command or the library reads.
References that only a check reads live in the scope that reads them: the
classical bounds and the coefficient scan in ``verify.bounds``, the tower's
ratio sequence and its limit in ``verify.gs``, the generator list in
``verify.semigroup``; the primality test is ``gf.is_prime``.
"""

__version__ = "0.1.0"

# Scopes and default scan depth of the ``verify`` subcommand; kept here so
# the CLI builds its parser without importing the verify suite.
SCOPES = ("all", "gf", "homma", "gs", "semigroup", "bounds")
DEFAULT_N_MAX = 60

# CPython's default limit on int-to-str conversion: a count prints only
# below PRINT_LIMIT, with at most MAX_PRINTED_DIGITS digits.
MAX_PRINTED_DIGITS = 4300
PRINT_LIMIT = 10**MAX_PRINTED_DIGITS


def printable_power(base: int, exp: int) -> int | None:
    """base**exp below PRINT_LIMIT, else None; as base**exp >= 2^(exp * (bit_length(base) - 1)),
    an unprintable power is never formed past about 1.6 times the limit's bits."""
    if exp * (base.bit_length() - 1) < PRINT_LIMIT.bit_length():
        power = base**exp
        if power < PRINT_LIMIT:
            return power
    return None


__all__ = ["__version__"]
