"""Garcia-Stichtenoth tower over F_{q^2} and its split-place counts.

Level m of the tower adjoins x_{m} with

    x_{m}^q + x_{m} = x_{m-1}^q / (x_{m-1}^{q-1} + 1).

Its completely split places are counted in closed form.  Over F_{q^2} the
map x -> x^q + x is the trace to F_q: F_q-linear, onto F_q, with a kernel
of q elements, so every value of F_q has a fiber of exactly q elements.
Call v admissible when v^q + v != 0; q^2 - q values are.  For admissible v
the right-hand side equals v^(q+1) / (v^q + v), a norm over a trace, both
in F_q^*.  So the equation for x_{m} has exactly q solutions, each with
that nonzero right-hand side as its trace, hence admissible again.  The
chains of solutions from the admissible starts give (q^2 - q) q^(m-1) =
(q-1) q^m split places at level m (Garcia-Stichtenoth, Invent. Math. 121,
1995).  Walking every chain over F_{q^2} is the oracle in ``rpl.verify``.
The genus is ``semigroup.gap_count(q, m)``; the ratios of the split count to
the embedding degree, and their limit, are references in ``rpl.verify.gs``.
"""

from __future__ import annotations

from . import semigroup
from .primes import factor_prime_power


def count_split_chains(q: int, m: int) -> int:
    """Split places (q-1)*q^m of level m, a certified lower bound on its rational places.

    Only the completely split places above the q^2 - q admissible starting
    values are counted; the one totally ramified rational place is not added, so
    this stays a bound rather than a claimed exact total.  Rejects q that is
    not a prime power, then m < 1, then a level whose q^(m-1) cannot print; no
    command cap is checked here.
    """
    factor_prime_power(q)
    return (q - 1) * q * semigroup.checked_power(q, m)
