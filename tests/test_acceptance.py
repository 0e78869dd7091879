"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"CRITERION n PASS/FAIL" line. Budgets and tolerances are pinned below.
"""

import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import parity
from rpl import bounds, gs_tower, homma_family, semigroup, verify
from rpl.verify import bounds as verify_bounds, gf as verify_gf, gs as verify_gs
from rpl.verify import homma as verify_homma, semigroup as verify_semigroup

QUARTIC_BUDGET_S = 0.001
GRID_BUDGET_S = 30.0
SPLIT_BUDGET_S = 10.0
COEFF_EPS = Fraction(1, 10**9)
COEFF_N_MAX = 60
RATIO_TOL = Fraction(1, 1000)
RATIO_LEVEL = 40

GRID_Q = (3, 4, 5, 7, 8, 9)
GRID_ELL = (2, 3, 4, 5, 6)
TOWER_Q = (2, 3, 4)
TOWER_M_MAX = 8
RATIO_Q = (2, 3, 4, 5)
SRC = Path(__file__).resolve().parent.parent / "src"

# `rpl verify all` in the parity corpus, which the benchmark also pins
VERIFY_ALL = parity.row("verify all")

EXPECTED_FIRST_CONVERGED_N = {
    2: 35, 3: 22, 4: 18, 5: 16, 7: 13, 8: 13, 9: 12, 11: 11, 13: 10, 16: 10,
}


def report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def homma_grid():
    start = time.perf_counter()
    results = {}
    for q in GRID_Q:
        for ell in GRID_ELL:
            analytic = homma_family.count_total(q, ell)
            brute = verify_homma.brute_force_projective(q, ell)
            results[(q, ell)] = (analytic, brute)
    return results, time.perf_counter() - start


def test_criterion_01_exceptional_quartic_count_and_speed():
    count = verify_bounds.count_exceptional_quartic()
    plane_bound = verify_bounds.sziklai_bound(4, 4)
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        again = verify_bounds.count_exceptional_quartic()
        timings.append(time.perf_counter() - start)
        assert again == count
    best = min(timings)
    ok = count == 14 and plane_bound == 13 and count > plane_bound
    ok = ok and best < QUARTIC_BUDGET_S
    report(
        1, ok,
        f"quartic count {count} exceeds degree-4 plane bound {plane_bound}, "
        f"warm min {best * 1000:.3f} ms (budget 1 ms)",
    )


def test_criterion_02_infinity_grid_and_brute_force(homma_grid):
    results, elapsed = homma_grid
    bad = []
    for (q, ell), (analytic, brute) in results.items():
        if analytic.infinity != (q - 1) ** (ell - 1):
            bad.append(f"({q},{ell}) infinity {analytic.infinity}")
        if (analytic.affine, analytic.infinity, analytic.total) != (
            brute.affine, brute.infinity, brute.total
        ):
            bad.append(f"({q},{ell}) brute mismatch")
    ok = not bad and elapsed < GRID_BUDGET_S
    report(
        2, ok,
        f"{len(results)} cells match the closed form and brute force, "
        f"{elapsed:.2f} s (budget 30 s)" + (f"; {bad[:3]}" if bad else ""),
    )


def test_criterion_03_total_at_least_degree(homma_grid):
    results, _ = homma_grid
    bad = []
    for (q, ell), (analytic, _brute) in results.items():
        degree = (q - 1) ** (ell - 1)
        if analytic.total < degree or Fraction(analytic.total, degree) < 1:
            bad.append(f"({q},{ell})")
    report(3, not bad, f"total >= degree on all {len(results)} cells" + (f"; {bad}" if bad else ""))


def test_criterion_04_split_chain_counts():
    start = time.perf_counter()
    bad = []
    cells = 0
    for q in TOWER_Q:
        walk = verify_gs.tower_level_states(q, TOWER_M_MAX)
        for m, dist in enumerate(walk, start=1):
            cells += 1
            got = gs_tower.count_split_chains(q, m)
            mass = sum(dist.values())
            if not got == mass == (q - 1) * q**m:
                bad.append(f"({q},{m}) {got} walk {mass}")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < SPLIT_BUDGET_S
    report(
        4, ok,
        f"{cells} split counts match (q-1)q^m and the chain walk, {elapsed:.2f} s (budget 10 s)"
        + (f"; {bad}" if bad else ""),
    )


def test_criterion_05_gap_count_matches_genus():
    grid = verify_semigroup.semigroup_grid()
    bad = []
    for q, m in grid:
        s = verify_semigroup.weierstrass_semigroup(q, m)
        gaps = s.conductor - len(s.below)
        # the Garcia-Stichtenoth genus of level m
        if m % 2 == 0:
            genus = (q ** (m // 2) - 1) ** 2
        else:
            genus = (q ** ((m + 1) // 2) - 1) * (q ** ((m - 1) // 2) - 1)
        if not gaps == semigroup.gap_count(q, m) == genus:
            bad.append(f"({q},{m})")
    report(
        5, not bad,
        f"gap count equals genus on all {len(grid)} cells with conductor <= 10^6"
        + (f"; {bad}" if bad else ""),
    )


def test_criterion_06_generator_bounds_with_equality_cases():
    grid = [(q, m) for q, m in verify_semigroup.semigroup_grid() if m >= 2]
    bad = []
    last = {}
    for q, m in grid:
        gens = tuple(verify_semigroup.minimal_generators(q, m))
        c = semigroup.conductor(q, m)
        smallest = verify_semigroup.weierstrass_semigroup(q, m).smallest_positive()
        smallest_ok = gens[0] == smallest == q ** (m - 1) == semigroup.smallest_positive(q, m)
        largest_ok = gens[-1] == c + q ** (m - 1) - 1 == semigroup.largest_generator(q, m)
        if not (smallest_ok and largest_ok):
            bad.append(f"({q},{m})")
        last[q, m] = gens[-1]
    equality = (
        last[2, 3] == 7 == semigroup.conductor(2, 3) + 2**2 - 1
        and last[2, 4] == 19 == semigroup.conductor(2, 4) + 2**3 - 1
    )
    ok = not bad and equality
    report(
        6, ok,
        f"bounds hold on all {len(grid)} cells; largest generator meets the "
        f"upper bound at (2,3) -> {last[2, 3]} and (2,4) -> {last[2, 4]}"
        + (f"; {bad}" if bad else ""),
    )


def test_criterion_07_coefficient_convergence():
    from rpl.primes import prime_powers

    targets = [q for q, _, _ in prime_powers(16)]
    assert targets == sorted(EXPECTED_FIRST_CONVERGED_N)
    bad = []
    for q in targets:
        rep = verify_bounds.upper_limit_check(q, COEFF_N_MAX, COEFF_EPS)
        gap_at_n0 = bounds.nondegenerate_coefficient(q, rep.n0) - (q - 1)
        if rep.n0 != EXPECTED_FIRST_CONVERGED_N[q]:
            bad.append(f"q={q} n0={rep.n0}")
        if not (0 < gap_at_n0 < COEFF_EPS and rep.final_gap < COEFF_EPS):
            bad.append(f"q={q} gap {gap_at_n0}")
    report(
        7, not bad,
        f"coefficient within 1e-9 of q-1 by n <= {COEFF_N_MAX} for all "
        f"{len(targets)} prime powers up to 16" + (f"; {bad}" if bad else ""),
    )


def test_criterion_08_ratio_gap_at_level_40():
    bad = []
    gaps = []
    for q in RATIO_Q:
        seq = verify_gs.tower_ratio_sequence(q, RATIO_LEVEL)
        gap = seq[-1] - verify_gs.points_per_degree_limit(q)
        gaps.append(f"q={q} {float(gap):.2e}")
        if not (0 < gap < RATIO_TOL):
            bad.append(f"q={q} gap {gap}")
    report(
        8, not bad,
        f"level-{RATIO_LEVEL} ratio within 1/1000 above the limit: {', '.join(gaps)}"
        + (f"; {bad}" if bad else ""),
    )


def test_criterion_09_property_sweeps_zero_failures():
    [axioms] = verify._run("gf", verify_gf._check_field_axioms)
    [closure] = verify._run("semigroup", verify_semigroup._check_additive_closure)
    [mass] = verify._run("homma", verify_homma._check_mass_conservation)
    ok = axioms.ok and closure.ok and mass.ok
    report(
        9, ok,
        "zero failures in field axioms (an exhaustive multiplication certificate "
        "for all 604 fields to 2^12, plus 1000 additive and distributive triples "
        "per field), "
        "semigroup additive closure (500 pairs per cell), and level mass "
        "conservation"
        + ("" if ok else f"; {[r.detail for r in (axioms, closure, mass) if not r.ok]}"),
    )


def _cli_bytes(*args: str) -> tuple[int, bytes]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("RPL_MAX_FIELD", None)
    proc = subprocess.run(
        [sys.executable, "-m", "rpl.cli", *args], capture_output=True, env=env
    )
    return proc.returncode, proc.stdout


def test_criterion_10_byte_identical_cli_runs():
    rc1, verify_first = _cli_bytes("verify", "all")
    rc2, verify_second = _cli_bytes("verify", "all")
    rc3, table_first = _cli_bytes("bounds", "--table", "32")
    rc4, table_second = _cli_bytes("bounds", "--table", "32")
    ok = (
        rc1 == rc2 == rc3 == rc4 == 0
        and verify_first == verify_second
        and hashlib.sha256(verify_first).hexdigest() == VERIFY_ALL.sha256
        and table_first == table_second
        and verify_first.endswith(b"checks passed\n")
        and len(table_first) > 0
    )
    report(
        10, ok,
        f"verify all twice ({len(verify_first)} bytes) and bounds --table 32 "
        f"twice ({len(table_first)} bytes) are byte-identical with exit 0, "
        f"and verify all has the pinned sha256",
    )
