"""The benchmark's workloads: real ``rpl`` command lines and how to check them.

Each invocation carries the exit code and the sha256 of the stdout that the
seed commit produced, and optionally a closed-form check. The closed forms
are the paper's formulas written out here, so they do not rely on the code
under test. A check reads only the first ``HEAD_BYTES`` of stdout, which
holds every scalar field: the runner never keeps a whole multi-megabyte
output in memory (see ``run.py`` on peak RSS).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

HEAD_BYTES = 1 << 16

Check = Callable[[bytes], list[str]]


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]
    exit_code: int
    sha256: str
    check: Check | None = None

    def label(self) -> str:
        return " ".join(self.args)


def genus(q: int, m: int) -> int:
    """Genus of level m of the Garcia-Stichtenoth tower over F_{q^2}."""
    if m % 2 == 0:
        return (q ** (m // 2) - 1) ** 2
    return (q ** ((m + 1) // 2) - 1) * (q ** ((m - 1) // 2) - 1)


def _expect(head: bytes, expected: dict[str, int]) -> list[str]:
    """Compare integer fields of a JSON output's head with closed forms."""
    wrong = []
    for key, want in expected.items():
        match = re.search(rb'"%s":(-?\d+)' % key.encode(), head)
        got = int(match.group(1)) if match else None
        if got != want:
            wrong.append(f"{key} = {got}, closed form {want}")
    return wrong


def gs_json(q: int, m: int) -> Check:
    """split = (q-1)q^m and gap_count = genus, for `gs --format json`."""
    g = genus(q, m)
    return lambda head: _expect(
        head, {"split": (q - 1) * q**m, "genus": g, "gap_count": g}
    )


def semigroup_json(q: int, m: int) -> Check:
    """conductor = q^m - q^ceil(m/2) and gap_count = genus."""
    return lambda head: _expect(
        head,
        {"conductor": q**m - q ** ((m + 1) // 2), "gap_count": genus(q, m)},
    )


def homma_json(q: int, ell: int) -> Check:
    """infinity = degree = (q-1)^(ell-1); affine = q-1 (odd q), ell(q-2)+2 (even q)."""
    degree = (q - 1) ** (ell - 1)
    affine = q - 1 if q % 2 else ell * (q - 2) + 2
    return lambda head: _expect(
        head,
        {
            "affine": affine,
            "infinity": degree,
            "total": affine + degree,
            "degree": degree,
        },
    )


def all_checks_passed(head: bytes) -> list[str]:
    """The last line of `verify` reads `N/N checks passed`."""
    match = re.search(rb"(\d+)/(\d+) checks passed\n\Z", head)
    if match is None:
        return ["no 'N/N checks passed' line"]
    passed, total = match.groups()
    return [] if passed == total else [f"{passed.decode()}/{total.decode()} checks passed"]


def _cli(line: str, sha256: str, check: Check | None = None) -> Invocation:
    return Invocation(tuple(line.split()), 0, sha256, check)


HELP = _cli("--help", "d3c7200f5081c65f890e96df0aa3421d7c08f19baad01b6f30cda56fc0a95fc6")

# Each workload stresses a different layer, so that a change to one layer
# moves its own workload and leaves the others flat; BENCHMARK.json says why
# each was chosen.
WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "tower": (
        _cli("gs --q 16 --m 3 --format json", "058bf98d25097ce8fb367b03eea205fe51465d2095a96564c5e81e3b95919936", gs_json(16, 3)),
        _cli("gs --q 9 --m 3", "6e1f19ec27f0bd505dc65a1be50dbfbd934106615e11ea6c65a65a83e673ec85"),
        _cli("gs --q 8 --m 4 --format csv", "4d609d8b532ba77cbfe427a5863c8785d4b9f12b0b1fcb50ed6899a7c647dfca"),
        _cli("gs --q 5 --m 4", "653f753f4e57699f28cecd8ba7da6fe7556edf8e68cfdbc7336dfe0db467930c"),
        _cli("gs --q 4 --m 6 --format json", "012b0d9c824e15f17d5e0d47bf09561fccc17e042091933ab361122bd7cfea33", gs_json(4, 6)),
        _cli("gs --q 3 --m 8 --format csv", "84f3c3e3034520f0e74c4dfc9d1fc104c8c1c09e3acbde0eedf3ebb48105d1b7"),
    ),
    "family": (
        _cli("points-homma --q 256 --ell 2 --format json", "fe78862cdfa819abbfbe3f88de07eacc507a170979d58a66a45bdc701e1e045d", homma_json(256, 2)),
        _cli("points-homma --q 64 --ell 3", "2b076dd844090fb815ec243c768f12c2061f96ab123adce86838f91e9ad7beec"),
        _cli("points-homma --q 3 --ell 14 --format json", "d5195e1e24bc707e1f3e7f5637d55a78f7a5d14e1d12a5aa4dd2233336b14331", homma_json(3, 14)),
        _cli("points-homma --q 4 --ell 11", "3039b33edefa8267f9795291955eac597792ae70ab5b396a49edf7c148314c54"),
        _cli("points-homma --q 5 --ell 10 --format csv", "12c03550442a2faf173b19ed13b120ab3e3a3ca0290135f7075067c3ba4890f5"),
        _cli("points-homma --q 9 --ell 6 --format json", "e613f387bf658ae579faf195e5c99dcc193b6a669d3d777c4fb14eafb7d786fa", homma_json(9, 6)),
    ),
    "semigroup": (
        _cli("semigroup --q 2 --m 22 --format json", "8e92e8ac6c240112d434357e7d830f4245cd796bf997c79dfe94755a31e258dc", semigroup_json(2, 22)),
        _cli("semigroup --q 3 --m 14", "6ff37519dd1e1189f9941310cb3996cde4005f925cd2a210c3d56c53f2eac21b"),
        _cli("semigroup --q 5 --m 10 --format csv", "99b01483f9b28e2ba84f50c979c7923e0d8c36ea10cccf8f386196c6654a1507"),
        _cli("semigroup --q 4 --m 11 --format json", "d64c6b819a39bd927001f095c90544ecd4a22a41624acac029c0633de90be576", semigroup_json(4, 11)),
        _cli("gs --q 2 --m 20", "45f82c8da61d8bdfe3449d5fd5685d21bc9033de0ea63ca78b1f0fe37e7fcd88"),
    ),
    "verify": (
        _cli("verify all", "678f1600ec282489293efafa1c6d90dad932e74c828ecc531ff2d51a9278bbf5", all_checks_passed),
        _cli("bounds --table 100000 --format json", "e0d03264d3cc1d8b39b5ae789ba122494f1ffa68233d4840344ec2fd5dd27333"),
        _cli("bounds --table 4096 --format csv", "068b82d4c6a5e8ac18a768fdb824fcf6d6fe3710d6348f377eca72e4b3a7a835"),
        _cli("bounds --q 9", "06e2c0f4acde158f31da88b8dfe2953267bacce7b6fbea788647986d2024b7f2"),
    ),
}
