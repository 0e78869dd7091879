"""Golden outputs: sha256 of stdout for fixed CLI runs.

The digests were taken from the CLI before the change each one guards: the
seed commit's for field arithmetic and counting, the pair-sum sieve's for
the semigroup generators, the value propagation's for the family
counts, the tower chain walk's for the runs at the field cap, and the
semigroup bitmap's for the closed forms and the generators written in
blocks, the whole-table renderer's for the bound tables written row by
row, and the sampled field axioms' for the `verify gf` detail ("604
fields", which only the json and csv formats print) that the
multiplication certificate keeps. The json digests of `verify homma`,
`gs`, `semigroup` and `bounds` come from the last commit with the field
cache (70227ea), before fields became plain values; they pin the
details that the text format hides ("30 cells", "48 cells", the n0
list). The four semigroup runs at the edges of the thousand-number windows
(the first generator is exactly 1000 at q = 10, m = 4; q = 1000, m = 2; q = 31,
m = 3; q = 7, m = 7) come from the last commit that made an int per
generator (50d5de4), before the generators were written from their mark
bytes. A change that is meant to keep every output byte-identical proves it
here.
"""

import hashlib

import pytest

from rpl import cli

GOLDEN = {
    "gs --q 16 --m 3 --format json": "058bf98d25097ce8fb367b03eea205fe51465d2095a96564c5e81e3b95919936",
    "gs --q 9 --m 3": "6e1f19ec27f0bd505dc65a1be50dbfbd934106615e11ea6c65a65a83e673ec85",
    "gs --q 8 --m 4 --format csv": "4d609d8b532ba77cbfe427a5863c8785d4b9f12b0b1fcb50ed6899a7c647dfca",
    "gs --q 5 --m 4": "653f753f4e57699f28cecd8ba7da6fe7556edf8e68cfdbc7336dfe0db467930c",
    "gs --q 4 --m 6 --format json": "012b0d9c824e15f17d5e0d47bf09561fccc17e042091933ab361122bd7cfea33",
    "gs --q 3 --m 8 --format csv": "84f3c3e3034520f0e74c4dfc9d1fc104c8c1c09e3acbde0eedf3ebb48105d1b7",
    "points-homma --q 256 --ell 2 --format json": "fe78862cdfa819abbfbe3f88de07eacc507a170979d58a66a45bdc701e1e045d",
    "points-homma --q 64 --ell 3": "2b076dd844090fb815ec243c768f12c2061f96ab123adce86838f91e9ad7beec",
    "points-homma --q 9 --ell 6 --format json": "e613f387bf658ae579faf195e5c99dcc193b6a669d3d777c4fb14eafb7d786fa",
    "bounds --q 9": "06e2c0f4acde158f31da88b8dfe2953267bacce7b6fbea788647986d2024b7f2",
    "semigroup --q 4 --m 11 --format json": "d64c6b819a39bd927001f095c90544ecd4a22a41624acac029c0633de90be576",
    "gs --q 2 --m 20": "45f82c8da61d8bdfe3449d5fd5685d21bc9033de0ea63ca78b1f0fe37e7fcd88",
    "semigroup --q 3 --m 2": "a9c09a4c41bd869c697416d53bc936a1c600eca16b99c605f51be6efae720456",
    "semigroup --q 2 --m 12 --format csv": "2d4eb373a34c154b80aca4a99222e8f0cd25d6b6a5e8d8dfc4aae70144525434",
    "gs --q 2 --m 12 --format json": "e89a020b4f7794271e15357fd62a10af569aec591ecece7547fa13423c333fc2",
    "points-homma --q 3 --ell 14 --format json": "d5195e1e24bc707e1f3e7f5637d55a78f7a5d14e1d12a5aa4dd2233336b14331",
    "points-homma --q 4 --ell 11": "3039b33edefa8267f9795291955eac597792ae70ab5b396a49edf7c148314c54",
    "points-homma --q 5 --ell 10 --format csv": "12c03550442a2faf173b19ed13b120ab3e3a3ca0290135f7075067c3ba4890f5",
    "points-homma --q 3 --ell 15": "37eb45401f15a74359f690fc1ed4b9419cdcf728bc34caf8e725a8bdf178b21b",
    "verify homma": "58126ac2df9d9ea7616a3e8299f344988132dc6a1352f9c2987975cb88fc9bcf",
    "gs --q 32 --m 2 --format json": "1ac6658407af3cd0cb86d3b9185cf36b3cb202f70f4ba5673122d98a53a780e0",
    "gs --q 1024 --m 1": "9e10026c85ce6e3894e9139bff725e60a0fec2586fa35ae9075a2e5b74d45100",
    "points-homma --q 1048576 --ell 2": "5ff5cf4316b75cad7e7c10c183109cb1c650a1536a8eca8e6a71f06ce4868c28",
    "semigroup --q 3 --m 14": "6ff37519dd1e1189f9941310cb3996cde4005f925cd2a210c3d56c53f2eac21b",
    "semigroup --q 5 --m 10 --format csv": "99b01483f9b28e2ba84f50c979c7923e0d8c36ea10cccf8f386196c6654a1507",
    "semigroup --q 6 --m 3": "e95ed94a8e8a1c7801c1faffbb73d143b8318832a381192e80b968843dd90fa7",
    "semigroup --q 2 --m 1 --format json": "ee5216eccd8012677a9e835f5b54dc751ece59127464739eb063c5cad915a747",
    "gs --q 3 --m 1 --format csv": "a8bfd7dbe7ff15a28bb66e574cdd1cbb8ea300c22083c32c1a340ce5d65b6066",
    "bounds --table 100000 --format json": "e0d03264d3cc1d8b39b5ae789ba122494f1ffa68233d4840344ec2fd5dd27333",
    "bounds --table 4096 --format csv": "068b82d4c6a5e8ac18a768fdb824fcf6d6fe3710d6348f377eca72e4b3a7a835",
    "bounds --table 100000": "e41b7aec8d323256d06bce8497e12df74fc8892ae97068a581a89d6334a83928",
    "bounds --q 9 --format json": "d973369fba72ca93e155e4b6f5036da11fe48d0db1ee8c2f5d53c462078f393a",
    "bounds --q 2 --format csv": "d72ab642d8e34d76517d1f2d428ea9eccca22984f5220e0bd4711bde980fb55c",
    "verify gf --format json": "f5bd0e0d1419bfa897756a9e39b05beb0601868b7b2d6015ad4060fcecfbd020",
    "verify homma --format json": "40ae360db3d4cf22ea15e5deb85599036a64e7afb80a1a8c13888954d43fa3b5",
    "verify gs --format json": "af9092c91397d6ea8f111e5161c5f0db0a6f60591e64e18c35ca44480de9d133",
    "verify semigroup --format json": "403829b69c7e79b14cd85926a628dd992e8ae01aac5c9d264a7ce36540280da7",
    "verify bounds --format json": "20528296bdfeabd23de352ce5031d319a09d7dfadfa9e8c86631a86654881857",
    "semigroup --q 10 --m 4": "3563433ef6105d0e36df40fc2010bc3d9e8500b3f85a46e9d7d535e166663deb",
    "semigroup --q 1000 --m 2 --format json": "669cd3ee192af15e0b0127d24bbc8791f34c2cad5f5f896c5663e474e5665b19",
    "semigroup --q 31 --m 3 --format csv": "abfafb80312f3cb67a93a8c44309a8fa52f3ac3245d87b3a42eceb2672f80273",
    "semigroup --q 7 --m 7": "ea7703ed2d8e61d25fd4255fd39ca7d668e6a034ef1f91bf64a143afc2e84c02",
}


@pytest.mark.parametrize("line", GOLDEN)
def test_stdout_matches_golden_digest(capsys, line):
    assert cli.main(line.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[line]
