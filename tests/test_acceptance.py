"""Acceptance criteria, one test per suite.

Each suite re-derives a family of closed-form answers by brute force
and fails on the first mismatch; a PASS/FAIL line per criterion is
printed (visible with ``pytest -s`` or on failure).  The same suites
back the ``coxtools verify`` command.
"""

import pytest

from coxtools.suites import ALL_SUITES

CRITERIA = [
    ("orders", "1: enumeration matches closed-form orders"),
    ("deodhar", "2: reflection decompositions of longest elements"),
    ("core-oracle", "3: cores of normalizers vs brute force"),
    ("centralizer-oracle", "4: centralizers of involutive closures vs brute force"),
    ("center-factor", "5: center-as-direct-factor vs complement search"),
    ("lemma-battery", "6: normalizer/core lemma battery"),
    ("isomorphism", "7: isomorphism decider soundness"),
    ("aut", "8: automorphism accounting"),
    ("hommonoid", "9: central-hom monoid laws"),
    ("richardson", "10: Richardson forms of involutions"),
]


# (checks, detail) of every suite at seed 0: a change to a suite's
# workload or to what it counts shows here.
PINNED = {
    "orders": (27, "27 catalog orders match enumeration"),
    "deodhar": (289, "decompositions verified on 27 types"),
    "core-oracle": (1252, "1252 (type, subset) pairs agree with brute force over 583 types"),
    "centralizer-oracle": (274, "274 normal closures across 12 groups"),
    "center-factor": (60, "10 types match the complement search, H3+ checks pass"),
    "lemma-battery": (11829, "lemma battery passed on 205 irreducible types plus towers"),
    "isomorphism": (19048, "8091 decider pairs agree (951 brute-forced), 10^4 random multisets"),
    "aut": (67, "symmetric-product formula and budget identities match brute force"),
    "hommonoid": (243241, "laws verified on 20 product groups of order <= 24"),
    "richardson": (61344, "20448 involutions across 208 groups have verified forms"),
}


@pytest.mark.parametrize("suite,label", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(suite, label):
    result = ALL_SUITES[suite](seed=0)
    print(f"criterion {label}: {result.line()}")
    assert result.passed, f"criterion {label}: {result.detail}"
    assert (result.checks, result.detail) == PINNED[suite]
