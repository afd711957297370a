"""Byte-identity guard for the JSON report contract.

Each case is analysed and its ``write_report(..., "json")`` bytes are
hashed with SHA-256.  A change that is meant to leave reports alone (a
speed-up, a refactor) must keep every digest; a change that alters report
bytes on purpose regenerates the table below and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_reports.py

The digests pin the last bit of every float, so a different BLAS/LAPACK
build may legitimately disagree with them.
"""

from __future__ import annotations

import hashlib

import pytest

from cprank import DEFAULT_TOL, AnalysisConfig, Tolerances, analyze, write_report
from cprank.fixtures import (
    EXAMPLE_IDS,
    GRAM_NONNEG,
    RANDOM_STYLES,
    ROTATED_NONNEG,
    example_matrix,
    random_dn,
)

# EX3_9 is printed to four decimals and needs loosened tolerances
LOOSE_TOL = Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6, eps_residual=1e-4)


def cases():
    """``(id, matrix, config)``: the six fixtures, then per style and rank
    1-6 one ``random_dn`` instance at the default config and one, larger,
    with ``heuristic=True``; then, at the default config, full-rank
    ``GRAM_NONNEG`` and ``ROTATED_NONNEG`` instances of order 3 and 4
    (the representatives form a basis) and a rank-2 ``GRAM_NONNEG``
    instance of order 8 (its two separated rays form a basis)."""
    out = []
    for fid in EXAMPLE_IDS:
        tol = LOOSE_TOL if fid == "EX3_9" else DEFAULT_TOL
        out.append((fid, example_matrix(fid).a, AnalysisConfig(tol=tol)))
    for style in RANDOM_STYLES:
        for r in range(1, 7):
            for heuristic, n in ((False, r + 4), (True, min(12, r + 6))):
                seed = 100 * r + n
                A = random_dn(n, r, seed=seed, style=style).a
                cid = f"{style}-n{n}-r{r}-s{seed}" + ("-heuristic" if heuristic else "")
                out.append((cid, A, AnalysisConfig(heuristic=heuristic)))
    basis_cases = [(style, r, r) for style in (GRAM_NONNEG, ROTATED_NONNEG) for r in (3, 4)]
    for style, n, r in basis_cases + [(GRAM_NONNEG, 8, 2)]:
        seed = 100 * r + n
        A = random_dn(n, r, seed=seed, style=style).a
        out.append((f"{style}-n{n}-r{r}-s{seed}", A, AnalysisConfig()))
    return out


def digest(A, config) -> str:
    return hashlib.sha256(write_report(analyze(A, config), "json")).hexdigest()


DIGESTS = {
    "EX1_2": "d6c8a472cddedb643ea0322ee577b1704f69784c6416a8ee0ed7052fb80afe6d",
    "EX2_7": "f772158944f09c67ec122d32f3ee9b45d844956721d7543deb5a0f3c0e80a586",
    "EX2_8": "1844314e7390bad2b80ff20b9531cfffd9632714f9dd7612cfab606157399c4d",
    "EX3_3": "9f9c5fa9f6080fce1b678be34d6082dc6ad5d92919c80fde8ba287f34bc999c4",
    "EX3_7": "c1d15d202b5d9edaff9cf6daaa135fd34595411946474a2e6fe09bd0a1b6ceff",
    "EX3_9": "f2bf843fc11305a8933e22825ff02a5dcd82f255d43659260820729dd59d04b8",
    "GRAM_NONNEG-n5-r1-s105": "11fa1232ab533a56eeb9efbea933e958d70b70a93e48ea51f765458ddd862505",
    "GRAM_NONNEG-n7-r1-s107-heuristic": "141439c3c4bfcf12041497c1c829f3d6a039b532ebc33325f366fffde0f6e5dc",
    "GRAM_NONNEG-n6-r2-s206": "e80fee636c18cf6f79664ad5bc7109ac1e54aa1d541d12ea2188d01066fcf9fb",
    "GRAM_NONNEG-n8-r2-s208-heuristic": "59fb94aa7f334f7233c1285c7781ace10abc1edabcc0180ddf7b4131cfcdfa4f",
    "GRAM_NONNEG-n7-r3-s307": "e92cffbe672a205361a4ff687519cdab7bfbd7c17d519b7c3a38dfbaa12069fb",
    "GRAM_NONNEG-n9-r3-s309-heuristic": "d4f63357d0c6147f1261fd28735198dc0ccc39caee7d4bd22df628628e80ae15",
    "GRAM_NONNEG-n8-r4-s408": "ee1e9c8605c712536d8f734426e499ac6213b10dde825b83426c0444fd29c7a1",
    "GRAM_NONNEG-n10-r4-s410-heuristic": "5e83c802e9e28b267da1bb836a89a7884162ea2099c8d6bea3c54053b5493e49",
    "GRAM_NONNEG-n9-r5-s509": "abe14f09b7e41f08648fa9d029eadfc7c50875fffc12b3701bb54b3593595ca2",
    "GRAM_NONNEG-n11-r5-s511-heuristic": "4bba3f499e28b6851305866cf56c2c8a9e6d0afc95d2453623a911bffb8b7d7b",
    "GRAM_NONNEG-n10-r6-s610": "15e96db862394f2a06691054d50295cc6bb139ba321613a8b3f11db2aa185ae3",
    "GRAM_NONNEG-n12-r6-s612-heuristic": "8eb059a537599c842ec8ddb1caeef3cff2cab8e7bca95a0afde398b88b28e147",
    "ROTATED_NONNEG-n5-r1-s105": "724317bb8e6d7403443c0c101e39a412c0e4da6b1b0e9dd630908f72b31ce8e8",
    "ROTATED_NONNEG-n7-r1-s107-heuristic": "10294ff3e03bd23f24b17104f0df78d74b44b4022d308bff0318ab14a98ba0f3",
    "ROTATED_NONNEG-n6-r2-s206": "e6eae3369cc72b09cb12c464946744f778fe18f641cc1ebfd54015a78fb3882d",
    "ROTATED_NONNEG-n8-r2-s208-heuristic": "44068133e4bc6268d7a06f0fa31c8892a9d478f2c1eb9f32371af60a100c7a16",
    "ROTATED_NONNEG-n7-r3-s307": "59b1a9d27df79a379b5c53aff8bd0d37201e0fe0a287d2075374f8f031b636a7",
    "ROTATED_NONNEG-n9-r3-s309-heuristic": "16f8dc311e21cd8e1f2e262636fdebf5e5a3d6a78a3b68e43ae830b9887a3cec",
    "ROTATED_NONNEG-n8-r4-s408": "a908e29c845e38b1438a03f14249c1465d0d67bdf4fcbfcd064ebe5148d212f3",
    "ROTATED_NONNEG-n10-r4-s410-heuristic": "b9998d519ba56fb28abf59a5be013a86e7052d98fcd6bb874f040435f5c62fba",
    "ROTATED_NONNEG-n9-r5-s509": "be9a0c470e22ad6452f21be2969df88e043b92e84106100cf5abfd445538b893",
    "ROTATED_NONNEG-n11-r5-s511-heuristic": "e2f33462f1ec1838c247e45051731a7ce3ce1ccb7ce8de8935fcf35d28632ebf",
    "ROTATED_NONNEG-n10-r6-s610": "63acf18e8bb386fcba632a06c706246ea40b95b96c1e0274b7a82de9c30c74f3",
    "ROTATED_NONNEG-n12-r6-s612-heuristic": "b66e5952247632d480874a22fd190347ac1841e01c580a60b6105cdfec0dab7e",
    "SOULES-n5-r1-s105": "b9cb05e59b9f0c68d55fbf5c1ffa4c1ca6874d60d6004db58afa692ced0882ad",
    "SOULES-n7-r1-s107-heuristic": "61bc3496086c1a8c3fb0e2950e1ec0236291410543577743eace9039c760f507",
    "SOULES-n6-r2-s206": "9011df978b48a438ff53eff28e3f9591692dc34b5ac4114cdca9ec47ac95c1d2",
    "SOULES-n8-r2-s208-heuristic": "8bfe1a490cfefc1d2f2cbf2531b59fd5a0e10b4a4ba89bd8d19b4ca429641528",
    "SOULES-n7-r3-s307": "aa948b72a7fca7fe51cd929573442e8db05b826950e0503a147c5a3551d4a0e4",
    "SOULES-n9-r3-s309-heuristic": "a1a536b79861fc7a03bdbab3fcf2847f775895858615b87149896eaec24bfbf8",
    "SOULES-n8-r4-s408": "fe5a3d0c2c56ae4acf1ed247591f378da19e8e01f83d12fb78a38bb95ec8a303",
    "SOULES-n10-r4-s410-heuristic": "774e7b31decfc344dec1016478e6a64a0c302e58a54a280e96ba5a5bb712a015",
    "SOULES-n9-r5-s509": "c9e0215a85198f4e4e5d37961645324f1002ce7bacda63c237e53490870dcbe9",
    "SOULES-n11-r5-s511-heuristic": "3420f3a1a28b659c57304d32591ac1286b5a6e63cd903eb05f48b03b447921b0",
    "SOULES-n10-r6-s610": "e39f743a9e2667db9f169237281ac4c1d687dfd7fd69a3b145feb3cf0c703751",
    "SOULES-n12-r6-s612-heuristic": "675da74f946f8926767f61fe5d2fc2ae104b02245667fc06ad7322f8738a0e1f",
    "GRAM_NONNEG-n3-r3-s303": "cf48955ba888addc91ffcfbf94d8392f12209c9aafee76cfd4d0ce6ed8b28632",
    "GRAM_NONNEG-n4-r4-s404": "a438e26ecca4bfc98ba838ca15754148337721ecd1762797de663a7384443b34",
    "ROTATED_NONNEG-n3-r3-s303": "3a26bfb09a6b31f755e7b1f7da96ab3279e4f0def27cd944edaa737d23cc2038",
    "ROTATED_NONNEG-n4-r4-s404": "4695bd3f78459e2cd76721d0f5483a44235612780907dfc2c6bb5ace7d204d7a",
    "GRAM_NONNEG-n8-r2-s208": "c40b7635fe24243707667df58152ad0511cabaf828944d29957fb8af1fedb835",
}


@pytest.mark.parametrize("cid, A, config", cases(), ids=[c[0] for c in cases()])
def test_report_bytes_unchanged(cid, A, config):
    assert digest(A, config) == DIGESTS[cid]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(c[0] for c in cases())


if __name__ == "__main__":
    for cid, A, config in cases():
        print(f"    {cid!r}: {digest(A, config)!r},")
