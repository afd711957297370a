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
    "EX1_2": "46e98a5306d330ae30930e35c89200809b664e7382f422d52c22c576757e21b0",
    "EX2_7": "8a721debfbaa8586661b1246c7593cc3ff3a4dfc5e794ba22e630845f79544ee",
    "EX2_8": "1844314e7390bad2b80ff20b9531cfffd9632714f9dd7612cfab606157399c4d",
    "EX3_3": "9f9c5fa9f6080fce1b678be34d6082dc6ad5d92919c80fde8ba287f34bc999c4",
    "EX3_7": "c62f5d95ca528480b5158ba3af01b49ecacde0e301915b429438c9e54e8a6406",
    "EX3_9": "2cb9507be919b263bbe68eb4ad0b2eef489cda42c167d8e4d272eb4978b89b47",
    "GRAM_NONNEG-n5-r1-s105": "11fa1232ab533a56eeb9efbea933e958d70b70a93e48ea51f765458ddd862505",
    "GRAM_NONNEG-n7-r1-s107-heuristic": "141439c3c4bfcf12041497c1c829f3d6a039b532ebc33325f366fffde0f6e5dc",
    "GRAM_NONNEG-n6-r2-s206": "ee3373d5205cc7f5963ce68a7803275ba0f5e0eada3b38d8270a8550b7510de2",
    "GRAM_NONNEG-n8-r2-s208-heuristic": "5fd70004772696d8516d2a34b7e03c0dfb271c2175337a2e5217f85c70768a00",
    "GRAM_NONNEG-n7-r3-s307": "e92cffbe672a205361a4ff687519cdab7bfbd7c17d519b7c3a38dfbaa12069fb",
    "GRAM_NONNEG-n9-r3-s309-heuristic": "6ef2d44f0c4fc7cd3075bfb34c8c627e43928d81274f71fe326272222288f512",
    "GRAM_NONNEG-n8-r4-s408": "ee1e9c8605c712536d8f734426e499ac6213b10dde825b83426c0444fd29c7a1",
    "GRAM_NONNEG-n10-r4-s410-heuristic": "5e83c802e9e28b267da1bb836a89a7884162ea2099c8d6bea3c54053b5493e49",
    "GRAM_NONNEG-n9-r5-s509": "abe14f09b7e41f08648fa9d029eadfc7c50875fffc12b3701bb54b3593595ca2",
    "GRAM_NONNEG-n11-r5-s511-heuristic": "4bba3f499e28b6851305866cf56c2c8a9e6d0afc95d2453623a911bffb8b7d7b",
    "GRAM_NONNEG-n10-r6-s610": "15e96db862394f2a06691054d50295cc6bb139ba321613a8b3f11db2aa185ae3",
    "GRAM_NONNEG-n12-r6-s612-heuristic": "8eb059a537599c842ec8ddb1caeef3cff2cab8e7bca95a0afde398b88b28e147",
    "ROTATED_NONNEG-n5-r1-s105": "724317bb8e6d7403443c0c101e39a412c0e4da6b1b0e9dd630908f72b31ce8e8",
    "ROTATED_NONNEG-n7-r1-s107-heuristic": "10294ff3e03bd23f24b17104f0df78d74b44b4022d308bff0318ab14a98ba0f3",
    "ROTATED_NONNEG-n6-r2-s206": "9b675cebc0dc3998c7b0cff3642a1066318739f3cc697ee3bb1383ba08523f77",
    "ROTATED_NONNEG-n8-r2-s208-heuristic": "2f75bbb9171a4a29bf3d0bfffb1b9ae52c1ccdfabdb446ce1295952cae13a717",
    "ROTATED_NONNEG-n7-r3-s307": "8d9e18775923833b02d19ea4c3b667d2a094d3a54e09260cf19a9bbf9884dc4f",
    "ROTATED_NONNEG-n9-r3-s309-heuristic": "16f8dc311e21cd8e1f2e262636fdebf5e5a3d6a78a3b68e43ae830b9887a3cec",
    "ROTATED_NONNEG-n8-r4-s408": "a908e29c845e38b1438a03f14249c1465d0d67bdf4fcbfcd064ebe5148d212f3",
    "ROTATED_NONNEG-n10-r4-s410-heuristic": "b9998d519ba56fb28abf59a5be013a86e7052d98fcd6bb874f040435f5c62fba",
    "ROTATED_NONNEG-n9-r5-s509": "be9a0c470e22ad6452f21be2969df88e043b92e84106100cf5abfd445538b893",
    "ROTATED_NONNEG-n11-r5-s511-heuristic": "e2f33462f1ec1838c247e45051731a7ce3ce1ccb7ce8de8935fcf35d28632ebf",
    "ROTATED_NONNEG-n10-r6-s610": "63acf18e8bb386fcba632a06c706246ea40b95b96c1e0274b7a82de9c30c74f3",
    "ROTATED_NONNEG-n12-r6-s612-heuristic": "b66e5952247632d480874a22fd190347ac1841e01c580a60b6105cdfec0dab7e",
    "SOULES-n5-r1-s105": "b9cb05e59b9f0c68d55fbf5c1ffa4c1ca6874d60d6004db58afa692ced0882ad",
    "SOULES-n7-r1-s107-heuristic": "61bc3496086c1a8c3fb0e2950e1ec0236291410543577743eace9039c760f507",
    "SOULES-n6-r2-s206": "a9c352ff98c3c92c20e01e5968e3b7a951ae55027be151c38ee8a9bbe3bcc19a",
    "SOULES-n8-r2-s208-heuristic": "ec3c4069c1a0f9435cbd2860a45206cf50dd1c4915167b3efbbd47d85ecc03df",
    "SOULES-n7-r3-s307": "8c4614012c9b7c4b20db6db8b75501db1541fe57d526afe34bdf832d6c182670",
    "SOULES-n9-r3-s309-heuristic": "a314ae8bd57deb427a5c366372ec6bbfc3c93f0f6e9900dce28bed65ecd83432",
    "SOULES-n8-r4-s408": "08ddd85eec892825b0f8405b540c5c6b626b51a0830f1359857784e4d3f86e58",
    "SOULES-n10-r4-s410-heuristic": "8d937e2b2dbc28139f632b42b332cc05c36cf8dad2c35fd6048ba87618ed53d9",
    "SOULES-n9-r5-s509": "c9e0215a85198f4e4e5d37961645324f1002ce7bacda63c237e53490870dcbe9",
    "SOULES-n11-r5-s511-heuristic": "3420f3a1a28b659c57304d32591ac1286b5a6e63cd903eb05f48b03b447921b0",
    "SOULES-n10-r6-s610": "e39f743a9e2667db9f169237281ac4c1d687dfd7fd69a3b145feb3cf0c703751",
    "SOULES-n12-r6-s612-heuristic": "675da74f946f8926767f61fe5d2fc2ae104b02245667fc06ad7322f8738a0e1f",
    "GRAM_NONNEG-n3-r3-s303": "2bd836c4ebd0070c83070f489e1dddb20fdf2bab4c6630156c30647b6ec8f6c4",
    "GRAM_NONNEG-n4-r4-s404": "24e9d740855bf248f2ed45148c455ad69ef25f0f4451f36f18be664c65bfdf5a",
    "ROTATED_NONNEG-n3-r3-s303": "e78b6b2a6cd46a0c4a900c4958a97914e056369ac9507e6c4e22bb6ab9d45e6b",
    "ROTATED_NONNEG-n4-r4-s404": "9f3c8ed17f679156ca1e46461479bef61d14b3fd4d71bce97356c02a46d49abb",
    "GRAM_NONNEG-n8-r2-s208": "d806d85f994d6bf954384f993eea0c8fa577ab750882997fd9c5f558c5ddb3f2",
}


@pytest.mark.parametrize("cid, A, config", cases(), ids=[c[0] for c in cases()])
def test_report_bytes_unchanged(cid, A, config):
    assert digest(A, config) == DIGESTS[cid]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(c[0] for c in cases())


if __name__ == "__main__":
    for cid, A, config in cases():
        print(f"    {cid!r}: {digest(A, config)!r},")
