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
    "EX2_8": "8156f9280dc8bdb4213f26c954ff927b77d8ef31042d5271c65c8d451d1156a8",
    "EX3_3": "ad73d9a66bd500768319519580fb3f5b05b521605949d56ca430a5b900138acb",
    "EX3_7": "c62f5d95ca528480b5158ba3af01b49ecacde0e301915b429438c9e54e8a6406",
    "EX3_9": "2cb9507be919b263bbe68eb4ad0b2eef489cda42c167d8e4d272eb4978b89b47",
    "GRAM_NONNEG-n5-r1-s105": "11fa1232ab533a56eeb9efbea933e958d70b70a93e48ea51f765458ddd862505",
    "GRAM_NONNEG-n7-r1-s107-heuristic": "141439c3c4bfcf12041497c1c829f3d6a039b532ebc33325f366fffde0f6e5dc",
    "GRAM_NONNEG-n6-r2-s206": "ee3373d5205cc7f5963ce68a7803275ba0f5e0eada3b38d8270a8550b7510de2",
    "GRAM_NONNEG-n8-r2-s208-heuristic": "5fd70004772696d8516d2a34b7e03c0dfb271c2175337a2e5217f85c70768a00",
    "GRAM_NONNEG-n7-r3-s307": "b58f3353f238550eea60d22900c54b68e0d8e8c3e11940cf0146d00ec2aa2b0e",
    "GRAM_NONNEG-n9-r3-s309-heuristic": "f65e826c6b06e18cfea1afbf66c08e80b1969f0ccfdcb2788909a3fed9d6a219",
    "GRAM_NONNEG-n8-r4-s408": "8546947e3b78c14263a4a99a993ed10ecda2e4da38bcb9de6d168e8ec1b361ef",
    "GRAM_NONNEG-n10-r4-s410-heuristic": "e0c4ea09719c3d2e2cdeafe091f49e37440857f145255b3609d725799d0b4fb9",
    "GRAM_NONNEG-n9-r5-s509": "b9ba00b0e4820d7e10dc217e23d3d842b2ed88beb220833a302ed99e5d770a32",
    "GRAM_NONNEG-n11-r5-s511-heuristic": "e5c95089e3bffb5d223307e47fad5f57aa59d01ccb57f96e3d4edb3ce08dad23",
    "GRAM_NONNEG-n10-r6-s610": "da5421b9067fcf93cb98497a1ac3f05547cec02c50a9f8a08126f2a605e4e8c3",
    "GRAM_NONNEG-n12-r6-s612-heuristic": "f1353dfef941242b086a39226439569b9dc8734a9dbb23bdddcb333ad5cb9479",
    "ROTATED_NONNEG-n5-r1-s105": "724317bb8e6d7403443c0c101e39a412c0e4da6b1b0e9dd630908f72b31ce8e8",
    "ROTATED_NONNEG-n7-r1-s107-heuristic": "10294ff3e03bd23f24b17104f0df78d74b44b4022d308bff0318ab14a98ba0f3",
    "ROTATED_NONNEG-n6-r2-s206": "9b675cebc0dc3998c7b0cff3642a1066318739f3cc697ee3bb1383ba08523f77",
    "ROTATED_NONNEG-n8-r2-s208-heuristic": "2f75bbb9171a4a29bf3d0bfffb1b9ae52c1ccdfabdb446ce1295952cae13a717",
    "ROTATED_NONNEG-n7-r3-s307": "8d9e18775923833b02d19ea4c3b667d2a094d3a54e09260cf19a9bbf9884dc4f",
    "ROTATED_NONNEG-n9-r3-s309-heuristic": "2ad857c8540e0a3ce87504f2466b6a4ea7221b1309cb3fad40f2526e283c73ab",
    "ROTATED_NONNEG-n8-r4-s408": "cbdd3aef81cb451307d85246b1bee1eed65bf090e9139a466779cfea1c55aebc",
    "ROTATED_NONNEG-n10-r4-s410-heuristic": "430eec07e05d416393eb5ec37a993ae1d5f8d6c8da2a1f3c3dfa73d3104f6624",
    "ROTATED_NONNEG-n9-r5-s509": "08bc8a4cb72b3ad363bb9b54985544602686bed3b284964ae051924fb23b4f6e",
    "ROTATED_NONNEG-n11-r5-s511-heuristic": "454762e19c0848e99257fc66927419e64526983f417b091d02ca9437bb151470",
    "ROTATED_NONNEG-n10-r6-s610": "d5bca46747e76a6e3a477fcc957ee76e9e17b057a41d91b214abd55178882819",
    "ROTATED_NONNEG-n12-r6-s612-heuristic": "d6eb6865ca76107809f4d95fd4b89d2cd747e971639cebdc3640963359a4531c",
    "SOULES-n5-r1-s105": "b9cb05e59b9f0c68d55fbf5c1ffa4c1ca6874d60d6004db58afa692ced0882ad",
    "SOULES-n7-r1-s107-heuristic": "61bc3496086c1a8c3fb0e2950e1ec0236291410543577743eace9039c760f507",
    "SOULES-n6-r2-s206": "a9c352ff98c3c92c20e01e5968e3b7a951ae55027be151c38ee8a9bbe3bcc19a",
    "SOULES-n8-r2-s208-heuristic": "ec3c4069c1a0f9435cbd2860a45206cf50dd1c4915167b3efbbd47d85ecc03df",
    "SOULES-n7-r3-s307": "8c4614012c9b7c4b20db6db8b75501db1541fe57d526afe34bdf832d6c182670",
    "SOULES-n9-r3-s309-heuristic": "a314ae8bd57deb427a5c366372ec6bbfc3c93f0f6e9900dce28bed65ecd83432",
    "SOULES-n8-r4-s408": "08ddd85eec892825b0f8405b540c5c6b626b51a0830f1359857784e4d3f86e58",
    "SOULES-n10-r4-s410-heuristic": "8d937e2b2dbc28139f632b42b332cc05c36cf8dad2c35fd6048ba87618ed53d9",
    "SOULES-n9-r5-s509": "2db071f765bb22361426f3f480ff2ebc2774bb3266978618065e23e52e0854d9",
    "SOULES-n11-r5-s511-heuristic": "28962d5dc2a6b065cbdc4a64121518aff86bfab5bb87a3397b41fcf2727b3428",
    "SOULES-n10-r6-s610": "e5874a9adb563565ce4947068e3bc1e58d36028df1679841244c69f6db9cfb13",
    "SOULES-n12-r6-s612-heuristic": "1c5853eda0da2e357bc5c4f4e3ca2c8c54f4638b581ca00f673f223d5cefaf05",
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
