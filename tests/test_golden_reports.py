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
    "EX1_2": "3b45288810b512ee0ee02cfbcce53cde89221c6fff5f8da3c3f9dba3f8caf3f3",
    "EX2_7": "fdbe59887c3caf09d17420b6b8c250a4c76a58c03fe316265e659ae4081df453",
    "EX2_8": "fca36d724c82bbbd2c61b72852901e143d1223170a83c01ea392d18acc03a41e",
    "EX3_3": "79adb7e484916791c9a6cad97612b77ca4108e4330be1687a8188c24a2109d34",
    "EX3_7": "c46eb5384bdfe012e8b4b11acabe68b78f88096cb991ade999e4488d0eaf1a0f",
    "EX3_9": "e74a87ef23015779858f2baae77052c91f2c2779136a68e65a1933288cacf5ed",
    "GRAM_NONNEG-n5-r1-s105": "bdeca0d2aafedd7a4c2ec345c6db30f2ca69b62671fc6e4fa71b260e95637ca1",
    "GRAM_NONNEG-n7-r1-s107-heuristic": "05313310f533b503c0fa640c742e7de757121f27a892007dd2f9094a7ce039db",
    "GRAM_NONNEG-n6-r2-s206": "db410e5deb9fa7f8c22c452d24bdd517ebce09b55f5994f8d2bf3f3f533908a8",
    "GRAM_NONNEG-n8-r2-s208-heuristic": "56b420f9fdec106f9ae5c09684ca53b1042b51572e25ced5cd0d16a8f6e85245",
    "GRAM_NONNEG-n7-r3-s307": "bf8a9d70427d2a0893bfc29185e79c1accfa7c225fd99c6b6025edc416a2dd16",
    "GRAM_NONNEG-n9-r3-s309-heuristic": "b5467024fc554671dabdeca860eefbb189c5831783a18da0d9eb7b5b55f5d0ae",
    "GRAM_NONNEG-n8-r4-s408": "83a7b2d56d77095b026aae24e9a4a33eb3c83093e18738270c7d794e91ef5f2e",
    "GRAM_NONNEG-n10-r4-s410-heuristic": "93f895a084e9d8d199988399766c8c0ea45a5320eaab83874cfcc6a3da305a9b",
    "GRAM_NONNEG-n9-r5-s509": "276666e5c0246f569d817ab16ef66c272053cad6396e7667bcc153a118db1224",
    "GRAM_NONNEG-n11-r5-s511-heuristic": "0736c9a02dee6fbfb06fd66000fcd576a2fc477fa6c2aa04025a0f2c760665bb",
    "GRAM_NONNEG-n10-r6-s610": "a8f68886a9c9b44fd6e80f40b9a00e713785cba66afc6f18fe03ec5bb465c1d4",
    "GRAM_NONNEG-n12-r6-s612-heuristic": "e89234e220dba936d6178549900ff509008b83dccf9b61c1d56361a6d68d02ed",
    "ROTATED_NONNEG-n5-r1-s105": "0efbb5cce5299ac5825e12fde2017a5cc46c92634fee6d660710ecc061af0ce1",
    "ROTATED_NONNEG-n7-r1-s107-heuristic": "123fe3f25fea49fd8ccd3aadb9b48b81488b0dd70c899aed0e356cafd63bd234",
    "ROTATED_NONNEG-n6-r2-s206": "2741d39f451d820917d03552bd7e20234fcbc4bb98ecb8b4f0248290049dfeb9",
    "ROTATED_NONNEG-n8-r2-s208-heuristic": "ad231f36ece27e9a3a31fac7357cef0d2e8e2f889c0f00881f3aa7bb986068ac",
    "ROTATED_NONNEG-n7-r3-s307": "ff17418bc8fcfd09bad03e4e386b2790df070b16314d96704d332793404724f5",
    "ROTATED_NONNEG-n9-r3-s309-heuristic": "cf5412cb436de87bc107a2945014415a1dbd4a28a32a8b9dacdb0cc7106bc470",
    "ROTATED_NONNEG-n8-r4-s408": "2d69f37dfea1c98620db1de3c28845b02a9710dcc5371a5b75cea736a87c1c94",
    "ROTATED_NONNEG-n10-r4-s410-heuristic": "f365c48c7bd4635be6432c1274ffb10dbbdf22b8f72075277f977f131fe5f953",
    "ROTATED_NONNEG-n9-r5-s509": "eaeb9220261d57b1c54f12649ce12b9af465583b424dff926eefc4ca3b305e68",
    "ROTATED_NONNEG-n11-r5-s511-heuristic": "707f687900221d26c8deab293252dc0ca2666d133a72c25d7dbecd8320635f74",
    "ROTATED_NONNEG-n10-r6-s610": "0cdc5d385f3c085e0611b9b06749407a02984c3773559da86f642e880a68ced3",
    "ROTATED_NONNEG-n12-r6-s612-heuristic": "3ba00c57822e2cce07b3bf902c88f9bf52fca02667f431c84e37be72dfe2b4e7",
    "SOULES-n5-r1-s105": "270197ad21e5a0a55a5b0961eec044e5a52d14e3ae78090ed3ada771f5cda9a2",
    "SOULES-n7-r1-s107-heuristic": "6dc64a0bc8b343c3057d853a8ff0fb2f6fd36c3be2017ec90daba75de0d720f8",
    "SOULES-n6-r2-s206": "a04a98584ced8c90f2223da84c5f9983c7f02c531bc6b19f64e884b61e297a20",
    "SOULES-n8-r2-s208-heuristic": "b80e32915f18f767c9676252819f15f4da76fd61f6175f92868cd9d8fb510b2a",
    "SOULES-n7-r3-s307": "d132ea9063ea8c83e9efa67df30183f90f75dd7fac688fef751936a0823fea4d",
    "SOULES-n9-r3-s309-heuristic": "903159711ac461142b0263beefefc10a0d980c8581b2c72021266aece7abde2e",
    "SOULES-n8-r4-s408": "731dc014cb985891eae0640b5dd430c7bfe2333e3ca08dd9aaf6727858f07f5c",
    "SOULES-n10-r4-s410-heuristic": "871ca254c11f3aff50d189eab762437026dae88753a835755348c1a9af0d027e",
    "SOULES-n9-r5-s509": "b8e7e84454b93130c2b4c24305e519c68c88f629cd115a2802f27102b69137d7",
    "SOULES-n11-r5-s511-heuristic": "5d4e12aa937078d67337e7da3ed992aa59689eae80fd62f87ecd12192cf84f56",
    "SOULES-n10-r6-s610": "88543cae63b7ecd1d5b0fe9fdcc059e7b538b71d92221acc20d68835d53853ae",
    "SOULES-n12-r6-s612-heuristic": "312fa30afa273689208a7eda231cf40835103f3350784d945c4abea69b76b765",
    "GRAM_NONNEG-n3-r3-s303": "278c3ccef91ba5d1f606b4fc72201cc164f16a539feaa951427155b3b42102c7",
    "GRAM_NONNEG-n4-r4-s404": "eb6eafa71ad1f2f3c159ac64efac753185080efce2a377dc777ec672a4b4209b",
    "ROTATED_NONNEG-n3-r3-s303": "2f4d72a35663407bdbad30257fcee2e5e305030b5d6c7c8689c6ce8fad2314ae",
    "ROTATED_NONNEG-n4-r4-s404": "01b0f92e02108cbf1daf1d0a4947fbc6eedca8bc7d562f11b1887fe321a21269",
    "GRAM_NONNEG-n8-r2-s208": "1a7debb51295514a020f32296877f5f07851d7af03c3b0ced936181da08f2bff",
}


@pytest.mark.parametrize("cid, A, config", cases(), ids=[c[0] for c in cases()])
def test_report_bytes_unchanged(cid, A, config):
    assert digest(A, config) == DIGESTS[cid]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(c[0] for c in cases())


if __name__ == "__main__":
    for cid, A, config in cases():
        print(f'    "{cid}": "{digest(A, config)}",')
