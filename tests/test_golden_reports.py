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
from cprank.fixtures import EXAMPLE_IDS, RANDOM_STYLES, example_matrix, random_dn

# EX3_9 is printed to four decimals and needs loosened tolerances
LOOSE_TOL = Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6, eps_residual=1e-4)


def cases():
    """``(id, matrix, config)``: the six fixtures, then per style and rank
    1-6 one ``random_dn`` instance at the default config and one, larger,
    with ``heuristic=True``."""
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
    return out


def digest(A, config) -> str:
    return hashlib.sha256(write_report(analyze(A, config), "json")).hexdigest()


DIGESTS = {
    "EX1_2": "6864c28829951f08a692279b8d4c8c8f50f6359df18c2a4850359692697a800c",
    "EX2_7": "7cad9e196e706ff01dacb404d9084977ee092b34e24a5739c7ceb7a3eb0ac927",
    "EX2_8": "2526af357de370b96c5ab29c3f88a856a0532599c919ece85b07145eedce1eac",
    "EX3_3": "9f104bde451d539951683612dcd9df9165e67991c3167427e5368c991bfb7d23",
    "EX3_7": "b200508435ce6c062a29096cc2ef8e385044cad0de393427f45a7d018b9175a0",
    "EX3_9": "e6a8dde313966ab49bc94d52ce7d5bd4dc9d6cf9f22d4f354f5bac2ec50474ef",
    "GRAM_NONNEG-n5-r1-s105": "7ce498684018a141f7591c9c9daeff90e5ae332aba38d0b1cf25c93975889d17",
    "GRAM_NONNEG-n7-r1-s107-heuristic": "b87de38ac998edeb77f3351c345b2fab8d2ea2c9e6212ebdd8a066aaaaf6c0f0",
    "GRAM_NONNEG-n6-r2-s206": "b06bb8a94a8ba3da51427cab27add9aa128e96fa09f9b407639435a735f80e10",
    "GRAM_NONNEG-n8-r2-s208-heuristic": "ffe6b8835dc0a679d60b95da060b63095c16a6d5935cd53bd3a80af8b33a1c38",
    "GRAM_NONNEG-n7-r3-s307": "4f9a192261b38bbe9cf08feee0900b327588aac185daf0186977c9cc4c085944",
    "GRAM_NONNEG-n9-r3-s309-heuristic": "afb00dce059e6a0e9003c7daa8641f4ca2a3183cfdf574c822f7910fc67d5d75",
    "GRAM_NONNEG-n8-r4-s408": "13fa38c38fafa22396268536590cd731963854a5c995f0bbb2b3b72f7601d435",
    "GRAM_NONNEG-n10-r4-s410-heuristic": "612b25d76952bffd317df8fc8e026a0fe5160a0ac36018d61cb630876dd15de9",
    "GRAM_NONNEG-n9-r5-s509": "7703447fb34c7922955b813206af7ac0b7dec0c64333da44f91905e9f004304b",
    "GRAM_NONNEG-n11-r5-s511-heuristic": "d4320c663349bf144da64381752066ec71836430378ae76936359dc4ed0fcdcb",
    "GRAM_NONNEG-n10-r6-s610": "85bd2ffaced666b4d4b33a6b83f5e85e4279abfad828f8abe6fac435e4bf1ca0",
    "GRAM_NONNEG-n12-r6-s612-heuristic": "c4e42d27fafbb151e58a2d8a7c22fb787fe5db3b095fb72f5a534396bf5d0da5",
    "ROTATED_NONNEG-n5-r1-s105": "612441da34de9b9769cb7ccb2c4eb514435cbe3144b3684b166448502d51d2cb",
    "ROTATED_NONNEG-n7-r1-s107-heuristic": "7f7b37a71db7eec8745fb5bf4aa0233051779a60669ece55e8979a8525df8d50",
    "ROTATED_NONNEG-n6-r2-s206": "b7e0f86fbb0da38b00f7b62fb82614b096c987e4b407a47f7c67885e4f6474f3",
    "ROTATED_NONNEG-n8-r2-s208-heuristic": "bccf62ae4ec382bcee8e4e3077da9515a9f57e1fa5bc5f81b7c4bffa543a95fe",
    "ROTATED_NONNEG-n7-r3-s307": "916214aa80a7385c3b890fe85f1b4c8df2f6e457efb3c4aa16d09975aa838cbc",
    "ROTATED_NONNEG-n9-r3-s309-heuristic": "13d7d411394737f1f2bccbac9fa357b22380d420b19addecdaa77e1fe47bb14c",
    "ROTATED_NONNEG-n8-r4-s408": "cd636a4af23e785f40296d4a2aafa4aeaa7f3fa4727571e24bae13541ce8e6a6",
    "ROTATED_NONNEG-n10-r4-s410-heuristic": "844c814c838e09cc2a6ef835b784929badfcf6bf5edf5cd3d97a4148050d88ec",
    "ROTATED_NONNEG-n9-r5-s509": "423470b4f7ee9246af24ae44db8c8977affda74af58a7c202ca8eeab686e9c97",
    "ROTATED_NONNEG-n11-r5-s511-heuristic": "58cd0424342a960b43e0204b4b4cc4ed6f1cf5c209d3ee80deecd825814cf90d",
    "ROTATED_NONNEG-n10-r6-s610": "4fedffd53524a8c2dfc40b8084bb4ff2405bf99ba441365324fdbd997b74d9f1",
    "ROTATED_NONNEG-n12-r6-s612-heuristic": "7d86cc4ec1fe8ef260ab5dab991b81c0891d662c927a32609f9aac333262f006",
    "SOULES-n5-r1-s105": "62f1b6b123719af1979856650576c85ddeffa6ea184cb639df65715b59b837ad",
    "SOULES-n7-r1-s107-heuristic": "288c7d75530b85840c7da7fbe755182dd78921acddbac7d6cdff8fa15e54f1bd",
    "SOULES-n6-r2-s206": "616403f3be5be6927e2aa3e03d2ff0c12c33827c3839249042f5c0f4c7bb1d0d",
    "SOULES-n8-r2-s208-heuristic": "6ab485043b0e9f5c25811a6bcbe673da0dc7435f9aa7f0934c4a61f414b1cd3e",
    "SOULES-n7-r3-s307": "e71840a7a2e9e1e25d57f339f252e3b7bed272ab6fe8f304596e932a64711830",
    "SOULES-n9-r3-s309-heuristic": "0050d4e100168623a4695e4b0ca8a8e6372ff89a53a997b5930e21e00366a0e8",
    "SOULES-n8-r4-s408": "e416621be13797d382d9c5e13ca357d0b34131495a071ed2e4c45c62b9682548",
    "SOULES-n10-r4-s410-heuristic": "da0d3f0009ca8d713d5009c435c0c58420a296056e2a7aecfa467eaffe4c59a4",
    "SOULES-n9-r5-s509": "338e15aaf8995db4f865c307a4efc8cd567fe9f735fe461c3ba677c75a18c7ec",
    "SOULES-n11-r5-s511-heuristic": "238e2fbc4a917c0e23027c973ba0138c3f0c3df914b12b9477c51d7198688388",
    "SOULES-n10-r6-s610": "6fc58b53e71deb89146c7007d6abaeb0e9cb83b6e3c8c67943dad9809382bdf0",
    "SOULES-n12-r6-s612-heuristic": "165ff16abe07e157d809b39c6352d65cfccfbec87b43928bfcd5334a29c2ce58",
}


@pytest.mark.parametrize("cid, A, config", cases(), ids=[c[0] for c in cases()])
def test_report_bytes_unchanged(cid, A, config):
    assert digest(A, config) == DIGESTS[cid]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(c[0] for c in cases())


if __name__ == "__main__":
    for cid, A, config in cases():
        print(f"    {cid!r}: {digest(A, config)!r},")
