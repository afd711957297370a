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
    "EX1_2": "be7c084fdc1f20e08471117791ef937a3506c14522b5f4160eac2a3c9c26e433",
    "EX2_7": "558c2cab1cc24a3a6e02669afef56f8d2c2c0b8819cac46af9e665fcabe4705a",
    "EX2_8": "8156f9280dc8bdb4213f26c954ff927b77d8ef31042d5271c65c8d451d1156a8",
    "EX3_3": "ad73d9a66bd500768319519580fb3f5b05b521605949d56ca430a5b900138acb",
    "EX3_7": "943d47675cfc3df98355bfc94b645b774efad9e591f74bd12d08e8157a2c52cb",
    "EX3_9": "b2155f9dcac20b621c50437ff97e2fd4c13162a767ed35b1f2ca64a13e47bd13",
    "GRAM_NONNEG-n5-r1-s105": "41ee39d8d4db3a7607f26954fd6cd1cf5878c84f5d1de916e4638c4664fbc902",
    "GRAM_NONNEG-n7-r1-s107-heuristic": "6593d2c6dad2c03fef3d37930d98fe273cf1c80252d67e6f74e4796accaaec74",
    "GRAM_NONNEG-n6-r2-s206": "59cb2a23d79545e6aa2ad0cf5e5d3e223a8cbd96f090e266f066921673fa7335",
    "GRAM_NONNEG-n8-r2-s208-heuristic": "a223abea6970b5488cdeeec2a3803e9e5d68cffc1722876303e50933137b68d2",
    "GRAM_NONNEG-n7-r3-s307": "b58f3353f238550eea60d22900c54b68e0d8e8c3e11940cf0146d00ec2aa2b0e",
    "GRAM_NONNEG-n9-r3-s309-heuristic": "7080c983caefda24382e6edffc8e30241524c5291164ebe3245e2b055d7a21ed",
    "GRAM_NONNEG-n8-r4-s408": "8546947e3b78c14263a4a99a993ed10ecda2e4da38bcb9de6d168e8ec1b361ef",
    "GRAM_NONNEG-n10-r4-s410-heuristic": "e0c4ea09719c3d2e2cdeafe091f49e37440857f145255b3609d725799d0b4fb9",
    "GRAM_NONNEG-n9-r5-s509": "b9ba00b0e4820d7e10dc217e23d3d842b2ed88beb220833a302ed99e5d770a32",
    "GRAM_NONNEG-n11-r5-s511-heuristic": "8cf08a352d50967f3e545114e94e07a13446f0147285e5cc55eae79a2be4914d",
    "GRAM_NONNEG-n10-r6-s610": "da5421b9067fcf93cb98497a1ac3f05547cec02c50a9f8a08126f2a605e4e8c3",
    "GRAM_NONNEG-n12-r6-s612-heuristic": "f1353dfef941242b086a39226439569b9dc8734a9dbb23bdddcb333ad5cb9479",
    "ROTATED_NONNEG-n5-r1-s105": "52b2d03544624a07a908b3442c8e81277f150055c95ed28698cd9b90d848274d",
    "ROTATED_NONNEG-n7-r1-s107-heuristic": "e910285aec0d5715ad5243ca0ed29db571144d1ad9cf02e49eb95aa348f1940d",
    "ROTATED_NONNEG-n6-r2-s206": "79fbc2aa2e89e7666dfcf3523293a84af68c1c321b98d989f3a6eb520ebd274e",
    "ROTATED_NONNEG-n8-r2-s208-heuristic": "e80884d8065e038d26f19e88179b2a478403435268a83772eb3bbf9cdb9b49d9",
    "ROTATED_NONNEG-n7-r3-s307": "0776786768dd9268bbc6b1a2f7944fce1ae8a3161235a295ebb1a6badc325d49",
    "ROTATED_NONNEG-n9-r3-s309-heuristic": "2ad857c8540e0a3ce87504f2466b6a4ea7221b1309cb3fad40f2526e283c73ab",
    "ROTATED_NONNEG-n8-r4-s408": "cbdd3aef81cb451307d85246b1bee1eed65bf090e9139a466779cfea1c55aebc",
    "ROTATED_NONNEG-n10-r4-s410-heuristic": "430eec07e05d416393eb5ec37a993ae1d5f8d6c8da2a1f3c3dfa73d3104f6624",
    "ROTATED_NONNEG-n9-r5-s509": "08bc8a4cb72b3ad363bb9b54985544602686bed3b284964ae051924fb23b4f6e",
    "ROTATED_NONNEG-n11-r5-s511-heuristic": "454762e19c0848e99257fc66927419e64526983f417b091d02ca9437bb151470",
    "ROTATED_NONNEG-n10-r6-s610": "d5bca46747e76a6e3a477fcc957ee76e9e17b057a41d91b214abd55178882819",
    "ROTATED_NONNEG-n12-r6-s612-heuristic": "d6eb6865ca76107809f4d95fd4b89d2cd747e971639cebdc3640963359a4531c",
    "SOULES-n5-r1-s105": "826ea7faf60aeab07435c842575aaff0c5f1bc66d6dd4cfce3beffc2ec65cdb3",
    "SOULES-n7-r1-s107-heuristic": "e6a6dbe58a6769bd54bba0a8785b93e2077ca1f52bea7e83f507402685c0e24c",
    "SOULES-n6-r2-s206": "a02adc7016c4a6131c0e280d6284763d4bd815808acbb956646337154a51a510",
    "SOULES-n8-r2-s208-heuristic": "cf07e341da20411f7db6ff771bf2caf942dbaea035c7657b673b341305b10d85",
    "SOULES-n7-r3-s307": "d21aa845bc8c23fe51358d333f3ca7d4207c623b155a9a0ce3b680ab79ea8130",
    "SOULES-n9-r3-s309-heuristic": "0101001bcbdacca1cb3d5660ea4d2cbd59c80388baf4338a7e242891bb0387b1",
    "SOULES-n8-r4-s408": "43607bb0b390b90a7c4dc3780bc3ff8e42e0e01c5171d779a66e55e2d6fb1a85",
    "SOULES-n10-r4-s410-heuristic": "88506f1c019ca4c83e86361745c70a04931e1102cb812cce50a48b75f88c7bf8",
    "SOULES-n9-r5-s509": "2db071f765bb22361426f3f480ff2ebc2774bb3266978618065e23e52e0854d9",
    "SOULES-n11-r5-s511-heuristic": "e68715f2bb2d84c5825a354bf111a4768b745d12033b5d81a150206c2b479af4",
    "SOULES-n10-r6-s610": "e5874a9adb563565ce4947068e3bc1e58d36028df1679841244c69f6db9cfb13",
    "SOULES-n12-r6-s612-heuristic": "b49f149c1c1b6318acc4166a267c7ca83ceb1130342fd1c66b219ed892cf9512",
    "GRAM_NONNEG-n3-r3-s303": "6a2332ab9fcb67729ea6437e4e9d11386b91c201313efe1c7147923221e0da80",
    "GRAM_NONNEG-n4-r4-s404": "2c7aea730d574934ed33b22b77985079faad529a9d431481e1e7e048ac5b2585",
    "ROTATED_NONNEG-n3-r3-s303": "422f2ff47e882957ea1a9569cbfadbb448468650c4fcc468c0e3d5a65cef707b",
    "ROTATED_NONNEG-n4-r4-s404": "5f065f036e0348043edb3719c6ca2be2f216675d32d3d7173456b9db1996daac",
    "GRAM_NONNEG-n8-r2-s208": "c81ed686b020d887376916671452ad8927149a0d0e80fa72cc73ef449f713766",
}


@pytest.mark.parametrize("cid, A, config", cases(), ids=[c[0] for c in cases()])
def test_report_bytes_unchanged(cid, A, config):
    assert digest(A, config) == DIGESTS[cid]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(c[0] for c in cases())


if __name__ == "__main__":
    for cid, A, config in cases():
        print(f"    {cid!r}: {digest(A, config)!r},")
