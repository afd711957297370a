"""Byte-identity guard for the JSON report contract, at two levels.

Each case is analysed and its ``write_report(..., "json")`` bytes are
hashed with SHA-256 into ``DIGESTS``.  ``DECISIONS`` hashes the same
report with its ``steps`` emptied: order, rank, DN status, verdict,
bounds, seed and the certificate's rows, residual and entries, so a
change to the step records alone keeps it.  A change that is meant to
leave reports alone (a speed-up, a refactor) must keep every digest; a
change that alters report bytes on purpose regenerates the tables below
and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_reports.py

It prints both tables and, on standard error, which entries of each
differ from the tables here.  The digests pin the last bit of every
float, so a different BLAS/LAPACK build may legitimately disagree with
them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys

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


def digests(A, config) -> tuple[str, str]:
    """The SHA-256 of the case's JSON report, and of that report with its
    steps emptied."""
    report = analyze(A, config)
    return tuple(hashlib.sha256(write_report(r, "json")).hexdigest()
                 for r in (report, dataclasses.replace(report, steps=[])))


DIGESTS = {
    "EX1_2": "3b45288810b512ee0ee02cfbcce53cde89221c6fff5f8da3c3f9dba3f8caf3f3",
    "EX2_7": "3a0819365d27abc4bd10c273da1a2bbd1168dd5ce9866735ab9f4427809043bc",
    "EX2_8": "2c2cc1ba17a9c1bbfc101c130ce98d976e1615a8f091371845a0a45a78dccbae",
    "EX3_3": "79adb7e484916791c9a6cad97612b77ca4108e4330be1687a8188c24a2109d34",
    "EX3_7": "580317427e72c5d7ff095b25b491bee2d8cc659fe28c4310c071d7fb872d083f",
    "EX3_9": "dc2e46de710a55cd01f3cee72d4c56a4f9b0c43bbcf62330a3b32c8e19961144",
    "GRAM_NONNEG-n5-r1-s105": "e3e5c1abcec7ad152b6ec2111e4d6e127784c19ed4a65970115fb02669c8d84e",
    "GRAM_NONNEG-n7-r1-s107-heuristic": "e836a8d76625c29fb2378cb708b3fb2b636da15ec797e121ef4e8c95afe086b6",
    "GRAM_NONNEG-n6-r2-s206": "842c597d7dbc9130f00bd2729ac5194f87bbd4c8e3b43e448b2011d5f2112ba3",
    "GRAM_NONNEG-n8-r2-s208-heuristic": "7a79cfc84962a29b2cd09f3495c6723690ccd46491c3d701a5dcf27c1fab9c1a",
    "GRAM_NONNEG-n7-r3-s307": "bf8a9d70427d2a0893bfc29185e79c1accfa7c225fd99c6b6025edc416a2dd16",
    "GRAM_NONNEG-n9-r3-s309-heuristic": "b2cbfc1b43c09cca5a320e1068f36b6354e52c938d192ede5b0097df04aa7a71",
    "GRAM_NONNEG-n8-r4-s408": "83a7b2d56d77095b026aae24e9a4a33eb3c83093e18738270c7d794e91ef5f2e",
    "GRAM_NONNEG-n10-r4-s410-heuristic": "93f895a084e9d8d199988399766c8c0ea45a5320eaab83874cfcc6a3da305a9b",
    "GRAM_NONNEG-n9-r5-s509": "276666e5c0246f569d817ab16ef66c272053cad6396e7667bcc153a118db1224",
    "GRAM_NONNEG-n11-r5-s511-heuristic": "0736c9a02dee6fbfb06fd66000fcd576a2fc477fa6c2aa04025a0f2c760665bb",
    "GRAM_NONNEG-n10-r6-s610": "a8f68886a9c9b44fd6e80f40b9a00e713785cba66afc6f18fe03ec5bb465c1d4",
    "GRAM_NONNEG-n12-r6-s612-heuristic": "e89234e220dba936d6178549900ff509008b83dccf9b61c1d56361a6d68d02ed",
    "ROTATED_NONNEG-n5-r1-s105": "f1f08cfbf2490364c61ae69ce01e7da4d877bd2255520bfbf8a80f4efc936391",
    "ROTATED_NONNEG-n7-r1-s107-heuristic": "45ec9352ee1e5fede6e63c98e9e68854ce77d67685def3620062c4348b19dc48",
    "ROTATED_NONNEG-n6-r2-s206": "65a247248c108950b176fe95b5fd99742f3d4512f7ea22f47674a5f2df391483",
    "ROTATED_NONNEG-n8-r2-s208-heuristic": "a88207229f58fb916434a53ccdcfb4ee1d77e7847c70b97511e5a18526c4b59e",
    "ROTATED_NONNEG-n7-r3-s307": "e70a51990bb815a6222cd59324cf83e21b5e4fac46becc0f9eebadb4aa9bb06e",
    "ROTATED_NONNEG-n9-r3-s309-heuristic": "2657ae55ec5170690b1d6fe8835540b3eef425ed9357bba54e620a31d62abbf7",
    "ROTATED_NONNEG-n8-r4-s408": "4daaea7a9fc92cca59e55e4682956a6b4fc6fc99254d478edb5838b9441d04e6",
    "ROTATED_NONNEG-n10-r4-s410-heuristic": "5ba430f00cb63a44d4e2a4841cbce846f6a818130d5c24b7e0a235d9b821dbc5",
    "ROTATED_NONNEG-n9-r5-s509": "d18aabdb61c067542d3c276b531fe9551d2ac4d6cfd39e83832e3bb143f1091e",
    "ROTATED_NONNEG-n11-r5-s511-heuristic": "5a01da706170356052bfb3c5b73d98c9dc41058911edf36907607a6a92a8329a",
    "ROTATED_NONNEG-n10-r6-s610": "0cdc5d385f3c085e0611b9b06749407a02984c3773559da86f642e880a68ced3",
    "ROTATED_NONNEG-n12-r6-s612-heuristic": "3ba00c57822e2cce07b3bf902c88f9bf52fca02667f431c84e37be72dfe2b4e7",
    "SOULES-n5-r1-s105": "42120d26dd3b56e322ad1c33cd5000bd6e8c1f3b214fc910699621529b5cd090",
    "SOULES-n7-r1-s107-heuristic": "b8d75f4176e03b27471df8a429a4afb39b8279adc1e8b880d603fdd56be656f5",
    "SOULES-n6-r2-s206": "3f7a9d031209cc3e4135b227b2c486063b332a6ee4ac7b4dad4e7ff4ea06423d",
    "SOULES-n8-r2-s208-heuristic": "9d11552552c022e949e72865ab4636ab32cc43e1813214056c49049ccaf69c08",
    "SOULES-n7-r3-s307": "deeb04f1d773c816b458d6f945798e6cd249598d326c17df7d7d8d1898b24316",
    "SOULES-n9-r3-s309-heuristic": "0420cb6c58451d88a0aa15b9f8dd13e104882994fc28e5650398653f9caf355e",
    "SOULES-n8-r4-s408": "fe0f296abc81133686e8df96d556942f3a4f3f63c71dc188507357063eb5a150",
    "SOULES-n10-r4-s410-heuristic": "13beb85812243d9dfe4e653fc8bb5aa7ba35748957d2c6aac5eb5822c3b94c6a",
    "SOULES-n9-r5-s509": "b8e7e84454b93130c2b4c24305e519c68c88f629cd115a2802f27102b69137d7",
    "SOULES-n11-r5-s511-heuristic": "5d4e12aa937078d67337e7da3ed992aa59689eae80fd62f87ecd12192cf84f56",
    "SOULES-n10-r6-s610": "88543cae63b7ecd1d5b0fe9fdcc059e7b538b71d92221acc20d68835d53853ae",
    "SOULES-n12-r6-s612-heuristic": "312fa30afa273689208a7eda231cf40835103f3350784d945c4abea69b76b765",
    "GRAM_NONNEG-n3-r3-s303": "bc1054c637b8e9713b51aad0674618805599ee7c88e78140a82bf8b345bd3e35",
    "GRAM_NONNEG-n4-r4-s404": "902ddabd8fa2c68afead019c17d7283a0ea1ac57d3260916f50e69306341af6b",
    "ROTATED_NONNEG-n3-r3-s303": "3d553ec6252e96907aa5f77406adbb81aaabbde2b63094b2d94b814051dce1c6",
    "ROTATED_NONNEG-n4-r4-s404": "5572c3bb59b6a84053ced4be2f3b321186cdd49760297937e192fd28f0181651",
    "GRAM_NONNEG-n8-r2-s208": "2c3c2a14e2413401d464c6e2a5d5ce1cd4aca58034dba73bdb1612b9dddaeabf",
}

DECISIONS = {
    "EX1_2": "28e743f1c4e4c752472b1e8f8b8a12b48c547d8fc9154d6bc232c0e12d2db7fd",
    "EX2_7": "a9f75fde5ebec9330ff6f961ce1e07ac0b2f6149f1a5f0295cac899b27897715",
    "EX2_8": "73c66da3a800dc1dbd961aa0cf84c891cd4353bd2f54ebb299ee80592d38a789",
    "EX3_3": "b23f60ff5173303543a3adb3874dc93c797555e587677c1b31573c50227f7071",
    "EX3_7": "96a5e5f29c32d31ed4653b577f92f28e0bbad05d832e5276786e1865e2f5a943",
    "EX3_9": "5474181787aa161949ef6e161d28e67229fcf9aa16fa2e26f37de7aa30e16386",
    "GRAM_NONNEG-n5-r1-s105": "5f77fc7fa5930c46387945367b47c6a62205abc7d7fc91ffc49a595e0a98b609",
    "GRAM_NONNEG-n7-r1-s107-heuristic": "9b03b8757d810400c16d47dce72cb8a82e8b4fdd0a2b8ef843a081981525ed3b",
    "GRAM_NONNEG-n6-r2-s206": "aa15075342ca6a509cd870152c91d0fc613b03b0e398f4b374ccb5dacbc8e54c",
    "GRAM_NONNEG-n8-r2-s208-heuristic": "7c564970aa61e900ff3202ae49826c3755dab6fe0586087855b347125cf84952",
    "GRAM_NONNEG-n7-r3-s307": "4c0b6ebc3a76268c9cf26b6abf1c06b84ff82944ad58e78dc786b3d999ee50d1",
    "GRAM_NONNEG-n9-r3-s309-heuristic": "da8c18d0e46d8c4b95dd2e8786960f6b667b6c959d0186420dfdf4cd9b285753",
    "GRAM_NONNEG-n8-r4-s408": "64d089268cb2eec0988d9904cefb596a3e41b5ed712868a8c62e9e71ab6fa203",
    "GRAM_NONNEG-n10-r4-s410-heuristic": "bba027d91594fc63cf45d743964e219c5a214c139a17fe316f9494f5f1bf69a6",
    "GRAM_NONNEG-n9-r5-s509": "6aa1f373a3c5862d1d24a2c8a5e768964951ca243a6d522345d58a46713617e0",
    "GRAM_NONNEG-n11-r5-s511-heuristic": "539e1d3ad00dda278094e46dcbda75d108c95d926a2e000a72eb08259138fdf4",
    "GRAM_NONNEG-n10-r6-s610": "510d581afdcaeed457d7135cf6858925a00a9760098c2b26b6aef2e274b3944d",
    "GRAM_NONNEG-n12-r6-s612-heuristic": "2c88295f5b7da3e42d1c07d99bb9fa1e69b98b610b2f040d104e51368723fe67",
    "ROTATED_NONNEG-n5-r1-s105": "a2363b02e6fff1eb162460d0a994495c8344d9439280ad74335cb78318b4a28a",
    "ROTATED_NONNEG-n7-r1-s107-heuristic": "174b9047df887a7eb6254a449f6147317bd1e7e9d50d5bccfd15ba7156f363af",
    "ROTATED_NONNEG-n6-r2-s206": "5b2483f8c374c936056f10237ebb9c395707d1d2a21b6f8f651d2a93979ab444",
    "ROTATED_NONNEG-n8-r2-s208-heuristic": "1b389f80f9dc4a64ec869b7ff661ec8ffde5a856015297e45954b2c6405963ac",
    "ROTATED_NONNEG-n7-r3-s307": "d0e5d4d32b513029d5da78d24b8047d24745e9fe535b0d7617cdea484b6550b7",
    "ROTATED_NONNEG-n9-r3-s309-heuristic": "d484a47c2895b5548fd5643b649d4261518baf63b4a947f39866042f291bbd24",
    "ROTATED_NONNEG-n8-r4-s408": "1cc241143a746beb3dd984f8918317e9402df91ef5e9703dedd752bbcb7919a9",
    "ROTATED_NONNEG-n10-r4-s410-heuristic": "146540513855d5e1ed6c8fe1b75cc18153476e55d2c39bb66bce92903950c924",
    "ROTATED_NONNEG-n9-r5-s509": "82e2465895f5282cfaf5a6cacca1eae02043a85b9e53a1e6f8c86e3aac0d5d99",
    "ROTATED_NONNEG-n11-r5-s511-heuristic": "2446454487f0879c885c01a4cedc71b0e6e2abc70e45b38e1d92bc1d84a8aa19",
    "ROTATED_NONNEG-n10-r6-s610": "510d581afdcaeed457d7135cf6858925a00a9760098c2b26b6aef2e274b3944d",
    "ROTATED_NONNEG-n12-r6-s612-heuristic": "417b46cd99bbc39adf304c8dc856de1c85da725f9923ac7ec0ed854599bdb5f7",
    "SOULES-n5-r1-s105": "c280db8c24d481a675ad3b19b8bb7106ab93cf15498b28a5fc1f9bee623c519a",
    "SOULES-n7-r1-s107-heuristic": "a5e55914012334fce6df7cea8f298606f29317c14031341468ed144598fef3f6",
    "SOULES-n6-r2-s206": "ebcccc9346716600530677b12859deeee79472c8c4c400bc2de5104de2ed71ca",
    "SOULES-n8-r2-s208-heuristic": "860bfb1fc9d682d627c752a90b898534c451b8b73ef912943089ce5ef104b24d",
    "SOULES-n7-r3-s307": "1e8a60287b234578300f45456a0a5015900c344cde02a3ff8ca53205109ad600",
    "SOULES-n9-r3-s309-heuristic": "29c59edcca6596f580aedc2f8ad319456ffd5de8b25dee1a38c2c63830b34cb0",
    "SOULES-n8-r4-s408": "1cea5f92d557667022b4672317c8d326bb6863c03d5aeaa6884143f54326b721",
    "SOULES-n10-r4-s410-heuristic": "e345cb817728e6fd3b931373e31fc9585dcea64b9a3ccd44aef69b08fae5c773",
    "SOULES-n9-r5-s509": "6aa1f373a3c5862d1d24a2c8a5e768964951ca243a6d522345d58a46713617e0",
    "SOULES-n11-r5-s511-heuristic": "197f4eee580ca38854a737dd4d2b1bbbfeb12e79b61afbc2e417326e4d6d819e",
    "SOULES-n10-r6-s610": "510d581afdcaeed457d7135cf6858925a00a9760098c2b26b6aef2e274b3944d",
    "SOULES-n12-r6-s612-heuristic": "556577394a78abd59386be39d9bf278aa6de7cfcdce74b8a33669c37494b7a15",
    "GRAM_NONNEG-n3-r3-s303": "8017c6234a602d7a81007cda33ea927607281a93dd1f08ed68e603a494c815be",
    "GRAM_NONNEG-n4-r4-s404": "d303f7196df046ae4f7737e44e81cb61eefbea8e70296fd70401fcaecc7f8748",
    "ROTATED_NONNEG-n3-r3-s303": "d81f00d9f259604a3b63b1cfdae173635030cbc669e63c9711b4c58a8058c36b",
    "ROTATED_NONNEG-n4-r4-s404": "e4651d8bd8c10560a86ed0cb57a1735cbae5c546ea0c2c9a1803267da9efe11c",
    "GRAM_NONNEG-n8-r2-s208": "7c564970aa61e900ff3202ae49826c3755dab6fe0586087855b347125cf84952",
}


@pytest.mark.parametrize("cid, A, config", cases(), ids=[c[0] for c in cases()])
def test_report_bytes_unchanged(cid, A, config):
    full, decision = digests(A, config)
    assert decision == DECISIONS[cid]
    assert full == DIGESTS[cid]


def test_every_case_has_a_digest():
    ids = sorted(c[0] for c in cases())
    assert sorted(DIGESTS) == sorted(DECISIONS) == ids


if __name__ == "__main__":
    computed = {cid: digests(A, config) for cid, A, config in cases()}
    for k, (name, table) in enumerate((("DIGESTS", DIGESTS), ("DECISIONS", DECISIONS))):
        print(f"{name} = {{")
        for cid, pair in computed.items():
            print(f'    "{cid}": "{pair[k]}",')
        print("}")
        changed = [cid for cid, pair in computed.items() if table.get(cid) != pair[k]]
        print(f"{name}: {len(changed)} of {len(computed)} entries changed", *changed,
              sep="\n    ", file=sys.stderr)
