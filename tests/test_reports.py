"""Pinned CLI reports: one sha256 digest per command and family.

Each digest covers every listed arity, the report as text and as `--json`,
the exit code and stderr, with the wall-time field masked, so a change to
any verdict, dimension, witness or refusal names the command it touched.
The symmetric families are pinned through arity 8, where end, pf and the
pw characterization were refused while the cap counted n^n candidates.
"""
import contextlib
import hashlib
import io
import re

import pytest

from opwords.cli import main

FAMILIES = ("comp", "da", "dias", "end", "fcat0", "fcat1", "fcat2", "fcat3",
            "motz", "per", "pf", "prt", "pw", "schr", "scomp")
SYMMETRIC = ("end", "pf", "per", "pw")
PRESETS = ("comp", "dias", "fcat1", "motz", "prt", "schr")
FULL = tuple(range(1, 9))
SAMPLED = (1, 2, 5, 7)

# the text tail "pass (0.12s)" and the JSON field "seconds": 0.123
SECONDS = re.compile(r"\(\d+\.\d+s\)$|\"seconds\": [0-9.]+", re.M)


def _groups() -> dict[str, list[list[str]]]:
    groups = {}
    for name in FAMILIES:
        dims = FULL if name in SYMMETRIC else SAMPLED
        groups[f"dims-{name}"] = [
            ["dims", "--operad", name, "--max-arity", str(n)] for n in dims
        ]
        charac = FULL if name == "pw" else SAMPLED
        groups[f"characterization-{name}"] = [
            ["check", "characterization", "--operad", name, "--max-arity", str(n)]
            for n in charac
        ]
        groups[f"bijections-{name}"] = [
            ["check", "bijections", "--operad", name, "--max-arity", "4"]
        ]
    groups["gen-pw"] = [["gen", "--operad", "pw", "--max-arity", str(n)] for n in FULL]
    groups["functor"] = [["check", "functor", "--max-arity", str(n)] for n in (1, 3, 5)]
    for monoid in ("N2", "N3", "B01"):
        groups[f"axioms-{monoid}"] = [
            ["check", "axioms", "--monoid", monoid, "--max-arity", str(n)] for n in (1, 2, 3)
        ]
    groups["axioms-N"] = [
        ["check", "axioms", "--monoid", "N", "--max-arity", str(n), *cap]
        for n in (1, 2, 3)
        for cap in ([], ["--letter-cap", "0"], ["--letter-cap", "1"], ["--letter-cap", "2"])
    ]
    for name in PRESETS:
        groups[f"relations-{name}"] = [["check", "relations", "--operad", name]]
        groups[f"presentation-{name}"] = [
            ["check", "presentation", "--operad", name, "--max-arity", "5"]
        ]
        groups[f"presentation-deep-{name}"] = [
            ["check", "presentation", "--operad", name, "--max-arity", str(n)]
            for n in ((7, 8) if name == "schr" else (7,))
        ]
    return groups


GROUPS = _groups()


def report_digest(runs: list[list[str]]) -> str:
    """sha256 over each run's command line, exit code, masked stdout and
    stderr, once as text and once as JSON."""
    digest = hashlib.sha256()
    for argv in runs:
        for as_json in (False, True):
            full = argv + ["--json"] if as_json else argv
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(full)
            shown = SECONDS.sub("?", out.getvalue())
            digest.update(f"$ {' '.join(full)}\n{code}\n{shown}{err.getvalue()}".encode())
    return digest.hexdigest()


# as printed while the symmetric enumerators still expanded every orbit;
# characterization-pw, dims-end and dims-pf since the cap counts sorted members;
# the axiom groups since a law with nothing to check at arity 1 says so in
# place of "ok (0 checks)"; the deep presentation groups as printed while the
# congruence count still matched each relation's left side at the root of
# every node
DIGESTS = {
    "axioms-B01": "6a60034ef0164656d5619c9f9354aedd0bcab1978470962c3cb02864f2ce7902",
    "axioms-N": "6ce131d9e37289362b6a762958b0cf0ad192875dc9cec15996e927b4fd1a461b",
    "axioms-N2": "16d9c3ffd76e05ca8b155af967b2020e8a35d4b5e344d363e3010b965e7c235c",
    "axioms-N3": "a1de105f6211ba37c904d2275fb8eaf098823908568033c2c81b2cb7376317d8",
    "bijections-comp": "549aa52b28c25877c1c8259a07fd5883e2b5e4ebc616197e14aa1a74cefe0160",
    "bijections-da": "412697bcc018ded7745956f4d7350e1ed3729fe16ae5d483ddf707b9d3ed7c64",
    "bijections-dias": "db09d25abac61bef770986fe809da3c462931ae96eef0a49cfe2562c77f1decc",
    "bijections-end": "e86dc8c336613ede9e74d9e1ed57dc0f84bc49a08263f3f9e927ce9967b32e95",
    "bijections-fcat0": "0f0b0ce70d4cca362e1db9110d43f5bcde38a8d82b1f40d6598d2b395e646600",
    "bijections-fcat1": "4faa1af1c8c728c7f61eb74e6bde8dedc53d626c3120f8d6071c8ec665214936",
    "bijections-fcat2": "448ec0d8673141c7ded5ade7f9f8aefd2981b27f07375e7708e52cd6521d4497",
    "bijections-fcat3": "9e14ddd3b1136ef6eaa2d2cfc94d9db77624c46dd72fcf3b10c1cd790148a976",
    "bijections-motz": "0f41ebe88d56a186453928b1b8328d23956dafc9c67203344acc64c5e7851550",
    "bijections-per": "b12d214029ea67a0f6d12f0bbf030d4f877dafa9c73c76b02a4543b6e8b75443",
    "bijections-pf": "c086d8606e71c6c843fd198de8ed63bc2ef6a9430fde5bf081daefbd18dc4acc",
    "bijections-prt": "a26aaab15265317b942675fe9164ca0d0e50b7a8ed0bcc378cdd16edb38a9cf6",
    "bijections-pw": "56845b2ad6feef3f137415accb384f8869e81d259729d30213cc18d8f2304e61",
    "bijections-schr": "3cff3ab01d5e34e373c3b01dcb19455d199b7460282a30c93451864abe70f558",
    "bijections-scomp": "781b10bdad543b442e4b72b7f7f6dd8106c177a6b9c0f716acbac37b7d2ebda7",
    "characterization-comp": "6fe5ac6c6c7fc357d1cc0ee96073ab8762fdcc37ef067eac0df04690df0c8b8a",
    "characterization-da": "240b8229f88adc471a8c31a9e882ad194dd1cfe2274a3d1bc656f5f4977147ad",
    "characterization-dias": "2aba98a3cd105a6bb27755002d956b57ff87a27be4d622ba619c4d7222b44580",
    "characterization-end": "b7b8edf08185b6eed91b9f79a7091a7fe72b53f0dc38d363af864d005f563afa",
    "characterization-fcat0": "95266fcb057935c9f51408a8d99bb5aa9d697e0e78b877b6400185a3ae34adff",
    "characterization-fcat1": "d6bbdecfaff13d5a9a1a47af5f679369212af2434b59a7e45e63470d9be29dab",
    "characterization-fcat2": "d0e9ebe636586c5ded79e60970391240d5c5128a93b291493b635d6aa8e82589",
    "characterization-fcat3": "dfbcd0b1c013482bdf5d8aef0f43d2e7de5cf67017cd1b6efb43e5be5217758e",
    "characterization-motz": "3f9ec6b93f30be3742348f8970cce1c2b66846d8c4389a0e0679875f91b2d332",
    "characterization-per": "2bdb0cb2bcf44f19856369297b409d3901621892ab3a39579aab03cb960782aa",
    "characterization-pf": "61c8b93d81763c7ea43c085b6c9aa66dec15b1c31a1df42f048e896cac28b0dc",
    "characterization-prt": "ae4f7f2bc562bc938c50f226109e79f3378cb4750dd89de91974323ae343658c",
    "characterization-pw": "b155cd5cc1279c5dd0660f209631d9bde5ae7e105dfde66e967ee9c749fec25c",
    "characterization-schr": "255ba167e8aa2be2fb38b0cbe2ef8313f0275aed2f01183e385790e8bad3c4d4",
    "characterization-scomp": "5799a068febe993070f5f419d4e0f7d1239733d2c7b56e69a93385d80dc462fd",
    "dims-comp": "abf00aee852eeb7301efb7b69336b21e62f9c65a4aa628153a63e948703a33d7",
    "dims-da": "881ee17beffcbba796ca5bb04d312bf9289a67730a35497523160fe6165ae58d",
    "dims-dias": "98cb67c1c99685f45066a6cd44534dd07fffef9ec3df878fb042b8108922057e",
    "dims-end": "449b0e733660fbebfe008f65f76f3c7dab37f4fd80a1ba81eddaf3fab345b763",
    "dims-fcat0": "f3b6dc86d85ee516eb9205d02832db2e74f3673870958145b0f530606e2ade91",
    "dims-fcat1": "458047b64d6287a1a82263afddec84801c48b0aa6f3c358fd8921ee718f73f7e",
    "dims-fcat2": "c2c9173ab2cbb960e76b38624a8e5b15c2be73c183dd84c20f8e27ca1fa9ce33",
    "dims-fcat3": "6f3a93c49086e90db6a3d6277dabeb5aca03f5d5529f5ad111c8dc78ab83d562",
    "dims-motz": "645ac2ecf0064df7dfe65e2f5be20e94be57a9a27e52e2bc4d5ddb56f5fe693a",
    "dims-per": "f2d3153d01994694d1ac4b70b15eef3cb203a70c660a1770771e13f168d1e76a",
    "dims-pf": "459f0d17f540262a4e53b11ce80d688d9933129b51fb9e0827ce4457aa9af951",
    "dims-prt": "af4a9459b3d3835b337b66f15415568be7f850724caaaedb9427273572f5d2d4",
    "dims-pw": "d056f0b6070cdcfe994de795d180ffb15ff7d219bf69d5e741d2ad4a5a44de51",
    "dims-schr": "7dcddf6c63ba0c382fe6dd3a00d08682183fba9fc71f92c9f087060a4210d40c",
    "dims-scomp": "9742699f7709e87a9f6dee17470e87ec953f87b968710063d526275b2329367e",
    "functor": "f1f8e4ce8a97aa3e01d051c7786c9dbb2af60b5dced38350796a68456d2987a5",
    "gen-pw": "c406833cd233736d7b6d6d6468553f0b944c50f7b3a26a484a6b9ad41a8e1601",
    "presentation-comp": "9614bb0d16eb18055f6454b6a83c82c5d3fb810a7a2fab0a72ab32d400b2d00d",
    "presentation-deep-comp": "5f0c39858bddb94ddaf00ffe9aab93a5f0aeb3514ee0b8330e389a475dafdc15",
    "presentation-deep-dias": "55ef7c7c9a28fcff925e6677f4b6546a51b76932d7f08db5f902aa3510966331",
    "presentation-deep-fcat1": "119e5c713aa18d1d64b1f4aa715798973e691898d916298c3e4a8ddf38711cfc",
    "presentation-deep-motz": "98d5f2ef465b6623918065e0a360c68f054b88b80fc1d7532989f374848dbab6",
    "presentation-deep-prt": "909c06e2e3d5b3e9f5eb76162f5224e2bce7a9c4e20a8b1fa44225bbaea6ca36",
    "presentation-deep-schr": "111e878f09e79e3098f61607b29658c0d7f49961e87e45bbcc5a04cc07c3b351",
    "presentation-dias": "ba22210f4a33a8c04769b7b822dc336cdcf6591dc77b470274c676088253a06f",
    "presentation-fcat1": "d0499a87e9007fc1dfbb64e4c455da78d0441abb1f4be366bc6e8ac7241ff2b9",
    "presentation-motz": "f09dc0a0a5bcde141749b384807ce8b63fc94e7daa004999b69e84b0a04ffafb",
    "presentation-prt": "e73f692df4b27da476e35b3a35202946d2156477c7c24eed3677c47a671a12aa",
    "presentation-schr": "7c567a3c80174721b90525087024eeed9a8a3feb0accf43e338f650cbada3c19",
    "relations-comp": "961dd1f16f3f5f51006e658dc7c13a58ad83a44a26ea5ebbf439b91bfe69856e",
    "relations-dias": "e015e2d24866f26cc3280079f37dfa60163959587fb6121c35da7853b7f0048d",
    "relations-fcat1": "f2d7f8a63980295f02e39df479dcae0161f36a1b67570f7eaf2d832a03f954c7",
    "relations-motz": "3d99909906ab4b108a81a06c977ef6c50a3307a30f23fcccb94dccbebda58589",
    "relations-prt": "6924add5193ad9080b9ef6cb3b980235e86fd08a68459247ce0b3b2eea550e4d",
    "relations-schr": "b017f04a4cc51dd69c190cbd8bd5dd7eca44a5d9bc621f0707c49e75aec3a566",
}


def test_every_group_is_pinned():
    assert sorted(DIGESTS) == sorted(GROUPS)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_report_is_pinned(group):
    assert report_digest(GROUPS[group]) == DIGESTS[group]
