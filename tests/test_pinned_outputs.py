"""Byte-for-byte pins of the commands and scripts whose outputs come from the
limit laws and the exact tables: `limits` JSON, `compare` CSV and JSON on
one fixed mixed file, `exact` first-arch, deg and joint tables, and the two
scripts.  Each output is pinned as the sha256 of its text, so any change to
a digit shows here.  The digests were taken before the laws described and
expanded themselves and before the exact first-arch product came from the
functional equation; both changes keep every output.  ETE_GRID pins
ete_limit_moments itself across distance models, tolerances and grammars;
it was taken while Dyck still had its own sum, before every model summed
its joint law.  TABLES was taken while _cells still filled a dense block
for every two-axis table, before runs that are rows streamed as they are
stored.  The grammar's deg, unp, chn and len compare pins and the
convergence report's were re-taken when compare's total variation came to
stop at the largest value in the data and the grammar's hel law came to run
to its support end: only the last digits of those distances moved."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from endprox.cli import main
from endprox.exact import Model, PfoldParams
from endprox.limits import ete_limit_moments
from endprox.structure import DEFAULT_ETE, EteModel

ROOT = Path(__file__).resolve().parent.parent

# nested, unpaired-only, pseudoknotted and unparseable records in two groups
MIXED = """\
>a1 group=alpha
((((...))))..((...))...
>a2 group=alpha
..((((....))..((...))))...(((....)))
>a3 group=alpha
.........
>a4 group=alpha
(((((((...)))))))
>a5 group=alpha
.((..[[..))..]].
>a6 group=alpha
((.)
>a7 group=alpha
((...))((...))((...))((...)).
>b1 group=beta
.(.(.(...).).).
>b2 group=beta
((((....))))....((((....))))..(((...(((...)))...)))
>b3 group=beta
...((((..((...))..((...))..))))...
>b4 group=beta
(...)
>b5 group=beta
..((...((...))...))..((...))..((...((...))..((...))...))....
>b6 group=beta
((((((((....))))))))..........
>b7 group=beta
.((((...))).((...)).((((...)))).).
>b8 group=beta
.(((...[[[...)))..(((...]]]...)))...
"""

GRAMMAR = {"default": None, "alt": "0.2 0.9 0.2\n"}

_LIMIT_STATS = ["deg", "unp", "chn", "len", "ete", "hel", "stm", "stem-helices", "joint"]
_COMPARE = {
    "dyck": ["deg", "hel"],
    "motzkin": ["deg", "unp", "chn", "len", "hel", "stm", "stem-helices"],
    "pfold": ["deg", "unp", "chn", "len", "hel"],
}
_FIRST_ARCH = [("dyck", "hel"), ("motzkin", "hel"), ("motzkin", "stm"), ("motzkin", "stem-helices")]


def _grammar_flags(grammar, tmp_path):
    if GRAMMAR[grammar] is None:
        return []
    path = tmp_path / "params.txt"
    path.write_text(GRAMMAR[grammar])
    return ["--pfold-params", str(path)]


def _cli_digest(argv, capsys) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    return f"{code}:{hashlib.sha256(out.encode()).hexdigest()}"


LIMITS = {
    ("dyck", "deg", "default"): "0:412b404bafeed1661512f3e0d400374617fc80b28fdc27a95d85a47b1dfd2f0e",
    ("dyck", "unp", "default"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("dyck", "chn", "default"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("dyck", "len", "default"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("dyck", "ete", "default"): "0:9b8fdbf6de784dcf84d0c2f336d86cc117de0cfd62a8fefbecee123a82d03a68",
    ("dyck", "hel", "default"): "0:861283faab04eacb7a7043001d3e299873b791df5f62685d970bf4de32bbb3dc",
    ("dyck", "stm", "default"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("dyck", "stem-helices", "default"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("dyck", "joint", "default"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("motzkin", "deg", "default"): "0:894142907e3e702161254d58574f1cda8ef4ee5c390761d4fcfbff8f8a296f5c",
    ("motzkin", "unp", "default"): "0:ea1b0109dfb178a6a0aa6fd7fb5c40b78f74e2520d61b1f740be4e63ff2a2523",
    ("motzkin", "chn", "default"): "0:fe116affb6c81cfb49dfe91de7505863647a9f22220091d267b0743d4721faab",
    ("motzkin", "len", "default"): "0:a4bb3346e8aa34516e01ce89d5aac3e8deb23fe154e972dfcf2029ad56ef337f",
    ("motzkin", "ete", "default"): "0:530957ab8b39e55a9b75839c49757b95672aa666ce73ada1cf02b9e034440eb8",
    ("motzkin", "hel", "default"): "0:afb41d79bdb4643685ce54080ae54d77024b510883f6cbc74a547009f268e4ec",
    ("motzkin", "stm", "default"): "0:b0c1fea0fa135eb9eb81ab12772e0d6e6c3ca078b6a31bb40a8d362079c39619",
    ("motzkin", "stem-helices", "default"): "0:ca5c2ebf3a684ae6fd135f3ae05e728f094e7d3dd99fc767297a56773791d6ad",
    ("motzkin", "joint", "default"): "0:805d59abcf436778abfa49ab511aa9fc7bde6677da4e57eb959f92a7c3666b94",
    ("pfold", "deg", "default"): "0:0d8f8645272b931b08a5428c5facdb67cba46b4b0b35b556f012be22e2c2e39c",
    ("pfold", "unp", "default"): "0:ded5b3b3a920b1176dc8607a5787f8c28f03a693dc8ebc6d7992d36dce754595",
    ("pfold", "chn", "default"): "0:39972796a4a0df2acca778df50cbb3d912703c98775a0e54ba5a49ffb78e3780",
    ("pfold", "len", "default"): "0:40df517dd7d0df4910b9e7a4a354dedf342543fac16c60360b5f073cc28e83b4",
    ("pfold", "ete", "default"): "0:1174b7894cd07ead1581c80ea4dd3e23989cd971a577b8ef20d71b5f62adb974",
    ("pfold", "hel", "default"): "0:e31885e2654cab582df4320687d6a3041749f3f1b7e38fa954235934b57830da",
    ("pfold", "stm", "default"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "stem-helices", "default"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "joint", "default"): "0:b41fa46a3137f66bb2c456dd6829dbcfe108083aef9290d48206e24bfab639ba",
    ("pfold", "deg", "alt"): "0:672df8eb7ff9df7f39f522cd8b00c456065819ea800326fd2f20b649f45a8688",
    ("pfold", "unp", "alt"): "0:0a87f4011adb23f76fac316f09098365ff12b32b5be3f85cdec70095774f7511",
    ("pfold", "chn", "alt"): "0:9dd5a19d7f9b9d0d8904cb58f22d61ce781ea5156a3305f5439db6d72246a82d",
    ("pfold", "len", "alt"): "0:36faf8594b12a6169da55a6a90fb69f81229c2102c33ebbd4ecd6742bdfca842",
    ("pfold", "ete", "alt"): "0:096291f42550ea8b600b0905b9929da7100a1cf9c244e14d7475ff439885bf40",
    ("pfold", "hel", "alt"): "0:fa44a651d2db5eb197ead73b3f8acbc02a1c6e27d18bed104018b1fecc4ea03d",
    ("pfold", "stm", "alt"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "stem-helices", "alt"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "joint", "alt"): "0:7f9c0c61048c6811cb28bae9fc579a065b6fb3c035aeec79c25fbde6ce337cc6",
}
COMPARE = {
    ("dyck", "deg", "csv", "default"): "0:2960df09dc5db4e7103beba740b6ef8bd0276a1e16196e1a0a9a7b7c2a6362d0",
    ("dyck", "deg", "json", "default"): "0:67e7065a700211d0decbc2c053c91348f512d74296124f4cd8b10de9e6f2d2a4",
    ("dyck", "hel", "csv", "default"): "0:b9414c5c4cb4448b5af5879caa9f4bcc8eec6d732a04db7e6c9a7f33f6ede8e4",
    ("dyck", "hel", "json", "default"): "0:365ed0fc9212439b146635e665198b393751fb1e3d8415d017943c63c8428d0d",
    ("motzkin", "deg", "csv", "default"): "0:5b85e0d1a59efb649e04302d53ce15c28808c51cf424c45256922996b1cdcea6",
    ("motzkin", "deg", "json", "default"): "0:99dafe4149346e20ebd5e7c6395c497b4dee8770c9ae0b411c5522e1070c2cae",
    ("motzkin", "unp", "csv", "default"): "0:780d608a3087258cd025ed4487021605d286b511ab3b71c4c2e86b859bbb6069",
    ("motzkin", "unp", "json", "default"): "0:8beb0c89b052a5d4b2ebddd2ccff5411723981bc6fe884ea76566928da20641b",
    ("motzkin", "chn", "csv", "default"): "0:29e4d1108bb039447aa26ec2aa6e9448382da82ba852c99d01bafef8f282550f",
    ("motzkin", "chn", "json", "default"): "0:41a8510b579075b2379483c774986a2f1750303f1981c8415e8696331ad28e3b",
    ("motzkin", "len", "csv", "default"): "0:ad0afe078371acde9e531e0ca50af21e6ecc2cc7d6fa9be14d0532259c12decd",
    ("motzkin", "len", "json", "default"): "0:8129458e9d65f682b6e70cecc129791b606258607c452f243d23885cb57ba634",
    ("motzkin", "hel", "csv", "default"): "0:ad72ad6e7aa72ed5eca7921c38cbf422a1e22735141261fbe723f459b1a35cec",
    ("motzkin", "hel", "json", "default"): "0:c9e705252993931e0b27508a74af83929e28762aa70298daa1da30ff892830a4",
    ("motzkin", "stm", "csv", "default"): "0:82cb49631ad9fbc95860d5adfd84dcf8b65bdb3b9ba1c25fdc932461ce751729",
    ("motzkin", "stm", "json", "default"): "0:e4b821950b113384ec4052b878117823833b73fa741caa2660f4232f62741278",
    ("motzkin", "stem-helices", "csv", "default"): "0:0c6e8fae9d9c7684fe92ef09fe1f210cfa6f7bb2fbb0d22ebbcb9c2b230f29e9",
    ("motzkin", "stem-helices", "json", "default"): "0:9daf5a97da2658db907c5c4dfe2797f474bf456ac3f8f45a0653897df3c9a4ed",
    ("pfold", "deg", "csv", "default"): "0:5cf1360d1f4abdfc4fee42cb258f86c0695ad9c4f47b111d72480aed0cd361b1",
    ("pfold", "deg", "json", "default"): "0:115ccd7eb78ffaca5e47ea526ffbac3fbdb60a93a315c24769d11ac00d95170d",
    ("pfold", "unp", "csv", "default"): "0:7a67ae965b0a838c940b2927646ea2af4e488b99c1f6882cb92ef53373cedf58",
    ("pfold", "unp", "json", "default"): "0:3df34e96effb60dcb4b0b6ae68bb5df7be3ddf091557d03cd7070001ca3f0f61",
    ("pfold", "chn", "csv", "default"): "0:d93dfa21110a5758907fae82c94eb1bee0c83143993f15a7f73792e72bbc97a1",
    ("pfold", "chn", "json", "default"): "0:3ecc34e1ce0626a4d312f6d7ee7059e39ae3f3b49a9ef3e9480c6722083f8d6b",
    ("pfold", "len", "csv", "default"): "0:5fb4040dc2850e9f82f41509d31c6ef4207b47fee3fa6738c4e067db28ab68c9",
    ("pfold", "len", "json", "default"): "0:34571d9b16322c84f27f002ad54c274a83555b77a6597ff60e011aef46dad3e7",
    ("pfold", "hel", "csv", "default"): "0:f3db4b16a68463f0c955af18619a24b00afd58237770a602878419f1b133166b",
    ("pfold", "hel", "json", "default"): "0:8b36af748cf39905357e914f2291bdc4c71e5e08cf6a4cdfbace07c23fc23065",
    ("pfold", "deg", "csv", "alt"): "0:e52bca01380253d56596cd4bd9e8ec6827e85218bf7ca30db568c22c067fd1cf",
    ("pfold", "deg", "json", "alt"): "0:b3ae730c2044ea05c8fcf5abcd4ae86062a09eb176500f566098ccbaa501b351",
    ("pfold", "unp", "csv", "alt"): "0:97f1200d50a5683aeb8959c5a07563e3865432d933f6dc9fbaba9b7c72557286",
    ("pfold", "unp", "json", "alt"): "0:9a1408916510415fe38d5de4a1c51787e9bb8b66f0e6839300c721031be2bafe",
    ("pfold", "chn", "csv", "alt"): "0:fe863ee585f6ea30654bfc47634352e9c6228aa500228c06e164fc7d2b1878e8",
    ("pfold", "chn", "json", "alt"): "0:1d551c41a248d63b5d4a93ff682dcccd950d818bc6d9b08d614f0c076b5ef9fd",
    ("pfold", "len", "csv", "alt"): "0:062c66c0c06832475c39f2548471cafb962ebf8eb2da4e5bffef0eee7277b34a",
    ("pfold", "len", "json", "alt"): "0:ef208dafb433f0995faff95880d94c7eca1e1f11c59638b02df21fe21789c8ec",
    ("pfold", "hel", "csv", "alt"): "0:23311e5f5323d568bf0fcf0da8bdf77da9234808e5ecb1ec24d044267e0c9828",
    ("pfold", "hel", "json", "alt"): "0:a5e256df8a9898a4139ea10a10759dbac6f2c3387b4bce129c11d6edad3c3b65",
}
EXACT = {
    ("dyck", "hel", 0, "csv"): "0:b76c7397e197469bf244f06d9d5ecd0340ba4ae82ab6c371a66b813583ecbeca",
    ("dyck", "hel", 0, "json"): "0:93e52146d6eb338c8e205c7aefdef1c840027356d1d3d7202b463b226c57683c",
    ("dyck", "hel", 1, "csv"): "0:39b1597096d44ae9861c088728865acb7e7bb810eb2f9f74411862b5e89eac00",
    ("dyck", "hel", 1, "json"): "0:8db644829fd4dc004e9629c17d667e360b58dc2998e73de6047f382a60dc5079",
    ("dyck", "hel", 2, "csv"): "0:9f0c4746f6b078a9243825b2386b297de3bfcf3448efea992cde1a5051e02fd8",
    ("dyck", "hel", 2, "json"): "0:4d4efdfb42a30275d56a8d75266e4da87354e3f6de75a2f39f3a025477da7424",
    ("dyck", "hel", 150, "csv"): "0:ebd79647c2c203acb2a5d559dc903a829765ed3869cfde224e4c4174253bdf02",
    ("dyck", "hel", 150, "json"): "0:c3c95587ffc476753d56b631132e0274264e86090c6f046c4ed5d9f2bc5a5aa5",
    ("dyck", "hel", 300, "csv"): "0:0689d15fe60795813de39a60eae799494c2e06ec21b9a406266ccf8ca5331dbe",
    ("dyck", "hel", 300, "json"): "0:bf3b46b64b8a0b47e28a3768066bd5ba8d1756d01a253aeaad25a445eb183176",
    ("dyck", "hel", 1000, "csv"): "0:3c7ea906950d431599d7dcb812f5b52b97cc8a6fd58b8620867c46a4a9271f23",
    ("dyck", "hel", 1000, "json"): "0:6d7a7a156cc69c0823a577923a8bcbc3818a82f210b518038c3b879c2a0a7d6b",
    ("motzkin", "hel", 0, "csv"): "0:f5c0b6bea77deb57aafc8a0b0592b05fe4d1ce687b42fc8d49fc610584586341",
    ("motzkin", "hel", 0, "json"): "0:9e513301d8a5dc50b88ee7f7d5d4b6c1834176b3f3f23abef9590ba010758359",
    ("motzkin", "hel", 1, "csv"): "0:30c3c7e6662fccc3a170838956ce9b5c0f41db4215bb8fc93bfb81b361b38cf3",
    ("motzkin", "hel", 1, "json"): "0:e2cdb7530f750308650d0a49c4dcbd368913e43bba307a2359e7159b5cd6e60b",
    ("motzkin", "hel", 2, "csv"): "0:68986cc92188b49301d0f6c906be26825630fe378d367bb28510d8371ad8afed",
    ("motzkin", "hel", 2, "json"): "0:9a839c0edfa558e6d0469d6a94afd66b3787acc0bc70d22887c92a908217a506",
    ("motzkin", "hel", 150, "csv"): "0:ede7a770c57fa22dd49803893419f5c59ed2a4895109cb7699fd2d3fde9ae20d",
    ("motzkin", "hel", 150, "json"): "0:afa1a393c6c446be3e4a9f2869c4daca1530780f556c9fe9f98cd62414bfe840",
    ("motzkin", "hel", 300, "csv"): "0:a6a4ca1731c261c75e6962d1eba579f5fc0eb3fc4da6205ac83c6c19bf9bb1a2",
    ("motzkin", "hel", 300, "json"): "0:f9eedfb87015b7da537ecf567acfd3b18842e1563303ab601885b856df2c40b2",
    ("motzkin", "hel", 1000, "csv"): "0:e0ba4ccac24e2b37dc606ca1b42b870726a26e6f00c7f6737f504f081e176e05",
    ("motzkin", "hel", 1000, "json"): "0:8f3ecabf9a963b970724f9565f94d7e4bdb2bdcff735f7fd08496f31bd759297",
    ("motzkin", "stm", 0, "csv"): "0:5c882d00759f3256d5761815782bfd5ead906df7df78065caa5c1a5e07052a4c",
    ("motzkin", "stm", 0, "json"): "0:af459586f7cfc0e120f8e67f46463380b23444df65a67e6a5cfaaa2ef322180b",
    ("motzkin", "stm", 1, "csv"): "0:422a90934f8e3d646464847684fd36ae33141b0a0937b2116a39beda13605f9f",
    ("motzkin", "stm", 1, "json"): "0:7b83a1df47caad7f54938707bcd422b3d059d119333fd42f0a138d36d56fbcf1",
    ("motzkin", "stm", 2, "csv"): "0:44849f2e3684880e7ec4c56878ed1ee65728c21464ea02464116ad6ade00763a",
    ("motzkin", "stm", 2, "json"): "0:2f7989733aeee6b4deec7a0d08bfbae032629568d3224e88cf743a49f29114e0",
    ("motzkin", "stm", 150, "csv"): "0:8f4feab5ba8b4078700a169557558a5fd8d96dfbaee9db9b9feb7adc1377cd3d",
    ("motzkin", "stm", 150, "json"): "0:32477d20f73f22bd56baf348bf2d526f13295a628b1645bdcadfe23eac24dcf8",
    ("motzkin", "stm", 300, "csv"): "0:93b222ca34b1d7df1563bf825f1b6c72b7d12c9491eabc77152fffcf12d02642",
    ("motzkin", "stm", 300, "json"): "0:b5786a84e85c5be24acb6a394adbe5490656416be2b42818eaa480591ffcc5d7",
    ("motzkin", "stm", 1000, "csv"): "0:e3f524a35d9346a893b8e1a43cc84da1fd5115d4fb8f596cacc7a7e607f7373c",
    ("motzkin", "stm", 1000, "json"): "0:023a3e5598af4cd0e4a232eb5be6d03fe8e98224422d1dce81e686f1e071d590",
    ("motzkin", "stem-helices", 0, "csv"): "0:3a39ac8db244c3bd9b315335bb83c986780dc25c3bd4a7925409148b7542b181",
    ("motzkin", "stem-helices", 0, "json"): "0:b6bce82d7184ec87dbda21832bc830ca49b54680102984d79a3591ba7cc77be6",
    ("motzkin", "stem-helices", 1, "csv"): "0:575d1a14ca79c67df3d316d9eedbeac6f8a45b2c43388ebe34cf8d5b7b88b39c",
    ("motzkin", "stem-helices", 1, "json"): "0:bffeca52a48a3dd148726c9221b09c1f6c8cad8b95a8899d501a24f4922884fc",
    ("motzkin", "stem-helices", 2, "csv"): "0:e7b5a37c7ef5bad96598cf1f251b9a13fd46c78a7cea0ad5e8f482c136f11245",
    ("motzkin", "stem-helices", 2, "json"): "0:f37b628b9a84c1fe7d063d60012dcda2502094cc9deaff454d23a5a53e65aa82",
    ("motzkin", "stem-helices", 150, "csv"): "0:ba7a1a4f81691dac5baef61376e1df1a131c691b3f01798409550ed3af0930be",
    ("motzkin", "stem-helices", 150, "json"): "0:652d75b3103cd6e48bf55f56cdd5725cb6c00cfa0e7fac8641d256ee14797812",
    ("motzkin", "stem-helices", 300, "csv"): "0:bf176dbbe46f22baa9b1be32718fd01a52c30ca5f1561aae19d460ca3cb779aa",
    ("motzkin", "stem-helices", 300, "json"): "0:722b39d1eb98fef09ac3a67a47fa3f7948d586265a5d129f2c621ac4a8aeb874",
    ("motzkin", "stem-helices", 1000, "csv"): "0:c34a7fe2c60d528f330a49458ebe56980d016a9ac1f9e935eaa4b01d8ab63a68",
    ("motzkin", "stem-helices", 1000, "json"): "0:a3ae6817272b39f52b3dbca38d6fba53ab9fd79616b2af4dd5193c047195bd99",
}
# exact deg and joint tables: one-axis (Dyck, Motzkin deg), deg-first
# (Motzkin joint) and unp-first (grammar joint); the grammar has no output of
# length 0 (exit 1) and no deg table (exit 2)
TABLES = {
    ("dyck", "joint", 0, "csv"): "0:7082b8f731c831d48fcdab45306b18d3b7604367283b97316fe07216a26a447c",
    ("dyck", "joint", 0, "json"): "0:440066a259f47533bf9da18885050e30948e0f3265bb0543d327b2396ac96a98",
    ("dyck", "joint", 1, "csv"): "0:46d0c59a089893e1611dd057812ed5f002c3566ed9a3faf6803eeead78644a61",
    ("dyck", "joint", 1, "json"): "0:5f9e5f920af12ee260e98df69d5700868447c27eb13286d151a686795b84676f",
    ("dyck", "joint", 2, "csv"): "0:09ceb57659b1dfc1bc52a9088eb07ebc5168cdc8f7ad154f82b250be1dc99cf1",
    ("dyck", "joint", 2, "json"): "0:e2f61a0820019d784871fa1711e69d090bcdf1f967a2c6830a1fac0b229a5873",
    ("dyck", "joint", 7, "csv"): "0:820e5abf635c491df8dfb0d1ca81eab36422537627f035bc1b155dce81cd0863",
    ("dyck", "joint", 7, "json"): "0:210cef812fe7b8c73c97c20abd2043c97db2b4b6e33d283f9a9a8c748c9990fb",
    ("dyck", "joint", 120, "csv"): "0:9db6fbf18b0aa748642dfb5755b6eb444f74f55a6bf0b0cea7c706df50c971b0",
    ("dyck", "joint", 120, "json"): "0:0dc8b24c5db97b3f14cca9bf60ed46ca05152df59da56eafa474c3b814b831ba",
    ("dyck", "joint", 300, "csv"): "0:6aea6fc78fce7c0a76a527fdcf3682f7abd10a371355d5ec903c8b50d87eac72",
    ("dyck", "joint", 300, "json"): "0:e6420480a43322d9f140e92eb7b92250a4e6e66b9fb2bb24ba1f531dadd6c83c",
    ("dyck", "deg", 0, "csv"): "0:7082b8f731c831d48fcdab45306b18d3b7604367283b97316fe07216a26a447c",
    ("dyck", "deg", 0, "json"): "0:440066a259f47533bf9da18885050e30948e0f3265bb0543d327b2396ac96a98",
    ("dyck", "deg", 1, "csv"): "0:46d0c59a089893e1611dd057812ed5f002c3566ed9a3faf6803eeead78644a61",
    ("dyck", "deg", 1, "json"): "0:5f9e5f920af12ee260e98df69d5700868447c27eb13286d151a686795b84676f",
    ("dyck", "deg", 2, "csv"): "0:09ceb57659b1dfc1bc52a9088eb07ebc5168cdc8f7ad154f82b250be1dc99cf1",
    ("dyck", "deg", 2, "json"): "0:e2f61a0820019d784871fa1711e69d090bcdf1f967a2c6830a1fac0b229a5873",
    ("dyck", "deg", 7, "csv"): "0:820e5abf635c491df8dfb0d1ca81eab36422537627f035bc1b155dce81cd0863",
    ("dyck", "deg", 7, "json"): "0:210cef812fe7b8c73c97c20abd2043c97db2b4b6e33d283f9a9a8c748c9990fb",
    ("dyck", "deg", 120, "csv"): "0:9db6fbf18b0aa748642dfb5755b6eb444f74f55a6bf0b0cea7c706df50c971b0",
    ("dyck", "deg", 120, "json"): "0:0dc8b24c5db97b3f14cca9bf60ed46ca05152df59da56eafa474c3b814b831ba",
    ("dyck", "deg", 300, "csv"): "0:6aea6fc78fce7c0a76a527fdcf3682f7abd10a371355d5ec903c8b50d87eac72",
    ("dyck", "deg", 300, "json"): "0:e6420480a43322d9f140e92eb7b92250a4e6e66b9fb2bb24ba1f531dadd6c83c",
    ("motzkin", "joint", 0, "csv"): "0:a33dd261158c808429d214ac93ec9185db790a3af1bf09ac17695857946535c2",
    ("motzkin", "joint", 0, "json"): "0:80e6bf625492448ae16a434a76a2ba5286dfd373d9370106cf3fec3d828cad3a",
    ("motzkin", "joint", 1, "csv"): "0:5e0f3b6e5f324a44656b1b9961b75f2c71f5ea9dc69d80caa2269495033e9cec",
    ("motzkin", "joint", 1, "json"): "0:a74a35c0869c79d276b3f712418e12b8ef73e041aa42ee5d75434a391f4249c9",
    ("motzkin", "joint", 2, "csv"): "0:7b839437d320bc72b8bb98513ec82cf78c9e178cc75c63d0d83cc394e8848c1c",
    ("motzkin", "joint", 2, "json"): "0:badcdac03c7bdd616ebcb2551ff143e1b1bcb67624d31e1ccf4f2269f6cecc00",
    ("motzkin", "joint", 7, "csv"): "0:a1a80cc44ec8c4f91e7ae5fa56d4e9706040f053cc0d6516d16a58b5860536c6",
    ("motzkin", "joint", 7, "json"): "0:7a12e3aed61f0c3c7f2f5eb95fba6fa14e666305b7889a950199dd00f50f8ace",
    ("motzkin", "joint", 120, "csv"): "0:1b78d28940c04d5f6597ef922c4ba8c537e1879e5206bc8dc19b8139d8053518",
    ("motzkin", "joint", 120, "json"): "0:b53ee9b77a30092e92e0b57d0d048e114088d3b94748e5b96422b1b2ee74201d",
    ("motzkin", "joint", 300, "csv"): "0:53a7d31bad2cb60f448d6907bb3690acb8674c855b814fd9818f57792fcced3c",
    ("motzkin", "joint", 300, "json"): "0:2242b781f0980d73fc8526cdfed342edcb13c512b851603f11630047222b4abf",
    ("motzkin", "deg", 0, "csv"): "0:d4eeb96b4d5578fb1c017589ea23130204eeb99db83cef41e915d6823277ddc4",
    ("motzkin", "deg", 0, "json"): "0:42791ace18d6e5e319f270a4f42943108ba7f091074c7498351976caccc3282b",
    ("motzkin", "deg", 1, "csv"): "0:59bf0e98cd6d5e714c279fae532bc567b6adc9d327d05d7ee439f06ba1af89f2",
    ("motzkin", "deg", 1, "json"): "0:d5ef7b1dbaec8d7c44af2ba5e6304c45c63472f9c5653910d0bc64a39e112911",
    ("motzkin", "deg", 2, "csv"): "0:b6a5f1567d1c7b0f7993d00bfdaa2cc7ded28a610bed577e7884398a753f2fe4",
    ("motzkin", "deg", 2, "json"): "0:14948ebd8e68b136b81a015f95d2f51077a9061ba25b12e0029f0e41b6a082b5",
    ("motzkin", "deg", 7, "csv"): "0:2cf722e95b3b0484a276d97637142de4cf3c1812756431383b233d9a29a633bd",
    ("motzkin", "deg", 7, "json"): "0:d7806e9bf2edb0daf0c61beb4e3ed2b7b0f1cf7591ffbaea9e1beca3c4e0f1d3",
    ("motzkin", "deg", 120, "csv"): "0:e6ef1931704ccca19cd15241ccddd5ab2e282b699f72ce9642093db7f22c4f59",
    ("motzkin", "deg", 120, "json"): "0:c8e2aa48f0e726cbb198fc3df239e804ef629d95b2d16a1ceef568f56823855b",
    ("motzkin", "deg", 300, "csv"): "0:91bf6fd7c246e3cb16abda0ab50ac905f28e49f6327d7c8436c2cc9550ead9d0",
    ("motzkin", "deg", 300, "json"): "0:776d64dff8a3a7ca2d7615071a93d7164516c5ab99ca11c553ce5644f6175468",
    ("pfold", "joint", 0, "csv"): "1:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "joint", 0, "json"): "1:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "joint", 1, "csv"): "0:506b5c3f3982ad26e2b09088e8584b55749aa6980180bc05ece89d1d52bace7a",
    ("pfold", "joint", 1, "json"): "0:53c7e93b5ce75f883a623f1e1c831337a4a38ae73bbd495f6d18d4491776c93f",
    ("pfold", "joint", 2, "csv"): "0:763ebd8d8211c256262fef9e85579fd663126b4a60bb0ea0632790a87e65f92a",
    ("pfold", "joint", 2, "json"): "0:6481427f1f4cae1e271294a7a5e6b34143da27302571abf7b1b3428781c0582f",
    ("pfold", "joint", 7, "csv"): "0:c199085bc178714c8dc045ab8459f902e2d13aa2dffd7856b1d1b316f6c0f9c1",
    ("pfold", "joint", 7, "json"): "0:2677472c54b0ef4d3c85d5138cc91d61d015585cf11d02e26f8b4df5082cf884",
    ("pfold", "joint", 120, "csv"): "0:0e63a380a2040bc9a8cb53ef9dbd9b68ae16608edff3ee946e5d3d3d7f8167da",
    ("pfold", "joint", 120, "json"): "0:1a82165ee792a7e241f664dbb86801911ed64141d76578083b3032a9ca54d5b5",
    ("pfold", "joint", 300, "csv"): "0:8a8c642b1137260f00c038476fc4afd6adaa0b006516725381c0ee79be9f0c3c",
    ("pfold", "joint", 300, "json"): "0:823c58ba9126c2c0bbd6fd5d733e5fcc5b8606cf0d251edb3dff88c8715119bb",
    ("pfold", "deg", 0, "csv"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "deg", 0, "json"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "deg", 1, "csv"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "deg", 1, "json"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "deg", 2, "csv"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "deg", 2, "json"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "deg", 7, "csv"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "deg", 7, "json"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "deg", 120, "csv"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "deg", 120, "json"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "deg", 300, "csv"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("pfold", "deg", 300, "json"): "2:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}
# every model x distance model x tolerance x grammar of ete_limit_moments
ETE_GRID = "045d0ac577b14a0c4649e137038e0aa68d966c1debbcdf50d4806cfdd170f0e5"
_ETE_MODELS = [
    DEFAULT_ETE,
    EteModel(2.0, 0.5, 1.5, 0.75),
    EteModel(1.0, 1.0, 1.1, 0.75),
    EteModel(0.3, 3.0, 1.9, 1.0),
]
_ETE_TOLS = [1e-1, 1e-3, 1e-6, 1e-9, 1e-12]
_ETE_GRAMMARS = [None, PfoldParams(0.5, 0.3, 0.6)]
SCRIPTS = {
    "limit_table.py": "0858bd44da66f9b04ef90a9164338de5edae0d6207a20f368c94f2627fc768e2",
    "convergence_report.py": "64749920a104f1ee8b2a7e7151ea0fd1428cc5356e604264036ea3eaf8091f53",
}


def _limits_cases():
    cases = [(m, s, "default") for m in _COMPARE for s in _LIMIT_STATS]
    return cases + [("pfold", s, "alt") for s in _LIMIT_STATS]


def _compare_cases():
    cases = [(m, s, fmt, "default") for m, stats in _COMPARE.items() for s in stats for fmt in ("csv", "json")]
    return cases + [("pfold", s, fmt, "alt") for s in _COMPARE["pfold"] for fmt in ("csv", "json")]


def _exact_cases():
    return [(m, s, n, fmt) for m, s in _FIRST_ARCH for n in (0, 1, 2, 150, 300, 1000) for fmt in ("csv", "json")]


@pytest.mark.parametrize("model,stat,grammar", _limits_cases())
def test_limits_output(model, stat, grammar, capsys, tmp_path):
    argv = [*_grammar_flags(grammar, tmp_path), "limits", "--model", model, "--stat", stat]
    assert _cli_digest(argv, capsys) == LIMITS[model, stat, grammar]


@pytest.mark.parametrize("model,stat,fmt,grammar", _compare_cases())
def test_compare_output(model, stat, fmt, grammar, capsys, tmp_path):
    path = tmp_path / "mixed.dbn"
    path.write_text(MIXED)
    argv = [*_grammar_flags(grammar, tmp_path), "--format", fmt, "compare", str(path), "--model", model, "--stat", stat]
    assert _cli_digest(argv, capsys) == COMPARE[model, stat, fmt, grammar]


@pytest.mark.parametrize("model,stat,n,fmt", _exact_cases())
def test_exact_first_arch_output(model, stat, n, fmt, capsys):
    argv = ["--format", fmt, "exact", "--model", model, "--n", str(n), "--stat", stat]
    assert _cli_digest(argv, capsys) == EXACT[model, stat, n, fmt]


@pytest.mark.parametrize("model,stat,n,fmt", list(TABLES))
def test_exact_table_output(model, stat, n, fmt, capsys):
    argv = ["--format", fmt, "exact", "--model", model, "--n", str(n), "--stat", stat]
    assert _cli_digest(argv, capsys) == TABLES[model, stat, n, fmt]


@pytest.mark.parametrize("script", ["limit_table.py", "convergence_report.py"])
def test_script_output(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)], capture_output=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == SCRIPTS[script]


def _ete_point(model, m, tol, p) -> str:
    try:
        s = ete_limit_moments(model, m, tol, p)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{s.mean!r} {s.variance!r} {s.certified_error!r}"


def test_ete_limit_moments_grid():
    lines = [
        _ete_point(model, m, tol, p)
        for model in Model
        for m in _ETE_MODELS
        for tol in _ETE_TOLS
        for p in _ETE_GRAMMARS
    ]
    assert len(lines) == 120
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ETE_GRID
