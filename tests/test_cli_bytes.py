"""Every pinned CLI output: one table of argv -> sha256 of stdout.

A new pin is one row; a deliberate byte change is a one-line diff.  Each
row runs through `main` in process and must exit 0 with an empty stderr.
The --help digests live in test_cli, because they hold on Python 3.11 at
80 columns only.
"""

import hashlib
from pathlib import Path

import pytest

from padicapery.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

CLI_SHA256 = {
    # `series --form FORM ... --prec 64`, recorded with the trial-division
    # divisor sums that the series sieve replaced.
    "series --form e --weight 4 --prec 64": "354dcea6f54a46251174ab0932788340271c5e4285f4905aaaa140c3e66f191b",
    "series --form e-star --weight 2 --p 2 --prec 64": "2d2f5de0204944044e9e05a3cad7c9cd7273cb2661486b6b987f887b229246de",
    "series --form e-star --weight 6 --p 5 --prec 64": "dbbf3f5282aa7b513fd2564edd8e5ac22f78acab23525e7f91b179700e983381",
    "series --form evil --weight 4 --p 3 --prec 64": "8d61e7d98d65ac16c22729d891d8779c222294533d508e7c8fa8be86ce1fba23",
    "series --form e-prime --weight 2 --p 2 --prec 64": "daba2526fc17dbd957beab5209c1e42956e1f23365cbc0d2df40c6b8090a5e44",
    "series --form e-prime --weight 4 --p 3 --prec 64": "61ce216394cda6ae98027623e539179d0ee142bba5d05c15b200a4ab21ba5447",
    "series --form f --weight 1 --prec 64": "60fcf822e248fe4055b6c30bdd34915788828160a8a6e71414de9f4cf05f24dc",
    "series --form f --weight 5 --prec 64": "27e5f4a2614d289804a53b8e941fa7c283e129cfbf3b670aad67a7da36b80309",
    "series --form f-prime --prec 64": "c79aff08591c0f51bade27544aa6de16be41361f8ff872cb40bc5b643e9f2c84",
    # `series --case FAMILY --prec 256`, recorded with the factor-by-factor
    # binomial product that the logarithmic-derivative build replaced.
    "series --case zeta-p2 --prec 256": "21b61854a21796f265af4629225d37823139a5a501212863afbc76916a0676d5",
    "series --case zeta-p3 --prec 256": "e193759b270133f7ae2cbfa2e92075bfb5b2fa1405a656095629197b032f99d8",
    "series --case zeta-p5 --prec 256": "049699bbc9108fb0d5658cb3eb0f2a60309a41f3bcd7d97dbdfa3c2a04898805",
    "series --case catalan-p2 --prec 256": "d0261f1c297e4addb591625a722cc545238ccbfaf3fba0bbd4748bec752616e0",
    # `sequences --case FAMILY -k K -n 96 --format csv`, recorded with the
    # Fraction-based re-expansion at working precision 2n + 8.
    "sequences --case zeta-p2 -k 1 -n 96 --format csv": "d296926ace1d919361b24850aa8b273b7a1eec64153823b3964b3dfd974f07db",
    "sequences --case zeta-p2 -k 2 -n 96 --format csv": "5234e757eb5807500ab2dfa5b0e3f84c55d1e45370a6fbf0066cb150c4c89ed8",
    "sequences --case zeta-p3 -k 1 -n 96 --format csv": "7ab1046fe015d8abb34d812e675adee41b748e57a2cd7da88113adb1a1171766",
    "sequences --case zeta-p5 -k 1 -n 96 --format csv": "2cfe50b900538941522401f79f3045966b59a154baa25ada00bf5f8070093085",
    "sequences --case catalan-p2 -k 1 -n 96 --format csv": "bae6977210ae4bc5fc5c92040465b2a449ffcd4a99b10d249d66011ee38c8a60",
    # The same at -n 128, recorded before the QSeries product moved to
    # integers over a common denominator.
    "sequences --case zeta-p2 -k 1 -n 128 --format csv": "027377a3b83b691ae1ea54b7b47d3e811514b121f08630702bd7376db04121fa",
    "sequences --case zeta-p2 -k 2 -n 128 --format csv": "298162d0e7a0c78a79ab63718b377ffa7bdd5db99e845967ac0d1f626c19e3ce",
    "sequences --case zeta-p3 -k 1 -n 128 --format csv": "1ea730a0444d6ae7009e7a5900af950a17a65de2991211f7534d3687d5aaa9b7",
    "sequences --case zeta-p5 -k 1 -n 128 --format csv": "64c4282ae950b166220035a951013b3db0bf066032fde2f9cb73af7ab24c106b",
    "sequences --case catalan-p2 -k 1 -n 128 --format csv": "5ae5761ea3248e22e1e53d05147d8196b018ba798846a92c93923e9a7641dcbe",
    # The same at -n 256, recorded when every row still came from
    # re-expansion.
    "sequences --case zeta-p2 -k 1 -n 256 --format csv": "0e66b8347dac993f58baf8b6f5ac3d8c92f49c830b03ab4103a00abb22a218cd",
    "sequences --case zeta-p2 -k 2 -n 256 --format csv": "34da67fab70cdfd372fb523720e8d54a0fd4639ba51c883baf56c0020ec978a5",
    "sequences --case zeta-p3 -k 1 -n 256 --format csv": "0bf71f1f23c9e7c222a0c4309d318b6564d70b8fb713362b6b69929b44ade67c",
    "sequences --case zeta-p5 -k 1 -n 256 --format csv": "770bcd80ba03b4e09eba1dda886ab2afb95515eb07ebd8209350e39286a884f1",
    "sequences --case catalan-p2 -k 1 -n 256 --format csv": "666fa0cc979e902cb64f48496db98b70e3223bcea3323087590c2f15331b1e00",
    # `certify --case FAMILY -n 40 --window 3 39 --bits 200`, recorded with
    # the series oracle (216 certified digits, so stderr is empty).  The
    # zeta-p5 entry postdates its oracle, so it was recorded with the code it
    # pins; test_diophantine checks its gaps against an earlier, independent
    # Fraction prototype of the p = 5 series.
    "certify --case zeta-p2 -n 40 --window 3 39 --bits 200": "b02175d5fae3408053580a08a35c15811a54f21f51dd409a8236cb991bb3f8dc",
    "certify --case zeta-p3 -n 40 --window 3 39 --bits 200": "b195d07fb7b79781765cd1ff460d63dea7368628ce72afb8be4a0fbad41b38ca",
    "certify --case zeta-p5 -n 40 --window 3 39 --bits 200": "c11718620bcd26e4955d9d7375f21eed61b75a1ebdd7367ed77752e02336dae1",
    "certify --case catalan-p2 -n 40 --window 3 39 --bits 200": "4b4babdec5c733287fa50fbbda197c5e0d2a5f931331187635e9bdb94b84a999",
    # `certify --case FAMILY --window 3 255 --bits 2048`: every row the term
    # cap allows, with heights past 512 bits, where exactnum.log_size and
    # math.log differ in the printed tenth decimal on some rows.
    "certify --case zeta-p2 --window 3 255 --bits 2048": "b02cd273f26bd4c5766f5b1099c8e0151f8f5ceeaf25f836393c31bc9bb1e997",
    "certify --case zeta-p3 --window 3 255 --bits 2048": "8b9e5f55a8312137afdd4c29a7e97da2fc0e64d775f9d5c463f8c1f0e58aab5d",
    "certify --case catalan-p2 --window 3 255 --bits 2048": "38826c81235ad8e54e492e202930b137f397857fc36ef35fc263e4020d5d5338",
    # 2048 trits of zeta_3, read off as digits; recorded with the Fraction
    # digit loop that padic_digits replaced.
    "oracle --target zeta-p3 --bits 2048 --digits 2048": "2f861e8639cf02eda3f0c6167428baf2a9c4e20df8954de33c0e14521b351cef",
    # `recurrence verify` and `recurrence fit` with no --case, recorded when
    # catalan-p2 was the only case with a recurrence.
    "recurrence verify": "08b942d4e5f1c7835864193da7ff02c9dd5f950ec48e451c5e219696dbe50096",
    "recurrence fit": "67a04f5ad9fc1b231dd1b840e6d555b1e903c8a76d409e2171a8beb65222ab4b",
    # `certify --case zeta-p3` at the default window.
    "certify --case zeta-p3": "e4d5a204bab27018439c1f067d951119f95a44ead917788e972826a1cd389c26",
    # The README's other invocations and every benchmark op, recorded with
    # the code they pin; an op's -o FILE is dropped, since the file holds
    # these bytes.
    "series --form evil --weight 4 --p 2 --prec 3": "a673f1a2f70d72a1c504e1e8adbfc4b13b976bb94b8ac3ef854064f30abc21e1",
    "series --case zeta-p2 --prec 5": "b8b3228ca3f4309423b4cd5dfd7f9653a531664a5e1b837eff8aac640be99754",
    "sequences --case catalan-p2 -n 7": "e1ebd9f80055a49a0407e248a2df301a88616b04f3093d0fc42e561c47a5cbd2",
    "sequences --case zeta-p2 -n 12 --format json": "e33bae564216fd61f58390bbc59bffe4c8db824a0742c2ac6140ac2ea20c7a9f",
    "sequences --case zeta-p2 -n 64": "28233b0e17525adee68a95597043ea6d5cf1f1803f91115301b15d9771a64988",
    "sequences --case zeta-p2 -k 2 -n 64": "bcd50c8826185015735bb90322c1cffa69609112e1b2f07381d41ebf799db459",
    "sequences --case zeta-p3 -n 64": "88ff4717076c242344cb46fb31b95f54e9bff471760853fa39a08168b34e4bd7",
    "certify --case zeta-p2": "39796083c6da43c4790338fa9bd3994991ab252eab130207d5ff4340d1e9345e",
    "certify --case zeta-p2 -k 2": "a712cc783c3c71d68eadd138f998bb36878f03fb50f837e27b4ed3aa94374c7e",
    "certify --case zeta-p5": "daa9acc3ed259758f35ac53a28337d5775138b8b280e38e8458a4dc78cb8ea21",
    "certify --case catalan-p2": "6fed314630efad132f7372a05fc506f24110f0890b3144d6a9ba11d2f0f5ad51",
    "certify --case zeta-p3 --bits 30 --window 3 8": "ce87ed52044050baacb914b216850643ae68bac5fed18f43b027d987c75df5f3",
    "oracle --target catalan --bits 40": "a07a70f43069476737922d72935565e3f07d445b9ae22754c4a447220dfa9df8",
    "oracle --target zeta-p2 -n 1 --bits 40": "4d7d9f0f8117bfce0405057a579d923a0a1a62e95bdac63b1fb1908ef69fb988",
    "oracle --target zeta-p3 --bits 40": "398a1c3ec32cbc6b44932b910cbe7d621911461b91c924ca6576bdb699037816",
    "oracle --target zeta-p5 --bits 40": "81ea35100fecbe451bbc8169c21385ff75e3b808bc83d751dba79dd31c354a98",
    "recurrence verify --case zeta-p2 -k 2 -n 64": "fad234aa5298f4befe2e2641b0e815a953c6de36bd916842f2c34b898492ac09",
}


@pytest.mark.parametrize("argv", CLI_SHA256)
def test_stdout_matches_its_digest(argv, capsys):
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_SHA256[argv]


def test_every_readme_invocation_is_pinned():
    """Each `padicapery ...` line of the README, without its `# ...` comment
    and its `-o FILE`, is a row of the table."""
    invocations = []
    for line in README.read_text().splitlines():
        if line.startswith("padicapery "):
            argv = line.partition("#")[0].split()[1:]
            if "-o" in argv:
                at = argv.index("-o")
                del argv[at:at + 2]
            invocations.append(" ".join(argv))
    assert invocations
    assert [argv for argv in invocations if argv not in CLI_SHA256] == []
