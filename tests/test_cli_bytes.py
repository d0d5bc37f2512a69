"""Every CLI report pinned to the sha256 of its exit code and stdout bytes.

The digests were recorded once and never re-recorded: a change to any
rendered byte of ``run``, ``compare`` or ``grid`` fails here, whatever
the format.  Each digest covers ``b"<exit code>\\n" + stdout`` (UTF-8).
"""

import hashlib

import pytest

from realize import cli
from realize.scenario import BUILTIN_NAMES

FORMATS = ("table", "csv", "json")

# Centavo prices and two losses: an owned lot sold below its basis and a
# short covered above its sale price.
CENTAVO_TEXT = (
    "price ABC 1 50.25\nprice ABC 2 0.5\nprice ABC 3 007\nprice ABC 4 0.05\n"
    "at 1 buy ABC 5\nat 2 borrow ABC 3\nat 2 short-sell ABC 3\n"
    "at 3 cover ABC 2 by-purchase\nat 3 sell ABC 1\nat 4 cover ABC 1 with-owned\n"
)

COMMANDS = (("run", "--regime", "current"), ("run", "--regime", "proposed"), ("compare",))


def _cases():
    for name in BUILTIN_NAMES:
        for command in COMMANDS:
            for fmt in FORMATS:
                yield (command[0], name, *command[1:], "--format", fmt)
    for command in COMMANDS:
        for fmt in FORMATS:
            yield (command[0], "strategy3", *command[1:], "--rates", "statutory",
                   "--window", "whole-run", "--format", fmt)
            yield (command[0], "centavos.scn", *command[1:], "--format", fmt)
    for fmt in FORMATS:
        yield ("grid", "--format", fmt)


DIGESTS = {
    "run death_avoidance --regime current --format table":
        "10131de8f3e73cff2404a475d47a89a70e4e20b0f593b930f700513af53a2fea",
    "run death_avoidance --regime current --format csv":
        "0373ebd3823b6b4194e3e9caaa47cf8cf280197e96798b1f67f2a8c94e2d2933",
    "run death_avoidance --regime current --format json":
        "756f3d98ca3e948127eb9b64c1cc494f40aa9de780adfd88faf51bdf24a2b7e9",
    "run death_avoidance --regime proposed --format table":
        "ccbc9aa669e245bce68a30cc5b85ab6c40a3790cb32815bdc07d93f31f60a30d",
    "run death_avoidance --regime proposed --format csv":
        "a0cd31d03d84934bf5e0bc9b969d40df6e65dfaca3d893b1b3c477c803d406dd",
    "run death_avoidance --regime proposed --format json":
        "38e46f60084da1bdab44cbfc3331fe7788216df2e1537177df89ea29acf8491e",
    "compare death_avoidance --format table":
        "8e051f88aa2c5462683b5297b4c6d212aca4334d9a009caf2e687bd4ec270abc",
    "compare death_avoidance --format csv":
        "733fa32289bb559128c5472d981adc200217287df6fdc67eb4777173348fa473",
    "compare death_avoidance --format json":
        "63e2fe1655e2d51514cd9679af8984080e1e09a9db8a1d0ece7e0b8a752e9c50",
    "run offset_grid --regime current --format table":
        "bf408af27e4b5b40c1bb7062ceac2a452a5fcbccf99bfbdc3635f1c79ea1e482",
    "run offset_grid --regime current --format csv":
        "0bd50d0e6cc36f4b4e319a2c0e001f7f789f89958bf198104c94be11f7817085",
    "run offset_grid --regime current --format json":
        "bcc97d649979db369ac1b33bc1d0fd1a76cdee9ad2a3beee4591c78f28b84736",
    "run offset_grid --regime proposed --format table":
        "f7a5fd8ad60e3f5b4240710cf161581841aa23effc876399f651f424fa9e3980",
    "run offset_grid --regime proposed --format csv":
        "0bd50d0e6cc36f4b4e319a2c0e001f7f789f89958bf198104c94be11f7817085",
    "run offset_grid --regime proposed --format json":
        "0ffb1ca3e5be228c06b106bec517eb9e11e543b1d4e6ea4864a17a16c504546a",
    "compare offset_grid --format table":
        "b9d2d1713db2d323394ec9f7149291ddc7504cc3aeb53d37c48e8785d3584c2e",
    "compare offset_grid --format csv":
        "1e7d2bae5147236e1088177370571f2939845dd8437b6c0c90530c81f0aaf45e",
    "compare offset_grid --format json":
        "3322d609b99504a791182fe367c2a0efa3a477f352b88fb0bfbf7bb3a364af74",
    "run proposed_demo --regime current --format table":
        "224d3fad95d40c9030d0057af248225ded8fb89211d674d4bf2a7e58e32544c9",
    "run proposed_demo --regime current --format csv":
        "d06ea5768f48493f7efbace75feb896554cb4fe85b420eea226b7f3abf2fba56",
    "run proposed_demo --regime current --format json":
        "68fd50b49a1387715d37f69761a85675a390f9d4890b40e9e6d2fc82fcefa1a5",
    "run proposed_demo --regime proposed --format table":
        "ade8760db6b8006e5abf697bffdb69a719f17d208d4c12382013ab2e74f3645b",
    "run proposed_demo --regime proposed --format csv":
        "2cec791ad82ffd71e6d9acc272cdbeb326080d9e1d4aee82376d2da981d50ef4",
    "run proposed_demo --regime proposed --format json":
        "eff09c957620b825bfeb49b47eada3e5900dcd77d6b425fe9d24967038ce7844",
    "compare proposed_demo --format table":
        "a1e9d044e87c8ea50793b2937606d86caac977f838131a141d3865c71c138b07",
    "compare proposed_demo --format csv":
        "36bd59c81044f6ef282143118466e7f25a12de6beb5d538106b77733554f5dab",
    "compare proposed_demo --format json":
        "13afcf14165daf16e3ad7dddb537db2524de686994cef49e40f7cfeaed0e5fbe",
    "run strategy1 --regime current --format table":
        "7ffc85f98492044273faf18cda0315e410fd2dfbd2ac920ef414bdd279f303c2",
    "run strategy1 --regime current --format csv":
        "194bce5a5c33769cf584b88d36bb6a6d42ccb5b6152f0151d6b488c491862fd3",
    "run strategy1 --regime current --format json":
        "c40d0066fa187061fdb1d6b275e9a35268fa7f6fc23725644ff9153bf483cae9",
    "run strategy1 --regime proposed --format table":
        "77064ff2f483bda83622d358fb8550fe8b2c325e3645f96d297d503a1447d84f",
    "run strategy1 --regime proposed --format csv":
        "194bce5a5c33769cf584b88d36bb6a6d42ccb5b6152f0151d6b488c491862fd3",
    "run strategy1 --regime proposed --format json":
        "562f616f7c2d1d2912eb626be5dec6eeef13b9885f6881bf2e3c303689029551",
    "compare strategy1 --format table":
        "3718c5e0cae45c291ab64047dde47d1227c3fe4fc6c6efdf846801830a41af65",
    "compare strategy1 --format csv":
        "6742a0f986025058c3b369a4c67d163fb777add73515f6697662484d347660b8",
    "compare strategy1 --format json":
        "ce63c5432729874020441e67b9666bf79c270a5646681a46aad6ddc75cda6749",
    "run strategy2 --regime current --format table":
        "1e2408806d7b43d6496580fcd1caa00e53bfdfafa47256f66a12ac46db251c7c",
    "run strategy2 --regime current --format csv":
        "8d513d5458884ec0702d6dca8ba98559dda04f931d2249885c0d66af878a5f5c",
    "run strategy2 --regime current --format json":
        "e1540505a40df1fa02d9e7ee909504ee8684578a2f70617a6322b978a760fa0c",
    "run strategy2 --regime proposed --format table":
        "48a749dc4d60aa8261df200524a5c44d4b10560c5c6fa7cba4371deb17bbc3a5",
    "run strategy2 --regime proposed --format csv":
        "8d513d5458884ec0702d6dca8ba98559dda04f931d2249885c0d66af878a5f5c",
    "run strategy2 --regime proposed --format json":
        "eb295a7f6bd70103c491ab50e0a7aaf3833d7f0d29c0ac662450982d0bd0d4e3",
    "compare strategy2 --format table":
        "3e29eef99f63cfa8281b60f1c43089b86d07764bc34df2cf729caa2a2dc86fba",
    "compare strategy2 --format csv":
        "4ab7a04e5d1961ccb48e4cb258e094eb390c1e15b59645ba38c4eda01d8a7f0d",
    "compare strategy2 --format json":
        "43e725244128385b35164dbd2921ec213dd01b2e189b3b9871aeb48c6f6dfb57",
    "run strategy3 --regime current --format table":
        "39d3dba619ba94385525dc18f9e10a649dea9c48660916a31e3aaf87b0477f18",
    "run strategy3 --regime current --format csv":
        "d06ea5768f48493f7efbace75feb896554cb4fe85b420eea226b7f3abf2fba56",
    "run strategy3 --regime current --format json":
        "32c577560b8c19019c8418912b26ea8cedccea567a5b34cddc9920dfc1d3dc95",
    "run strategy3 --regime proposed --format table":
        "06833d82ec9c8dc770ba117de53d61c272a32371983568802169bc090521984c",
    "run strategy3 --regime proposed --format csv":
        "2cec791ad82ffd71e6d9acc272cdbeb326080d9e1d4aee82376d2da981d50ef4",
    "run strategy3 --regime proposed --format json":
        "72e2d424c278b272ef679a397123248072568e10df4dda7b08c2ced3839c20e4",
    "compare strategy3 --format table":
        "34b14b925288974bd8333041caad31e46071deb840c73bfd969507f49531741a",
    "compare strategy3 --format csv":
        "36bd59c81044f6ef282143118466e7f25a12de6beb5d538106b77733554f5dab",
    "compare strategy3 --format json":
        "8f2c186265cc1f0233be8e63b43f109f1e91c5b165d9073a41207c13f551e70e",
    "run strategy3 --regime current --rates statutory --window whole-run --format table":
        "af34f3a4d4ade87e31e9ed5deb82e6cb671fa723e2016217ec9e18ad799d686f",
    "run centavos.scn --regime current --format table":
        "ceb7a4b60a5e93d3588490b4ca9156507084df102f872cdb299aee7c914c8e96",
    "run strategy3 --regime current --rates statutory --window whole-run --format csv":
        "113c6a2be83835f314eed0affd702ff75d270c430e2304f7576b01c04f12c317",
    "run centavos.scn --regime current --format csv":
        "b946894f9b7564e5e0b6a2aad2dc1e304c7117b8119bab118c479b049789de62",
    "run strategy3 --regime current --rates statutory --window whole-run --format json":
        "996b61191bff332a6ed4c89b7f0f787426d499a335a27a633af17d3b3bdab21e",
    "run centavos.scn --regime current --format json":
        "fcfd68d4e48f82459abb647060c0871ff391777c3cb86d3011612bd93155c67e",
    "run strategy3 --regime proposed --rates statutory --window whole-run --format table":
        "2f118f657a41565439f0f691038c905a779a455320df6cdf48faa558555157fc",
    "run centavos.scn --regime proposed --format table":
        "a35757d04a0f20e4ce34a0978da30b1a1eb24addb994117fb246b46f0ab1e9b7",
    "run strategy3 --regime proposed --rates statutory --window whole-run --format csv":
        "db15edc6336e949c66bae606c05d01c8589dbd61efba72301f3471c488e0324e",
    "run centavos.scn --regime proposed --format csv":
        "89b28575cd2e8542c3143b5ea907d0e71e69481a85fe4378bf15ddb08fca7143",
    "run strategy3 --regime proposed --rates statutory --window whole-run --format json":
        "02229e869ccee87d166ce1a909a804e0d84e82b5388720d50aa464e61e759ffc",
    "run centavos.scn --regime proposed --format json":
        "daf84d273058089305354d0a1105f8409e4c12feffead7a1c56e4301711e1d6d",
    "compare strategy3 --rates statutory --window whole-run --format table":
        "102bb489f6b75d26135b21a9db648fd56f5c2c43e94516bdeb65c7c91b0c46ed",
    "compare centavos.scn --format table":
        "22e234f8957269149a93c3188d831969d44720bb37489c1271842a0596462688",
    "compare strategy3 --rates statutory --window whole-run --format csv":
        "c605162ae6861b9e467585dbcd56d5e541705b1d6567d61b9f5f5f4fbbe8cd9e",
    "compare centavos.scn --format csv":
        "00f2f257ab1f4f3f70f6f202bbf3df0bbed0badf1ae7de2cada0cb147d9c6834",
    "compare strategy3 --rates statutory --window whole-run --format json":
        "4b2aecfb32ee227e8a6c66e00aadbb5e4348ec5cb39d402bc203a21ff64b40bb",
    "compare centavos.scn --format json":
        "0c8a4bcc3a8911e5248e6e1d46db42f03864bdfd745ed4f28a16dffe71107bd4",
    "grid --format table":
        "1f680cd736dfb8407950132c5f96b6209eea05a91a16b378cc657a3c34ecdd93",
    "grid --format csv":
        "9b0eefae78e3a755cbf4936ca3a6a06cda3f52a36b2f4d394c3ad37e31ba36df",
    "grid --format json":
        "fa5b01176c6fc07b9f1545566d920795a0827a644cd2bb1e9e9b8e4163ecac05",
}


@pytest.mark.parametrize("argv", list(_cases()), ids=" ".join)
def test_cli_bytes(argv, capsys, monkeypatch, tmp_path):
    (tmp_path / "centavos.scn").write_text(CENTAVO_TEXT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    found = hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()
    assert found == DIGESTS[" ".join(argv)]
