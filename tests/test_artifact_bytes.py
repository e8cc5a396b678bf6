"""Frozen sha256 of the files the CLI writes.

Every `--out` artifact of each scenario kind (CSV and JSON, each with its
`<name>.manifest.json`), of `golden` and of `figures --runs 5000 --seed 0`
is pinned by hash, so a refactor of the scenario, rendering or manifest code
must leave every byte unchanged. Some configs take a second branch of their
kind (a ratio threshold, a threshold below the mean, an analytic-only
lifetime, each effective-dimension source, each simulation target, and
each of numpy's binomial samplers: inversion, BTPE past a mean of 30, and
the p > 0.5 reflection).

Recorded with numpy 2.4.6 and scipy 1.17.1 on CPython 3.11. A numpy or
scipy upgrade that moves the last digit of a kernel may change a hash; such
a change is re-recorded openly, never by editing a hash to fit a refactor.
"""

import csv
import hashlib
import json

import pytest

from screenlimits.cli import main

# name -> (subcommand, parameters, extra CLI arguments)
CASES = {
    "tail": ("tail", {"lambda": 5.0, "m": 15}, ()),
    "tail-ratio": ("tail", {"lambda": 15, "c": 1.5}, ()),
    "tail-below-mean": ("tail", {"lambda": 20.0, "m": 12}, ()),
    "system": ("system", {"k": 1000, "p": 0.005, "n": 1000000, "m": 15}, ()),
    "system-ratio": ("system", {"k": 1000, "p": 0.005, "n": 1000000.0, "c": 3.0}, ()),
    "phase": ("phase-scan", {"lambdas": [25.0, 100, 400.0], "c": 1.5, "alpha": 1.0}, ()),
    "lifetime": (
        "lifetime",
        {"k0": 100.0, "gamma": 1.5, "p": 0.01, "m": 20, "n": 1000000},
        (),
    ),
    "lifetime-analytic": (
        "lifetime",
        {"k0": 100, "gamma": 1.5, "p": 0.01, "m": 20, "criterion_level": 0.5},
        (),
    ),
    "lifetime-override": (
        "lifetime",
        {"k0": 100.0, "gamma": 1.5, "p": 0.01, "m": 20, "n": 1000000},
        ("--criterion-level", "0.01"),
    ),
    "cohort": (
        "cohort",
        {
            "groups": [
                {"label": "low", "n": 100000, "p": 0.005},
                {"label": "high", "n": 100000, "p": 0.02},
            ],
            "k": 100,
            "m": 3,
        },
        (),
    ),
    "bayes": ("bayes", {"r": 10, "s": 0.9, "alpha": 0.5, "q": 2.26e-4, "n": 1000000}, ()),
    "effdim": ("effdim", {"k": 10000, "p": 0.005, "c": 1.5, "k_eff": 64.0}, ()),
    "effdim-tau": ("effdim", {"k": 365, "p": 0.01, "c": 2.0, "tau": 5.0}, ()),
    "effdim-rho": ("effdim", {"k": 4, "p": 0.25, "c": 2.0, "rho": [0.5, 0.25, 0]}, ()),
    "effdim-spatial": ("effdim", {"k": 1000, "p": 0.005, "c": 1.5, "area": 100.0, "xi": 2.0}, ()),
    "simulate": (
        "simulate",
        {
            "target": "person",
            "k": 20,
            "p": 0.3,
            "m": 5,
            "runs": 2000,
            "seed": 7,
            "mode": "binomial-exact",
        },
        (),
    ),
    "simulate-system": (
        "simulate",
        {
            "target": "system",
            "k": 100,
            "p": 0.01,
            "m": 5,
            "n": 50,
            "runs": 3000,
            "seed": 3,
            "mode": "poisson-approx",
            "workers": 2,
        },
        (),
    ),
    "simulate-correlated": (
        "simulate",
        {
            "target": "correlated",
            "k": 30,
            "p": 0.1,
            "m": 8,
            "runs": 2000,
            "seed": 11,
            "mode": "copula-correlated",
            "correlation": {"kind": "ar1", "rho": 0.4},
        },
        ("--runs", "1500", "--seed", "9"),
    ),
    "simulate-system-exact": (
        "simulate",
        {
            "target": "system",
            "k": 200,
            "p": 0.01,
            "m": 8,
            "n": 500,
            "runs": 5000,
            "seed": 17,
            "mode": "binomial-exact",
            "workers": 2,
        },
        (),
    ),
    "simulate-person-btpe": (
        "simulate",
        {
            "target": "person",
            "k": 1000,
            "p": 0.04,
            "m": 48,
            "runs": 10000,
            "seed": 19,
            "mode": "binomial-exact",
        },
        (),
    ),
    "simulate-person-high-p": (
        "simulate",
        {
            "target": "person",
            "k": 40,
            "p": 0.8,
            "m": 35,
            "runs": 10000,
            "seed": 23,
            "mode": "binomial-exact",
            "workers": 2,
        },
        (),
    ),
    "simulate-person-poisson": (
        "simulate",
        {
            "target": "person",
            "k": 1000,
            "p": 0.005,
            "m": 9,
            "runs": 10000,
            "seed": 29,
            "mode": "poisson-approx",
        },
        (),
    ),
}

EXPECTED = {
    "bayes": {
        "bayes.csv": "34da398a32c5fe9d2f2126af89c0397f26a0e1099f7659f8c35afaa69cccdaac",
        "bayes.csv.manifest.json": "1dbe506ea424555c54f57e955e2352d216012b50793660f5b47211ecc320bc33",
        "bayes.json": "f729cb0c78d02be7d1b87354ae5cbb07e9032af6743cd6a7fde3088982cce5bc",
        "bayes.json.manifest.json": "261c5b9a35ca3dd712d39335315aa8831744ae99c48c7217880b82d95a16eb73",
    },
    "cohort": {
        "cohort.csv": "21f2675a8dfc8e3fe4d2b0a2dc2063ba95d5c328dfb06ffdc03d7a34c555ac7f",
        "cohort.csv.manifest.json": "ac8cbe3b764b6cca1e376d51ba168f869042988da2a6d07cb2c15a03972f46a7",
        "cohort.json": "865f118abc5f10a79b67190836513d99c7fff778025e2abe8eae07968a791c19",
        "cohort.json.manifest.json": "b36f7bdf1a077f4785af53836aca2e70bf06f45a14463c906925cebb20675914",
    },
    "effdim": {
        "effdim.csv": "dc1d2cb2a93d75460da4180ebf7389e57fd5affc2382f3ec5e50c43c8ba18126",
        "effdim.csv.manifest.json": "531965cb621b0dc1cd7e4668388e3eac2ad81cdde35f1c75cfebac118c7241fb",
        "effdim.json": "57c979c987787d612850af48b03b87e087e0c66b5f7b23b422d84b954e06e198",
        "effdim.json.manifest.json": "b6250aa2de0d3cbce1ab48892a24ac4f834f4d0002fd83c6157e2a388a40933b",
    },
    "effdim-rho": {
        "effdim-rho.csv": "abcac403481fcb4dcbe3dc7e7d2dcd637793dd5138713746665cf1b866b53d86",
        "effdim-rho.csv.manifest.json": "55d737374247b0a6e1ff29ea5026a6a13dc68456954f6cd5de9589741293eabf",
        "effdim-rho.json": "0e06955aaf1802fba62f88c9da1667e7796b4cb3ad5853e61b16227914ab5529",
        "effdim-rho.json.manifest.json": "0a5411681808fb730357f78555676bb68b1c288760170f06f0cc0952b361e999",
    },
    "effdim-spatial": {
        "effdim-spatial.csv": "3757dc0d6f6fff3842a76bff3d3a5913993d06c997a7569c61e0ff604eb9c737",
        "effdim-spatial.csv.manifest.json": "732a690a7cb021f63c1c05a205835ffbe078756541b6e4f94b48f7194b6822d6",
        "effdim-spatial.json": "e7da6441a7b6f8cc360dfe4d2a3371dd42e7037ce76d8600b230ce7324375c2e",
        "effdim-spatial.json.manifest.json": "776db195ed2d7d6af50c2fc6cd1cc9fb065141c639d6cfd550bc606fcdde8d98",
    },
    "effdim-tau": {
        "effdim-tau.csv": "4fbae91a791f8b709a046696be53ec7882a681cfef287dfb3390174be3a44531",
        "effdim-tau.csv.manifest.json": "696fb2b645291ae05b02bcd3b1957a210c20d26bf59de703bf1573f9b657a543",
        "effdim-tau.json": "40685075a1f2ea156f95c7a72c35c6c08a92d9716820a6a9337c59674ab91e9f",
        "effdim-tau.json.manifest.json": "3e0bc164d42bf82d86a96db7bf34937e2d296b79e2e8ffd9c31f3ce940f12f99",
    },
    "lifetime": {
        "lifetime.csv": "de563191f40dd4fba4fdb567e21d7e634ab5423e57146cc3d4214eef65bfd3d2",
        "lifetime.csv.manifest.json": "734347222f2ef20734a17c4f148e0f4003d0b8b0fdc0a68447b6f18ad5591648",
        "lifetime.json": "f3283f0a50f706bb0d6c4c2abc57ce851c8d7a710a6ed3ff6189fde88ec1f63a",
        "lifetime.json.manifest.json": "08a7d23a21b84abbef9cb63f5ee1b463909d93c442cee878d5b02553be252603",
    },
    "lifetime-analytic": {
        "lifetime-analytic.csv": "aad819399081e1a73dc0f76edf12f4704cf2bd3fa3ea7f3eb77f699a04a4cdaa",
        "lifetime-analytic.csv.manifest.json": "a91cab7b5edc6ea6379dc5108b5469a9b7d21270254300c9a85e46ae6f59542d",
        "lifetime-analytic.json": "a676b1b2cada1935b02bea9bc317d14a2481f09091ce39d4851b163728de615b",
        "lifetime-analytic.json.manifest.json": "ca73895cce58314ddb106b71204c138c52227fe95179c17fb276f0f99b0401fe",
    },
    "lifetime-override": {
        "lifetime-override.csv": "babfd0b9aeba552a4a9f1f1f6cbfd48b77f92c653fa93fb395c1c02d33a67133",
        "lifetime-override.csv.manifest.json": "0467bf865e1c9f7a8822225e38f7f65d2df388dda8f90a8e1f55f0e1b8623610",
        "lifetime-override.json": "5c54656703433be785927ec0d78c12c68024c6e6eba94557343d8b373e7494f0",
        "lifetime-override.json.manifest.json": "797b3dd20ab7b80bfc187f7fab2a2c2367fb8cabb6510100919408f2a21ddb83",
    },
    "phase": {
        "phase.csv": "44f3d469fbe74a31820c5b0376c367aac9c98ff6523df082dfd43c2b578c6916",
        "phase.csv.manifest.json": "94850fb3df5782544c5c4aad652afecbaa7c76810f3ef9b5abcfb154f6f2dc44",
        "phase.json": "3eb5f21c288feb07ffa5e25d4e67b282ffab2567c382313834a3ca09029e5600",
        "phase.json.manifest.json": "ffb2e7fb9df333382c520089f8ce16333f5c45ca066c54cfd82207c7fca9654f",
    },
    "simulate": {
        "simulate.csv": "2f54c95b47a9139d92448041342f67808109e1fcb5d963d3cab5b879168c7edd",
        "simulate.csv.manifest.json": "293ec315b69d16ae255d2046dbb58ffe330460be3178c5bd73be6eeaf8b4f006",
        "simulate.json": "dd6253e8ba287fe959734026737c6278e19f428ef45fac0f750d84989337d349",
        "simulate.json.manifest.json": "5078f9f008ad9b012ffeedaf6da596b473f08c27ea6f30790b206c206d40b060",
    },
    "simulate-correlated": {
        "simulate-correlated.csv": "3d7d39d1893d3553241000c578207eb097886a40dbefc4414aeea4907443641b",
        "simulate-correlated.csv.manifest.json": "f78ee13adb0d0eebccc0513e25db954915a3be2086aae1e2e4d942f6ecc9a4d4",
        "simulate-correlated.json": "103364171759c2df31c354c4f43724a9908c99bbe08e8e0b02ecff26bc7fb63d",
        "simulate-correlated.json.manifest.json": "036c06e73dab9651977e2abb595c710b662df52793fa561b5a5a09d616074317",
    },
    "simulate-person-btpe": {
        "simulate-person-btpe.csv": "bba014db6dd8c566ef25f8f7f27f8646fe680fe72ea957980f06af21688662db",
        "simulate-person-btpe.csv.manifest.json": "7d2679c69b97b60fd1c1fb3d56df4a92a7e488212b4f4ee872f0841f65fe99a4",
        "simulate-person-btpe.json": "917c87265fb7d5486e0ab1d8f0bbcb11606d3d23241eb8b9b4afae8be0a45a55",
        "simulate-person-btpe.json.manifest.json": "7fb3430fbfd804a00a4757eea286cf9e1ab98f38e3683147efae818db5c09387",
    },
    "simulate-person-high-p": {
        "simulate-person-high-p.csv": "a723edae9e197ee2aab287fe32f519bcd47866e4c41bbccc15ecf2a99c7398c5",
        "simulate-person-high-p.csv.manifest.json": "e18544b921603ed5f6e3df44a55a31405ab8b3a4bd433dfd14d718a158f30c6f",
        "simulate-person-high-p.json": "98d82266a83010c29c56ed0c3127aad2fe07546f9ee28a2a5d7854c9fca8ea23",
        "simulate-person-high-p.json.manifest.json": "2fbcc6523e507adf27f8be8f35f911c6c30e675a9de649778643d472dab8ac7e",
    },
    "simulate-person-poisson": {
        "simulate-person-poisson.csv": "2b19c957e6b9bc760db6a06e9985a38df07e3f78028b38744276edddac394362",
        "simulate-person-poisson.csv.manifest.json": "f08244032a5f07e765c0dd5e142cc757128373fdcd534e258dfa1410afd9d646",
        "simulate-person-poisson.json": "0ce4e2ec7c87c0c846c7d5fd4fe74e1d6511f07b78297c73ed3b96d89e48357c",
        "simulate-person-poisson.json.manifest.json": "11bf6c98e934baf084c151c8e75ec9e300c37a478f9713cea14497a5591e7fb0",
    },
    "simulate-system": {
        "simulate-system.csv": "b65d1fccd203a65bdfdb6626ef9ecc1415bf79bc909569e64844fa283acdc970",
        "simulate-system.csv.manifest.json": "cfa4b6b1e864182daf09cfff247d79b6173236873296c31e1bc305e12e134927",
        "simulate-system.json": "a18a72f1233639cbcd627a57171f22c049801e905c856a12300c97e1e5c1877c",
        "simulate-system.json.manifest.json": "f9d63959735f268eef776cdc75ea2b020800a1809db97a902a004549b27a2bba",
    },
    "simulate-system-exact": {
        "simulate-system-exact.csv": "905b18338e002d7b837a46f98f44888f46f2665430c6f11bbe2ba161ecf6e721",
        "simulate-system-exact.csv.manifest.json": "a9b960d55f14f9310049b67a7089ded6ff63f1875277231144b0af990398e478",
        "simulate-system-exact.json": "d225b114c818d1bd0e57f01de64e3fd1fc8d88781cbe2395303b957854b63bc5",
        "simulate-system-exact.json.manifest.json": "e1912eeefccfe5771bff2cd54be7dcc05bd0330405f4cf87b78caa778fb4dc26",
    },
    "system": {
        "system.csv": "76eda4dd833a7a47d9a438454f76da6e3f628b4d3d0f59e572145043f68b8dc1",
        "system.csv.manifest.json": "c8279d3a8b78d40274db7abf1442899bcd9f94ae1912b703340889d2ab8417ce",
        "system.json": "d01fdef7c39ee794549f28f1012f4bc5ae8bacea7eb968777d106db1ae30d877",
        "system.json.manifest.json": "a479917be8a071d1dae420ad9e7de3143f0c1f1e21234b81debfb432e33a6ea0",
    },
    "system-ratio": {
        "system-ratio.csv": "1ebe1ee7ca6c4d01d374079ee89d8d091d644b83e076c9bcffce63ee2cabda01",
        "system-ratio.csv.manifest.json": "70ae7b5dc39e5631f389d3d0cfb83b21091b227810ffb25c438d2dfe14f552e9",
        "system-ratio.json": "0e614248e9163dee0dc1020b1ec72d3c8100e50afbbcaf272eed946eaece2a5d",
        "system-ratio.json.manifest.json": "3a514aa1bab9182854a7facf314153c40c327f63563ad970ca6f65ed46e452e2",
    },
    "tail": {
        "tail.csv": "c29a3f54d88971fef2809d310ac693142ca45bc8528cd608e8dded1b2cdaa7f1",
        "tail.csv.manifest.json": "eeaba0856f0dc5187be15978c84ca7101614dea1f5cf6412a1aea53ad2098dd4",
        "tail.json": "9610db3746e7e7179c28ee711c53d947a3f8904ae7209458180320de0fc84c7b",
        "tail.json.manifest.json": "e12758b08e72c7a1784f587d9456a9988f79a320edf146f9df4918a806e01314",
    },
    "tail-below-mean": {
        "tail-below-mean.csv": "cef9490e54c8e784a38b52b6acab9e5c4996b9ea55d8a08aa60455fc9c662a3a",
        "tail-below-mean.csv.manifest.json": "95638bd4b430171c5f538cf734dcd2e849b4e2d869d21475d53dba67bb329ac5",
        "tail-below-mean.json": "cac6caf7b4b4a1ee4e580d69664424b1e541dfeb966cc0bad4e462b6fba78dae",
        "tail-below-mean.json.manifest.json": "605d356f3526cfe3c04792bb8c585192b045ca06a00ce2b9b9df9d62cda3abbc",
    },
    "tail-ratio": {
        "tail-ratio.csv": "123294d8b6b445d06bd09c9816c779e37d4e5e1f9997c4900f45108c5a1a7d18",
        "tail-ratio.csv.manifest.json": "538769c11f3c8e93703f07a5cd1df3137a0718e8477b18ccd0aa53d65e4b6795",
        "tail-ratio.json": "1a92b99d8a00d494be2fa5455ebfae50fda539bc5a45cb1f8ee7685383a02408",
        "tail-ratio.json.manifest.json": "874f2d83cb53b85366d418f69694b4f32a95559b90a1c51752444a49acbb9de6",
    },
}

EXPECTED_GOLDEN = {
    "golden.csv": "c53eafe0b9bdbbf7c1eaf3711b5834b0d2bf61aef079ee2b95230c45439b4991",
    "golden.csv.manifest.json": "fd736874292f66b9490414055e67a016aa6ecc9304280db545aa1f2981d9b4e4",
    "golden.json": "9824596c08a42202ed99949550e5bc06397cdeae2a003cdee26dd1bd8af2125e",
    "golden.json.manifest.json": "943b3e22f4ca112e8c497667b4a8e00adfbd13d9dbc7dae09d6f6e802f337413",
}

EXPECTED_FIGURES = {
    "manifest.json": "b1d20b5b25e44df254b62923b0c1f2706dc4b379f38a59a5728589879970af49",
    "panel_a.csv": "ad558416c4b0c9a0f87f26f612cabd565475de778f9ab2133a32600d7e753f62",
    "panel_b.csv": "74ca18a17ab29ae9e73a6aa615214dadd3dbda52f6dde84346f82086c8500b6f",
    "panel_c.csv": "635b321843222d80efaa68fb79d400ac083996ec5f438a0ad6c8b78f7531b3b6",
    "panel_d.csv": "c4a8f3cea3dc8079feb46e05b567f1b32e5897f40fd5b1b6e156eee1020f37c1",
}


def _digests(directory) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_scenario_artifacts(case, tmp_path, capsys):
    command, parameters, extra = CASES[case]
    config = tmp_path / "config.json"
    kind = "phase" if command == "phase-scan" else command
    config.write_text(json.dumps({"name": case, "kind": kind, "parameters": parameters}))
    out = tmp_path / "out"
    for fmt in ("csv", "json"):
        argv = [command, "--config", str(config), "--format", fmt, "--out", str(out / f"{case}.{fmt}")]
        assert main(argv + list(extra)) == 0
    capsys.readouterr()
    assert _digests(out) == EXPECTED[case]


def test_golden_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    for fmt in ("csv", "json"):
        assert main(["golden", "--format", fmt, "--out", str(out / f"golden.{fmt}")]) == 1
    capsys.readouterr()
    with (out / "golden.csv").open(newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [row["name"] for row in rows if row["status"] != "pass"] == ["cohort-alerts-low"]
    assert _digests(out) == EXPECTED_GOLDEN


def test_figure_artifacts(tmp_path, capsys):
    out = tmp_path / "figures"
    assert main(["figures", "--out", str(out), "--runs", "5000", "--seed", "0"]) == 0
    capsys.readouterr()
    assert _digests(out) == EXPECTED_FIGURES
