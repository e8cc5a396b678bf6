"""Frozen sha256 of the files the CLI writes.

Every `--out` artifact of each scenario kind (CSV and JSON, each with its
`<name>.manifest.json`), of `golden` and of `figures --runs 5000 --seed 0`
is pinned by hash, so a refactor of the scenario, rendering or manifest code
must leave every byte unchanged. Each set is also written over stale files,
longer and shorter than every artifact, and must come out the same. Some
configs take a second branch of their kind (a ratio threshold, a threshold
below the mean, an analytic-only lifetime, each effective-dimension source,
each simulation target, and each of numpy's binomial samplers: inversion,
BTPE past a mean of 30, and the p > 0.5 reflection).

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
        "simulate.csv": "41b1926d42cb472a32c13988a3aaefc4420e8d3035e49f60b0ef231917833927",
        "simulate.csv.manifest.json": "183b7085632d9641c36e8eec08a4e2574ee07f956cc1452e65bf8042355d8624",
        "simulate.json": "98e487097adef6ab9d2a90b37233914812dae1aa6e9c56ab764252029b43e690",
        "simulate.json.manifest.json": "3ab65bdbdd061fc13651c536b8a8440f18e02369c0f91e2cdb54f799871bc208",
    },
    "simulate-correlated": {
        "simulate-correlated.csv": "fa962bce509fd5a1b8158f4cc22a529de076f237d85ca3cede965d61d64ef00a",
        "simulate-correlated.csv.manifest.json": "70e7747d3dc219063bfef0c17e115ffcaf6b584cd451d18d43ae84b7f20a72f3",
        "simulate-correlated.json": "e8586d42d49916df6bdd9283be6ab7704cf2b05e00480cd661d61ca06b5bf7d9",
        "simulate-correlated.json.manifest.json": "2d085d04b9da9d18ac3c820c3e313d9aa0ba630e736338c4dc2f337628195ba6",
    },
    "simulate-person-btpe": {
        "simulate-person-btpe.csv": "85cab846bd955d7d1bf2fce7055aaf8d3c56e92eff004e24679244726dffc650",
        "simulate-person-btpe.csv.manifest.json": "f89797a837d69ef4c5e2a8346fb7256f9a48ae444c63ca0f3dc814fc417cbcc0",
        "simulate-person-btpe.json": "fbe4122ba9802c2fe536c696868fa6fb780ce1dbe424ec0643cf0d380c326071",
        "simulate-person-btpe.json.manifest.json": "f3ceea40277d98dd5229b7b42c29dec5800b511974dd22e4fa22471b16608455",
    },
    "simulate-person-high-p": {
        "simulate-person-high-p.csv": "4da8e843102318616269e07f0e5431e76a5f94785b2061c898ca8ff47bec47de",
        "simulate-person-high-p.csv.manifest.json": "4288707846076f3a663a6e019dde9620f3edf1f5cf43a9df6c6d49352f69da50",
        "simulate-person-high-p.json": "75bf77db1823821545e3bf0413d49854808d7bc56fcf0fb244547430dc47068d",
        "simulate-person-high-p.json.manifest.json": "268545ff0838987d4b081a1ef084d0cabc220f3d5e0a2fa4a1025f582bf3efdb",
    },
    "simulate-person-poisson": {
        "simulate-person-poisson.csv": "c878fd3cc183533abce6c870df16aeb3a9fb2f1fd43a43f709d6d003f7db134b",
        "simulate-person-poisson.csv.manifest.json": "1b56a1f8e75be31be62997e445e32b092944631667cd163ebafdbb3c5c95357d",
        "simulate-person-poisson.json": "6a1ec6dbf3763e0fd5529cbf48dd8815f77b3775f387fda65c7259d6ed31977b",
        "simulate-person-poisson.json.manifest.json": "88d83616af9c83047d8ce732c37d229fa840c9bf76227c136d88693ece125701",
    },
    "simulate-system": {
        "simulate-system.csv": "5fe86d850bac53686a468fd829f110a52d3592b6383c7c2b6a4d558496d3dc01",
        "simulate-system.csv.manifest.json": "eb8a82c271a706c7668443834b5c2315fc32f060eb4454f556576b0919322cb7",
        "simulate-system.json": "ff916b5530acccd79cf72f23e5b89167418782cf0f375d6e57a3c3248324e8e2",
        "simulate-system.json.manifest.json": "302ad9a003f1123c3af42178a4e29835c421314e9cb4523834b0db740d062544",
    },
    "simulate-system-exact": {
        "simulate-system-exact.csv": "0d8b8144c86b116d1c831ec89bbda2187dcfbb4e9f50039fb110ebd29cd7dcd4",
        "simulate-system-exact.csv.manifest.json": "bc4ff14840fc037ead847536c0606c1f7771db4476da78b37daf2d13753fbd50",
        "simulate-system-exact.json": "5ef31f3a982d1831bb2ed9515f48eed3ee695047e0c55832c69b9e35d64adfb0",
        "simulate-system-exact.json.manifest.json": "1a7efc8adaa06dedcfae06bb9e6264f6fa48fa362ee2d1e0e0f5d2832626ec65",
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
        "tail-ratio.csv": "108a2d6f920a3b41be5fffc133da26366314cd52ab516622ffa4493dfccd9bbf",
        "tail-ratio.csv.manifest.json": "cc144eaa8d0efd7b5c1361a40fe95912a7c116642c0e56bcbadf88332b027693",
        "tail-ratio.json": "78df4aff82876720db55462294359ec065f9667acbb54f9c328ea4a10364ab7d",
        "tail-ratio.json.manifest.json": "4294f2f07f0c345bdc925aaed1f177c71d9181d2dff761c4164052e7c0a68ce2",
    },
}

EXPECTED_GOLDEN = {
    "golden.csv": "c53eafe0b9bdbbf7c1eaf3711b5834b0d2bf61aef079ee2b95230c45439b4991",
    "golden.csv.manifest.json": "fd736874292f66b9490414055e67a016aa6ecc9304280db545aa1f2981d9b4e4",
    "golden.json": "9824596c08a42202ed99949550e5bc06397cdeae2a003cdee26dd1bd8af2125e",
    "golden.json.manifest.json": "943b3e22f4ca112e8c497667b4a8e00adfbd13d9dbc7dae09d6f6e802f337413",
}

EXPECTED_FIGURES = {
    "manifest.json": "a13d988dd2bd9dd1da297edda869779bee7eff20daf48f16f619d69e101dec28",
    "panel_a.csv": "569f586795aed0fe76eb51e40b79fcc0217b48b514d1fd48a15d41a6f6ea8f50",
    "panel_b.csv": "74ca18a17ab29ae9e73a6aa615214dadd3dbda52f6dde84346f82086c8500b6f",
    "panel_c.csv": "635b321843222d80efaa68fb79d400ac083996ec5f438a0ad6c8b78f7531b3b6",
    "panel_d.csv": "7d32d202b126d9f8bda620ed7094e14851c1cee9bc98dcdebc35cfe5d88ef57a",
}


# Junk written over every output path, manifests included, before a rerun:
# longer than any artifact (the writer must cut it) or shorter than every one.
STALE = {"longer": b"stale bytes\n" * 8192, "shorter": b"stale\n"}


def _digests(directory) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def _fill_stale(directory, names, stale):
    directory.mkdir()
    for name in names:
        (directory / name).write_bytes(STALE[stale])


def _assert_rewritten(directory, expected):
    assert _digests(directory) == expected
    sizes = [path.stat().st_size for path in directory.iterdir()]
    assert len(STALE["shorter"]) < min(sizes) and max(sizes) < len(STALE["longer"])


def _write_scenario(case, tmp_path, out):
    command, parameters, extra = CASES[case]
    config = tmp_path / "config.json"
    kind = "phase" if command == "phase-scan" else command
    config.write_text(json.dumps({"name": case, "kind": kind, "parameters": parameters}))
    for fmt in ("csv", "json"):
        argv = [command, "--config", str(config), "--format", fmt, "--out", str(out / f"{case}.{fmt}")]
        assert main(argv + list(extra)) == 0


def _write_golden(out):
    for fmt in ("csv", "json"):
        assert main(["golden", "--format", fmt, "--out", str(out / f"golden.{fmt}")]) == 1


def _write_figures(out):
    assert main(["figures", "--out", str(out), "--runs", "5000", "--seed", "0"]) == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_scenario_artifacts(case, tmp_path, capsys):
    out = tmp_path / "out"
    _write_scenario(case, tmp_path, out)
    capsys.readouterr()
    assert _digests(out) == EXPECTED[case]


@pytest.mark.parametrize("stale", sorted(STALE))
@pytest.mark.parametrize("case", sorted(CASES))
def test_scenario_artifacts_over_stale_files(case, stale, tmp_path, capsys):
    out = tmp_path / "out"
    _fill_stale(out, EXPECTED[case], stale)
    _write_scenario(case, tmp_path, out)
    capsys.readouterr()
    _assert_rewritten(out, EXPECTED[case])


def test_golden_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    _write_golden(out)
    capsys.readouterr()
    with (out / "golden.csv").open(newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [row["name"] for row in rows if row["status"] != "pass"] == ["cohort-alerts-low"]
    assert _digests(out) == EXPECTED_GOLDEN


@pytest.mark.parametrize("stale", sorted(STALE))
def test_golden_artifacts_over_stale_files(stale, tmp_path, capsys):
    out = tmp_path / "out"
    _fill_stale(out, EXPECTED_GOLDEN, stale)
    _write_golden(out)
    capsys.readouterr()
    _assert_rewritten(out, EXPECTED_GOLDEN)


def test_figure_artifacts(tmp_path, capsys):
    out = tmp_path / "figures"
    _write_figures(out)
    capsys.readouterr()
    assert _digests(out) == EXPECTED_FIGURES


@pytest.mark.parametrize("stale", sorted(STALE))
def test_figure_artifacts_over_stale_files(stale, tmp_path, capsys):
    out = tmp_path / "figures"
    _fill_stale(out, EXPECTED_FIGURES, stale)
    _write_figures(out)
    capsys.readouterr()
    _assert_rewritten(out, EXPECTED_FIGURES)
