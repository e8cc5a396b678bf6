"""Scenario configs, CLI exit codes, manifests, reproducibility."""

import argparse
import copy
import csv
import hashlib
import json
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from screenlimits import __version__, cli
from screenlimits.cli import build_parser, main
from screenlimits.errors import SchemaError
from screenlimits.scenarios import SCENARIO_KINDS, Scenario, execute, load_scenario, run_scenario
from test_tails import mp_log_poisson_tail_by_quadrature

VALID = {
    "tail": {"kind": "tail", "parameters": {"lambda": 5.0, "m": 15}},
    "system": {
        "kind": "system",
        "parameters": {"k": 1000, "p": 0.005, "n": 10**6, "m": 15},
    },
    "phase": {
        "kind": "phase",
        "parameters": {"lambdas": [25.0, 100.0], "c": 1.5, "alpha": 1.0},
    },
    "lifetime": {
        "kind": "lifetime",
        "parameters": {"k0": 100.0, "gamma": 1.5, "p": 0.01, "m": 20, "n": 10**6},
    },
    "cohort": {
        "kind": "cohort",
        "parameters": {
            "groups": [
                {"label": "low", "n": 10**5, "p": 0.005},
                {"label": "high", "n": 10**5, "p": 0.02},
            ],
            "k": 100,
            "m": 3,
        },
    },
    "bayes": {
        "kind": "bayes",
        "parameters": {"r": 10.0, "s": 0.9, "alpha": 0.5, "q": 2.26e-4, "n": 10**6},
    },
    "effdim": {
        "kind": "effdim",
        "parameters": {"k": 10000, "p": 0.005, "c": 1.5, "k_eff": 64.0},
    },
    "simulate": {
        "kind": "simulate",
        "parameters": {
            "target": "person",
            "k": 20,
            "p": 0.3,
            "m": 5,
            "runs": 2000,
            "seed": 7,
            "mode": "binomial-exact",
        },
    },
}

SUBCOMMAND = {kind: ("phase-scan" if kind == "phase" else kind) for kind in VALID}

CORRELATED = {
    "kind": "simulate",
    "parameters": {
        **VALID["simulate"]["parameters"],
        "target": "correlated",
        "mode": "copula-correlated",
        "correlation": {"kind": "ar1", "rho": 0.3},
    },
}

# (subcommand, valid document, path to one numeric slot in its parameters)
NUMERIC_SLOTS = {
    "number": ("tail", VALID["tail"], ("lambda",)),
    "integer": ("system", VALID["system"], ("k",)),
    "integer-runs": ("simulate", VALID["simulate"], ("runs",)),
    "group-p": ("cohort", VALID["cohort"], ("groups", 0, "p")),
    "correlation-rho": ("simulate", CORRELATED, ("correlation", "rho")),
}


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID["tail"])
        assert main(["tail", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# scenario: tail")

    def test_threshold_one_past_a_huge_mean_is_zero(self, tmp_path, capsys):
        # m / lam rounds to 1.0 at lam = 5e16, m = lam + 1, but m > lam: a real sandwich
        params = {"k": 10**17, "p": 0.5, "n": 1, "m": 5 * 10**16 + 1}
        cfg = write_config(tmp_path, {"kind": "system", "parameters": params})
        assert main(["system", "--config", cfg]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        (row,) = csv.DictReader(lines)
        assert 0.0 < float(row["lower"]) <= float(row["prob"]) <= float(row["upper"])

    def test_ratio_at_a_tiny_mean_uses_threshold_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "tail", "parameters": {"lambda": 1e-12, "c": 2.0}})
        assert main(["tail", "--config", cfg, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (row,) = [dict(zip(doc["columns"], values)) for values in doc["rows"]]
        assert row["m"] == 1
        assert row["exact"] == pytest.approx(1e-12, rel=1e-9)

    def test_schema_error_is_two(self, tmp_path, capsys):
        doc = {"kind": "tail", "parameters": {"lambda": 5.0, "m": 15, "bogus": 1}}
        cfg = write_config(tmp_path, doc)
        assert main(["tail", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error[schema]:")

    def test_domain_error_is_three(self, tmp_path, capsys):
        doc = {"kind": "tail", "parameters": {"lambda": -5.0, "m": 15}}
        cfg = write_config(tmp_path, doc)
        assert main(["tail", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith("error[domain]:")

    def test_budget_error_is_four(self, tmp_path, capsys):
        doc = {
            "kind": "simulate",
            "parameters": {
                "target": "system",
                "k": 100,
                "p": 0.01,
                "m": 5,
                "n": 10**6,
                "runs": 10**6,
                "seed": 0,
                "mode": "binomial-exact",
            },
        }
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 4
        assert capsys.readouterr().err.startswith("error[budget]:")

    def test_kind_mismatch_is_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID["tail"])
        assert main(["system", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error[schema]:")

    def test_missing_config_is_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["tail", "--config", missing]) == 2
        assert capsys.readouterr().err.startswith("error[schema]:")

    def test_invalid_json_is_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["tail", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error[schema]:")

    def test_unknown_top_level_key_is_two(self, tmp_path, capsys):
        doc = dict(VALID["tail"])
        doc["extra"] = True
        cfg = write_config(tmp_path, doc)
        assert main(["tail", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error[schema]:")

    def test_unknown_kind_is_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "mystery", "parameters": {}})
        assert main(["tail", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error[schema]:")

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xff\xfe{}",
            b"[" * 100_000,
            b'{"kind": "tail", "parameters": {"lambda": 1%s, "m": 15}}' % (b"0" * 5000),
            b'{"kind": "tail", "name": "a\\ud800", "parameters": {"lambda": 5.0, "m": 15}}',
        ],
        ids=["not-utf8", "too-deep", "digit-limit", "lone-surrogate"],
    )
    @pytest.mark.parametrize("out", [None, "tail.csv"], ids=["stdout", "file"])
    def test_unloadable_config_is_two(self, raw, out, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_bytes(raw)
        argv = ["tail", "--config", str(cfg)]
        if out:
            argv += ["--out", str(tmp_path / out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error[schema]: invalid JSON in {cfg}: ")
        assert not (tmp_path / "tail.csv").exists()

    def test_paired_surrogate_escape_loads(self, tmp_path, capsys):
        doc = {"kind": "tail", "name": "\U0001f600", "parameters": {"lambda": 5.0, "m": 15}}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert "\\ud83d\\ude00" in cfg.read_text(encoding="utf-8")
        assert main(["tail", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("# scenario: \U0001f600\n")

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400"])
    @pytest.mark.parametrize("slot", sorted(NUMERIC_SLOTS))
    def test_non_finite_number_is_two(self, slot, literal, tmp_path, capsys):
        command, doc, path = NUMERIC_SLOTS[slot]
        doc = copy.deepcopy(doc)
        node = doc["parameters"]
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = "@"
        # json.dumps cannot write 1e400, so the literal goes in as raw text
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc).replace('"@"', literal), encoding="utf-8")
        assert main([command, "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error[schema]:")

    @pytest.mark.parametrize(
        "command, params",
        [
            ("tail", {"lambda": 1e308, "c": 10}),
            ("system", {"k": 1000, "p": 0.5, "n": 10, "c": 1e306}),
        ],
    )
    def test_threshold_overflow_is_three(self, command, params, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": command, "parameters": params})
        assert main([command, "--config", cfg]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error[domain]:")

    def test_cohort_mass_overflow_is_three(self, tmp_path, capsys):
        # each group expects 1e308 alerts; their sum is inf and every share would read 0.0
        groups = [{"label": label, "n": 10**308, "p": 0.5} for label in ("a", "b")]
        params = {"groups": groups, "k": 100, "m": 1}
        cfg = write_config(tmp_path, {"kind": "cohort", "parameters": params})
        assert main(["cohort", "--config", cfg, "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error[domain]: cohort total mass overflows a double at k=100, m=1"
        ]

    @pytest.mark.parametrize(
        "command, params",
        [
            ("bayes", {**VALID["bayes"]["parameters"], "q": 5e-324}),
            ("bayes", {**VALID["bayes"]["parameters"], "q": 1e-320}),
            ("tail", {"lambda": 5e-324, "m": 15}),
        ],
        ids=["bayes-q-underflows", "bayes-n-crit-inf", "tail-ratio-inf"],
    )
    def test_subnormal_input_is_three(self, command, params, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": command, "parameters": params})
        assert main([command, "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error[domain]:")

    def test_subnormal_p_bounds_are_numbers(self, tmp_path, capsys):
        doc = {"kind": "system", "parameters": {**VALID["system"]["parameters"], "p": 5e-324}}
        cfg = write_config(tmp_path, doc)
        assert main(["system", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        header, row = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        assert dict(zip(header, row))["lower"] == "0.0"

    def test_retired_mode_is_three(self, tmp_path, capsys):
        params = {**VALID["simulate"]["parameters"], "mode": "analytic-composite"}
        cfg = write_config(tmp_path, {"kind": "simulate", "parameters": params})
        assert main(["simulate", "--config", cfg]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error[domain]: mode must be one of")

    @pytest.mark.parametrize(
        "params",
        [
            {"k": 1e300, "p": 0.01, "c": 2.0, "k_eff": 10.0},
            {"k": 1000, "p": 0.01, "c": 1e300, "k_eff": 10.0},
            {"k": 1000, "p": 0.01, "c": 2.0, "area": 1e6, "xi": 1e300},
        ],
        ids=["huge-k", "huge-c", "huge-xi"],
    )
    def test_effdim_overflow_is_three(self, params, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "effdim", "parameters": params})
        assert main(["effdim", "--config", cfg]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error[domain]:")

    @pytest.mark.parametrize(
        "command, params, code",
        [
            # inputs a per-term tail loop cannot finish within 1e7 terms
            ("tail", {"lambda": 1e16, "m": 10000000100000000}, 0),
            # the tail is 1.0; numpy's binomial sampler cannot take k
            ("simulate", {**VALID["simulate"]["parameters"], "k": 1e300}, 3),
        ],
        ids=["log-poisson-series", "binomial-sum"],
    )
    def test_former_term_limits_end_quickly(self, command, params, code, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": command, "parameters": params})
        start = time.perf_counter()
        assert main([command, "--config", cfg]) == code
        assert time.perf_counter() - start < 1.0
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error[")]
        assert len(errors) == (code != 0)
        if code:
            assert errors[0].startswith("error[domain]:")

    @pytest.mark.parametrize(
        "lam, m",
        [
            (5e16, 50000000000000001),
            (1e40, int(1e40) - 2**78),
            (1e40, int(1e40) + 2**78),
            (1e18, int(1.4e18) + 100),
        ],
        ids=["5e16+1", "1e40-2^78", "1e40+2^78", "1.4e18+100"],
    )
    def test_tail_at_a_threshold_no_double_holds(self, lam, m, tmp_path, capsys):
        # the ulp of m is from 8 to ~3000 standard deviations: q is ~0.5, 1,
        # e^-4.6e6 and e^-7.1e16
        cfg = write_config(tmp_path, {"kind": "tail", "parameters": {"lambda": lam, "m": m}})
        start = time.perf_counter()
        assert main(["tail", "--config", cfg]) == 0
        assert time.perf_counter() - start < 1.0
        lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        row = next(csv.DictReader(lines))
        assert 0.0 <= float(row["exact"]) <= 1.0
        want = float(mp_log_poisson_tail_by_quadrature(lam, m))
        assert abs(float(row["log_exact"]) - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "params",
        [
            {"target": "system", "mode": "poisson-approx", "n": 1e300},
            {"target": "system", "mode": "poisson-approx", "n": 1e300, "p": 1e-310},
            {"target": "person", "mode": "poisson-approx", "k": 1e300},
        ],
        ids=["binomial-size", "binomial-size-tiny-q", "poisson-mean"],
    )
    def test_sampler_limit_is_three(self, params, tmp_path, capsys):
        doc = {"kind": "simulate", "parameters": {**VALID["simulate"]["parameters"], **params}}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error[domain]:")

    @pytest.mark.parametrize(
        "params, code",
        [
            # the critical population of the independent case overflows
            ({"k": 1e300, "p": 0.01, "c": 2.0, "tau": 5}, 3),
            ({"k": 1e8, "p": 0.01, "c": 2.0, "tau": 5}, 3),
            ({"k": 1e300, "p": 1e-300, "c": 2.0, "tau": 5}, 0),
            ({"k": 1e8, "p": 1e-9, "c": 2.0, "tau": 5}, 0),
            ({"k": 1e300, "p": 0.01, "c": 2.0, "tau": 1e300}, 4),
        ],
        ids=["huge-k", "k-1e8", "huge-k-small-p", "k-1e8-small-p", "huge-tau"],
    )
    def test_temporal_sum_ends_quickly(self, params, code, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "effdim", "parameters": params})
        start = time.perf_counter()
        assert main(["effdim", "--config", cfg]) == code
        assert time.perf_counter() - start < 1.0
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error[")]
        assert len(errors) == (code != 0)
        if code:
            assert errors[0].startswith({3: "error[domain]:", 4: "error[budget]:"}[code])

    @pytest.mark.parametrize(
        "command, out, reason",
        [
            ("tail", "dir", "not a regular file"),
            ("golden", "dir", "not a regular file"),
            ("tail", "file/x.csv", "File exists"),
            ("figures", "file", "File exists"),
            ("tail", "null", "not a regular file"),
        ],
        ids=[
            "tail-into-dir",
            "golden-into-dir",
            "tail-below-file",
            "figures-into-file",
            "tail-into-device",
        ],
    )
    def test_unwritable_out_is_two(self, command, out, reason, tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("keep\n", encoding="utf-8")
        # a device target without writing under /dev: the manifest would land
        # beside the link
        (tmp_path / "null").symlink_to(os.devnull)
        argv = [command, "--out", str(tmp_path / out)]
        if command == "tail":
            argv += ["--config", write_config(tmp_path, VALID["tail"])]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error[schema]: cannot write ")
        assert lines[0].endswith(reason)
        assert (tmp_path / "file").read_text(encoding="utf-8") == "keep\n"
        assert not list(tmp_path.glob("*.manifest.json"))


# One numeric parameter of a valid config gets one of these values.
FUZZ_VALUES = (0, -1, 1e-300, 5e-324, 1e300, 10**300, 0.5, 2)


def _numeric_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _numeric_paths(value, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


POISSON_PERSON = {
    "kind": "simulate",
    "parameters": {**VALID["simulate"]["parameters"], "mode": "poisson-approx"},
}
POISSON_SYSTEM = {
    "kind": "simulate",
    "parameters": {
        **VALID["simulate"]["parameters"],
        "target": "system",
        "mode": "poisson-approx",
        "n": 50,
    },
}
FUZZ_DOCS = [(SUBCOMMAND[kind], VALID[kind]) for kind in sorted(VALID)] + [
    ("simulate", doc) for doc in (CORRELATED, POISSON_PERSON, POISSON_SYSTEM)
]
FUZZ_SLOTS = [
    (command, doc, path) for command, doc in FUZZ_DOCS for path in _numeric_paths(doc["parameters"])
]


# Every (slot, value) pair, 52 x 8: hypothesis draws no pair twice, so this
# many examples reach each of them.
@settings(
    max_examples=len(FUZZ_SLOTS) * len(FUZZ_VALUES),
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(slot=st.sampled_from(FUZZ_SLOTS), value=st.sampled_from(FUZZ_VALUES))
def test_one_bad_number_ends_in_a_known_exit(slot, value, tmp_path, capsys):
    command, doc, path = slot
    doc = copy.deepcopy(doc)
    node = doc["parameters"]
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    cfg = write_config(tmp_path, doc)
    code = main([command, "--config", cfg])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error[")]
    assert code in (0, 2, 3, 4)
    assert len(errors) == (code != 0)


def test_subcommands_follow_kind_table():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(SCENARIO_KINDS) == sorted(VALID)
    assert set(sub.choices) == set(SUBCOMMAND.values()) | {"figures", "golden"}


class TestAllKindsRun:
    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_csv_route(self, kind, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID[kind])
        assert main([SUBCOMMAND[kind], "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"# scenario: {kind}")
        assert "# kind: " in out

    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_json_route(self, kind, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID[kind])
        assert main([SUBCOMMAND[kind], "--config", cfg, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == kind
        assert doc["columns"]
        assert doc["rows"]


# q = Pr(Pois(5) >= 400) underflows to 0.0
UNDERFLOWED = {
    "system": {"kind": "system", "parameters": {"k": 1000, "p": 0.005, "n": 10**6, "m": 400}},
    "cohort": {
        "kind": "cohort",
        "parameters": {"groups": [{"label": "all", "n": 10**6, "p": 0.005}], "k": 1000, "m": 400},
    },
}


class TestZeros:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind", sorted(UNDERFLOWED))
    def test_an_underflowed_tail_writes_no_negative_zero(self, kind, fmt, tmp_path, capsys):
        cfg = write_config(tmp_path, UNDERFLOWED[kind])
        assert main([kind, "--config", cfg, "--format", fmt]) == 0
        assert "-0.0" not in capsys.readouterr().out

    def test_one_group_cohort_writes_other_mass_as_a_float(self, tmp_path, capsys):
        doc = copy.deepcopy(VALID["cohort"])
        del doc["parameters"]["groups"][1]
        cfg = write_config(tmp_path, doc)
        assert main(["cohort", "--config", cfg]) == 0
        assert "# other_mass = 0.0\n" in capsys.readouterr().out
        assert main(["cohort", "--config", cfg, "--format", "json"]) == 0
        other = json.loads(capsys.readouterr().out)["summary"]["other_mass"]
        assert type(other) is float and other == 0.0


class TestSchemaValidation:
    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_extra_parameter_rejected(self, kind):
        params = dict(VALID[kind]["parameters"])
        params["zzz_extra"] = 1
        with pytest.raises(SchemaError):
            execute(Scenario(name="x", kind=kind, parameters=params))

    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_missing_parameter_rejected(self, kind):
        params = dict(VALID[kind]["parameters"])
        params.pop(sorted(params)[0])
        with pytest.raises(SchemaError):
            execute(Scenario(name="x", kind=kind, parameters=params))

    def test_type_errors_are_schema_errors(self):
        with pytest.raises(SchemaError):
            execute(Scenario(name="x", kind="tail", parameters={"lambda": "five", "m": 15}))
        with pytest.raises(SchemaError):
            execute(Scenario(name="x", kind="tail", parameters={"lambda": 5.0, "m": 1.5}))
        with pytest.raises(SchemaError):
            execute(Scenario(name="x", kind="tail", parameters={"lambda": True, "m": 15}))

    def test_exactly_one_of_m_or_c(self):
        with pytest.raises(SchemaError):
            execute(Scenario(name="x", kind="tail", parameters={"lambda": 5.0}))
        with pytest.raises(SchemaError):
            execute(
                Scenario(
                    name="x", kind="tail", parameters={"lambda": 5.0, "m": 15, "c": 3.0}
                )
            )

    def test_correlation_only_for_correlated_target(self):
        params = dict(VALID["simulate"]["parameters"])
        params["correlation"] = {"kind": "exchangeable", "rho": 0.3}
        with pytest.raises(SchemaError):
            execute(Scenario(name="x", kind="simulate", parameters=params))

    def test_correlated_target_requires_correlation(self):
        params = dict(VALID["simulate"]["parameters"])
        params["target"] = "correlated"
        params["mode"] = "copula-correlated"
        with pytest.raises(SchemaError):
            execute(Scenario(name="x", kind="simulate", parameters=params))

    def test_load_scenario_defaults_name_to_kind(self, tmp_path):
        cfg = write_config(tmp_path, VALID["tail"])
        assert load_scenario(cfg).name == "tail"


class TestManifests:
    def test_manifest_matches_output(self, tmp_path):
        cfg = write_config(tmp_path, VALID["tail"])
        out = tmp_path / "tail.csv"
        assert main(["tail", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "tail.csv.manifest.json").read_text())
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["sha256"] == digest
        assert manifest["output"] == "tail.csv"
        assert manifest["artifact_version"] == __version__
        assert manifest["kind"] == "tail"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, VALID["simulate"])
        out_a = tmp_path / "a" / "run.csv"
        out_b = tmp_path / "b" / "run.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        man_a = json.loads((out_a.parent / "run.csv.manifest.json").read_text())
        man_b = json.loads((out_b.parent / "run.csv.manifest.json").read_text())
        assert man_a == man_b

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_files_are_byte_identical_across_workers(self, fmt, tmp_path):
        cfg = write_config(tmp_path, VALID["simulate"])
        outs = [tmp_path / str(w) / f"run.{fmt}" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            args = ["--out", str(out), "--format", fmt, "--workers", str(w)]
            assert main(["simulate", "--config", cfg, *args]) == 0
        for name in (f"run.{fmt}", f"run.{fmt}.manifest.json"):
            assert (outs[0].parent / name).read_bytes() == (outs[1].parent / name).read_bytes(), name
        manifest = json.loads((outs[0].parent / f"run.{fmt}.manifest.json").read_text())
        assert "workers" not in manifest["parameters"]

    def test_simulate_manifest_records_seed(self, tmp_path):
        cfg = write_config(tmp_path, VALID["simulate"])
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["parameters"]["runs"] == 2000

    def test_run_scenario_returns_written_manifest(self, tmp_path):
        scenario = Scenario(name="t", kind="tail", parameters={"lambda": 5.0, "m": 15})
        out = tmp_path / "t.csv"
        text, manifest = run_scenario(scenario, out, "csv")
        assert out.read_text() == text
        assert manifest == json.loads((tmp_path / "t.csv.manifest.json").read_text())

    def test_no_manifest_without_out(self):
        scenario = Scenario(name="t", kind="tail", parameters={"lambda": 5.0, "m": 15})
        text, manifest = run_scenario(scenario, None, "csv")
        assert manifest is None
        assert text.startswith("# scenario: t")


class TestOverrides:
    def test_simulate_runs_and_seed_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID["simulate"])
        code = main(
            [
                "simulate",
                "--config",
                cfg,
                "--format",
                "json",
                "--runs",
                "500",
                "--seed",
                "9",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parameters"]["runs"] == 500
        assert doc["parameters"]["seed"] == 9

    def test_lifetime_criterion_level_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID["lifetime"])
        cols = None
        roots = {}
        for level in ("1.0", "0.01"):
            code = main(
                [
                    "lifetime",
                    "--config",
                    cfg,
                    "--format",
                    "json",
                    "--criterion-level",
                    level,
                ]
            )
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            cols = doc["columns"]
            roots[level] = doc["rows"][0][cols.index("t_star_corrected")]
        assert roots["0.01"] < roots["1.0"]


def _csv_row(text):
    """The single data row of a one-row scenario CSV, keyed by column."""
    (row,) = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    return row


TOP_USAGE = [
    "usage: screenlimits [-h]",
    "                    {tail,system,phase-scan,lifetime,cohort,bayes,effdim,simulate,figures,golden}",
    "                    ...",
]


class TestSharedParser:
    def test_main_builds_one_parser_per_process(self, tmp_path, monkeypatch, capsys):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cfg = write_config(tmp_path, VALID["tail"])
        for _ in range(20):
            assert cli.main(["tail", "--config", cfg]) == 0
        assert len(built) == 1

    def test_override_does_not_carry_to_next_call(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID["simulate"])
        assert main(["simulate", "--config", cfg, "--runs", "10"]) == 0
        assert _csv_row(capsys.readouterr().out)["runs"] == "10"
        assert main(["simulate", "--config", cfg]) == 0
        assert _csv_row(capsys.readouterr().out)["runs"] == "2000"

    def test_usage_error_and_help_leave_next_call_unchanged(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID["tail"])
        out = tmp_path / "tail.csv"

        def outputs():
            assert main(["tail", "--config", cfg]) == 0
            stdout = capsys.readouterr().out
            assert main(["tail", "--config", cfg, "--out", str(out)]) == 0
            assert capsys.readouterr().out == ""
            manifest = (tmp_path / "tail.csv.manifest.json").read_bytes()
            return stdout, out.read_bytes(), manifest

        before = outputs()
        with pytest.raises(SystemExit) as usage:
            main(["tail", "--config", cfg, "--bogus"])
        assert usage.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        with pytest.raises(SystemExit) as shown:
            main(["--help"])
        assert shown.value.code == 0
        assert capsys.readouterr().out.startswith("usage: screenlimits")
        assert outputs() == before

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (
                ["tail", "--config", "x", "--bogus"],
                [*TOP_USAGE, "screenlimits: error: unrecognized arguments: --bogus"],
            ),
            (
                ["tail", "--format", "xml"],
                [
                    "usage: screenlimits tail [-h] --config CONFIG [--out OUT]",
                    "                         [--format {csv,json}]",
                    "screenlimits tail: error: argument --format: invalid choice: 'xml'"
                    " (choose from 'csv', 'json')",
                ],
            ),
            (
                ["simulate", "--runs", "abc"],
                [
                    "usage: screenlimits simulate [-h] --config CONFIG [--out OUT]",
                    "                             [--format {csv,json}] [--runs RUNS] [--seed SEED]",
                    "                             [--workers WORKERS]",
                    "screenlimits simulate: error: argument --runs: invalid int value: 'abc'",
                ],
            ),
            (
                ["bogus"],
                [
                    *TOP_USAGE,
                    "screenlimits: error: argument command: invalid choice: 'bogus' (choose from"
                    " 'tail', 'system', 'phase-scan', 'lifetime', 'cohort', 'bayes', 'effdim',"
                    " 'simulate', 'figures', 'golden')",
                ],
            ),
        ],
        ids=["unrecognized", "bad-format", "bad-runs", "unknown-command"],
    )
    def test_usage_errors_are_argparse_own(self, argv, lines, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "\n".join(lines) + "\n"

    def test_main_without_argv_reads_sys_argv(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, VALID["tail"])
        monkeypatch.setattr("sys.argv", ["screenlimits", "tail", "--config", cfg, "--format", "json"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "tail"

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


class TestGoldenCommand:
    def test_default_run_flags_known_miss(self, capsys):
        assert main(["golden"]) == 1
        out = capsys.readouterr().out
        fail_lines = [line for line in out.splitlines() if " FAIL" in line]
        assert len(fail_lines) == 1
        assert "cohort-alerts-low" in fail_lines[0]

    def test_widened_tolerances_pass(self, capsys):
        assert main(["golden", "--tol-scale", "10"]) == 0
        capsys.readouterr()

    def test_collapsed_tolerances_fail_widely(self, capsys):
        assert main(["golden", "--tol-scale", "1e-9"]) == 1
        out = capsys.readouterr().out
        fail_lines = [line for line in out.splitlines() if " FAIL" in line]
        assert len(fail_lines) > 5

    @pytest.mark.parametrize("scale", ["nan", "-1", "inf", "-inf", "-0.0001"])
    def test_tolerance_scale_outside_its_range_is_a_domain_error(self, scale, tmp_path, capsys):
        out = tmp_path / "golden.csv"
        assert main(["golden", f"--tol-scale={scale}", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[domain]: tol_scale")
        assert list(tmp_path.iterdir()) == []

    def test_zero_tolerance_scale_compares_exactly(self, capsys):
        assert main(["golden", "--tol-scale", "0"]) == 1
        out = capsys.readouterr().out
        assert "tail-q-lam5-m15" in [line.split()[0] for line in out.splitlines() if " FAIL" in line]

    def test_file_output_with_manifest(self, tmp_path, capsys):
        out = tmp_path / "golden.csv"
        assert main(["golden", "--out", str(out)]) == 1
        capsys.readouterr()
        manifest = json.loads((tmp_path / "golden.csv.manifest.json").read_text())
        assert manifest["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
        body = out.read_text()
        assert "cohort-alerts-low" in body


class TestFiguresCommand:
    def test_quick_emission_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        code = main(
            ["figures", "--out", str(out_dir), "--runs", "1", "--seed", "0"]
        )
        assert code == 0
        capsys.readouterr()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["runs"] == 1
        assert manifest["seed"] == 0
        for name, digest in manifest["files"].items():
            actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            assert actual == digest, name

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_a_domain_error(self, seed, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        assert main(["figures", "--out", str(out_dir), "--runs", "1", f"--seed={seed}"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[domain]: seed")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "args, code, error",
        [
            (["--runs", "0"], 3, "error[domain]: runs"),
            (["--workers", "0"], 3, "error[domain]: workers"),
            (["--runs", "3000000"], 4, "error[budget]: exact mode"),
        ],
    )
    def test_bad_runs_or_workers_leave_no_directory(self, args, code, error, tmp_path, capsys):
        out_dir = tmp_path / "new" / "x"
        assert main(["figures", "--out", str(out_dir), *args]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(error)
        assert not (tmp_path / "new").exists()

    def test_largest_seed_is_valid(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        assert main(["figures", "--out", str(out_dir), "--runs", "1", "--seed", str(2**64 - 1)]) == 0
        capsys.readouterr()
        assert json.loads((out_dir / "manifest.json").read_text())["seed"] == 2**64 - 1

    def test_quick_determinism(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert main(["figures", "--out", str(dir_a), "--runs", "1"]) == 0
        assert main(["figures", "--out", str(dir_b), "--runs", "1", "--workers", "4"]) == 0
        capsys.readouterr()
        for name in ("panel_a.csv", "panel_b.csv", "panel_c.csv", "panel_d.csv", "manifest.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
