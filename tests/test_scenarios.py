"""Scenario configs, CLI exit codes, manifests, reproducibility."""

import argparse
import copy
import csv
import hashlib
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from screenlimits import __version__, cli
from screenlimits.cli import build_parser, main
from screenlimits.errors import SchemaError
from screenlimits.scenarios import SCENARIO_KINDS, Scenario, execute, load_scenario, run_scenario

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
        "command, params",
        [
            ("tail", {"lambda": 1e16, "m": 10000000100000000}),
            ("simulate", {**VALID["simulate"]["parameters"], "k": 1e300}),
        ],
        ids=["log-poisson-series", "binomial-sum"],
    )
    def test_tail_term_limit_is_four(self, command, params, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": command, "parameters": params})
        assert main([command, "--config", cfg]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error[budget]:")

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


# One numeric parameter of a valid config gets one of these values.
FUZZ_VALUES = (0, -1, 1e-300, 1e300, 10**300, 0.5, 2)


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


@settings(
    max_examples=400,
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

    def test_quick_determinism(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert main(["figures", "--out", str(dir_a), "--runs", "1"]) == 0
        assert main(["figures", "--out", str(dir_b), "--runs", "1", "--workers", "4"]) == 0
        capsys.readouterr()
        for name in ("panel_a.csv", "panel_b.csv", "panel_c.csv", "panel_d.csv", "manifest.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
