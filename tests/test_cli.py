"""Command line behavior: exit codes, reports, reproducibility."""

import json
from importlib import resources
from pathlib import Path

import pytest

from poisson_chaos.cli import main
from poisson_chaos.report import parse_report
from poisson_chaos.suites import suite_names


@pytest.fixture
def tiny_config(tmp_path):
    document = {
        "space": {"S1": {"a": 1.0}, "S2": {"a": 0.5, "b": 1.0},
                  "S3": {"a": 0.3, "b": 0.3, "c": 0.4}},
        "functionals": {
            "exp_s1_fifth": {"kind": "exponential", "space": "S1", "v": [0.2]},
            "exp_s2_a": {"kind": "exponential", "space": "S2", "v": [0.3, 0.7]},
            "exp_s3_mild": {"kind": "exponential", "space": "S3",
                            "v": [0.2, 0.35, 0.15]},
        },
        "mc": {"replicates": 5000, "seed": 11},
        "suites": ["laplace", "poincare"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


class TestExitCodes:
    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "laplace" in out and "fkg" in out

    def test_missing_suite_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["nosuch"]) == 2

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        assert main(["laplace", "--config", str(tmp_path / "missing.json")]) == 2

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["laplace", "--config", str(bad)]) == 2

    def test_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        document = {"space": {"S1": {"a": 1.0}},
                    "kernels": {"bad": {"space": "S1", "values": [1.0, 2.0]}}}
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["laplace", "--config", str(path)]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_u64_is_usage_error(self, seed, tiny_config, capsys):
        # -1 used to run as seed 2**64 - 1 and pass
        assert main(["laplace", "--config", str(tiny_config), "--seed", seed]) == 2
        assert "--seed must be an integer in [0, 2**64)" in capsys.readouterr().err

    def test_seed_at_the_u64_bounds_runs(self, tiny_config, capsys):
        for seed in ("0", str(2**64 - 1)):
            assert main(["laplace", "--config", str(tiny_config), "--seed", seed]) == 0

    @pytest.mark.parametrize("section, key, value", [
        ("mc", "replicates", "abc"),
        ("mc", "replicates", 2.7),
        ("mc", "replicates", True),
        ("mc", "replicates", 0),
        ("oracle", "max_states", 2.5),
        ("oracle", "tail_tol", 0.0),
        ("oracle", "tail_tol", 1.0),
        ("oracle", "tail_tol", "1e-10"),
        ("tolerances", "z", "nan"),
        ("tolerances", "z", float("nan")),
        ("tolerances", "z", -1.0),
        ("tolerances", "abs_tol", -1e-6),
        ("tolerances", "abs_tol", 10**400),
        ("tolerances", "exact_tol", float("inf")),
        ("tolerances", "exact_tol", False),
    ])
    def test_malformed_number_is_usage_error(self, section, key, value, tiny_config,
                                             tmp_path, capsys):
        document = json.loads(Path(tiny_config).read_text())
        document.setdefault(section, {})[key] = value
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["laplace", "--config", str(path)]) == 2
        assert f"error: {section}.{key} must" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, message", [
        (("mc",), 5, "'mc' must be an object"),
        (("oracle",), [], "'oracle' must be an object"),
        (("tolerances",), 1, "'tolerances' must be an object"),
        (("kernels",), 3, "'kernels' must be an object"),
        (("functionals",), [], "'functionals' must be an object"),
        (("space", "S1"), 3, "space 'S1' must map atom ids"),
        (("kernels", "k"), 3, "kernel 'k' must be an object"),
        (("functionals", "f"), 3, "functional 'f' must be an object"),
        (("suites",), "laplace", "'suites' must be a list of suite names"),
        (("suites",), ["laplace", 7], "'suites' must be a list of suite names"),
    ])
    def test_malformed_section_is_usage_error(self, path, value, message, tiny_config,
                                              tmp_path, capsys):
        # these used to end in an AttributeError traceback (exit 1), or for
        # a string of suites in "unknown suite 'l'"
        document = json.loads(Path(tiny_config).read_text())
        parent = document
        for key in path[:-1]:
            parent = parent.setdefault(key, {})
        parent[path[-1]] = value
        config = tmp_path / "sections.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        assert main(["laplace", "--config", str(config)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_integer_tolerances_run(self, tiny_config, tmp_path, capsys):
        document = json.loads(Path(tiny_config).read_text())
        document["tolerances"] = {"z": 4, "abs_tol": 0, "exact_tol": 0}
        path = tmp_path / "integers.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["laplace", "--config", str(path)]) == 0

    def test_passing_suite_exits_zero(self, tiny_config, capsys):
        assert main(["laplace", "--config", str(tiny_config)]) == 0

    def test_failing_case_exits_one(self, tiny_config, tmp_path, capsys):
        # an impossibly tight policy turns sampled agreement into failure
        document = json.loads(Path(tiny_config).read_text())
        document["tolerances"] = {"z": 1e-12, "abs_tol": 0.0, "exact_tol": 0.0}
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["laplace", "--config", str(path)]) == 1


def packaged_config(tmp_path, edit):
    """The packaged configuration after ``edit(document)``, as a file."""
    document = json.loads((resources.files("poisson_chaos") / "data" / "default.json")
                          .read_text(encoding="utf-8"))
    edit(document)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def drop_exponentials(document, space=None):
    document["functionals"] = {
        name: f for name, f in document["functionals"].items()
        if f["kind"] not in ("exponential", "linear_combo")
        or (space is not None and f["space"] != space)}


def one_atom_s2(document):
    """``S2`` cut to one atom, and its pool entries dropped."""
    document["space"]["S2"] = {"a": 0.5}
    for pool in ("functionals", "kernels"):
        document[pool] = {name: entry for name, entry in document[pool].items()
                          if entry["space"] != "S2"}


def three_atom_s2(document):
    """``S2`` with a third atom, and its pool entries extended to it."""
    document["space"]["S2"]["c"] = 0.25
    for entry in document["kernels"].values():
        if entry["space"] == "S2":
            values = entry["values"]
            if isinstance(values[0], list):  # symmetric pair kernel
                entry["values"] = [row + [0.1] for row in values] + [[0.1] * len(values) + [0.3]]
            else:
                entry["values"] = values + [values[-1] + 0.5]
    for entry in document["functionals"].values():
        if entry["space"] != "S2":
            continue
        if entry["kind"] == "exponential":
            entry["v"] = entry["v"] + [0.4]
        elif entry["kind"] == "linear_combo":
            entry["terms"] = [[c, v + [0.1]] for c, v in entry["terms"]]
        else:
            entry["terms"] = [[c, powers + [0]] for c, powers in entry["terms"]]


@pytest.mark.parametrize("suite", suite_names())
def test_three_atom_s2_runs_or_stops_by_name(suite, tmp_path, capsys):
    # mehler used to end in a traceback (exit 1): it read S2 as two atoms
    path = packaged_config(tmp_path, three_atom_s2)
    assert main([suite, "--config", str(path), "--replicates", "20000"]) in (0, 2)


class TestMissingPoolEntry:
    """A suite whose pool lacks the entry it reads stops with exit 2 and
    names itself and the space; it used to drop, swap or vacuously pass
    the cases that read the entry."""

    @pytest.mark.parametrize("suite", ["mehler", "mecke", "poincare", "ou_operators",
                                       "duality", "covariance"])
    def test_no_s2_exponential_names_suite_and_space(self, suite, tmp_path, capsys):
        path = packaged_config(tmp_path, lambda d: drop_exponentials(d, "S2"))
        assert main([suite, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: suite {suite!r} needs an exponential functional on space 'S2'" in err

    @pytest.mark.parametrize("suite", ["laplace", "fock_isometry", "chaos_reconstruction"])
    def test_no_exponential_is_usage_error(self, suite, tmp_path, capsys):
        path = packaged_config(tmp_path, drop_exponentials)
        assert main([suite, "--config", str(path)]) == 2
        assert f"error: suite {suite!r} needs an exponential functional" in capsys.readouterr().err

    def test_one_atom_s2_stops_fkg(self, tmp_path, capsys):
        path = packaged_config(tmp_path, one_atom_s2)
        assert main(["fkg", "--config", str(path)]) == 2
        assert "error: suite 'fkg' needs at least 2 atoms on space 'S2'" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["mehler", "malliavin_derivative"])
    def test_one_atom_s2_stops_at_build(self, suite, tmp_path, capsys):
        # mehler used to end in a traceback (exit 1) and malliavin_derivative
        # in an ERROR row, both from reading a second atom of S2
        path = packaged_config(tmp_path, one_atom_s2)
        assert main([suite, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: suite {suite!r} needs at least 2 atoms on space 'S2'" in err


class TestReports:
    def test_byte_identical_reruns(self, tiny_config, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["poincare", "--config", str(tiny_config),
                "--seed", "7", "--replicates", "1000"]
        assert main(args + ["--report", str(a)]) == 0
        assert main(args + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_sampled_rows(self, tiny_config, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["laplace", "--config", str(tiny_config), "--replicates", "2000"]
        main(base + ["--seed", "1", "--report", str(a)])
        main(base + ["--seed", "2", "--report", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_round_trip_and_verdict_consistency(self, tiny_config, tmp_path, capsys):
        for fmt in ("csv", "jsonl"):
            path = tmp_path / f"report.{fmt}"
            main(["laplace", "--config", str(tiny_config),
                  "--report", str(path), "--format", fmt])
            rows = parse_report(path.read_text(encoding="utf-8"), fmt)
            assert rows
            for row in rows:
                recomputed = "PASS" if row["abs_diff"] <= row["tolerance"] else "FAIL"
                assert row["verdict"] == recomputed
                assert row["suite"] == "laplace"

    def test_timing_defaults_to_zero_in_files(self, tiny_config, tmp_path, capsys):
        path = tmp_path / "report.csv"
        main(["laplace", "--config", str(tiny_config), "--report", str(path)])
        rows = parse_report(path.read_text(encoding="utf-8"), "csv")
        assert all(row["wall_time_ms"] == 0 for row in rows)

    def test_report_header_matches_schema(self, tiny_config, tmp_path, capsys):
        path = tmp_path / "report.csv"
        main(["laplace", "--config", str(tiny_config), "--report", str(path)])
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == ("suite,case_id,lhs,rhs,se_combined,abs_diff,"
                          "tolerance,verdict,replicates,seed,wall_time_ms")

    def test_default_config_by_name(self, tmp_path, capsys):
        # the literal name selects the packaged configuration
        path = tmp_path / "report.csv"
        code = main(["product_formula", "--config", "default",
                     "--report", str(path)])
        assert code == 0 and path.exists()

    def test_thread_env_does_not_change_rows(self, tiny_config, tmp_path,
                                             monkeypatch, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["laplace", "--config", str(tiny_config), "--replicates", "40000"]
        monkeypatch.setenv("POISSON_CHAOS_THREADS", "1")
        main(args + ["--report", str(a)])
        monkeypatch.setenv("POISSON_CHAOS_THREADS", "4")
        main(args + ["--report", str(b)])
        assert a.read_bytes() == b.read_bytes()
