import json
from pathlib import Path

import pytest

from ncderham.cli import ConfigError, StudyConfig, main, run_study, run_verify


def test_config_validation():
    with pytest.raises(ConfigError):
        StudyConfig(test="bogus").validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=(4, 6)).validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=(8, 4)).validate()
    with pytest.raises(ConfigError):
        StudyConfig(epsilons=(0.0,)).validate()
    with pytest.raises(ConfigError):
        StudyConfig(formats=("yaml",)).validate()
    StudyConfig(levels=(1, 2, 4), epsilons=(1e-6,)).validate()


def test_cli_config_error_exit_code(tmp_path):
    assert main(["--levels", "3,5"]) == 2
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"bogus_field": 1}))
    assert main(["--config", str(bad)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["--config", str(broken)]) == 2
    assert main(["--config", str(tmp_path / "missing.json")]) == 2
    assert main(["--quad-degree", "13"]) == 2
    assert main(["--epsilon", "abc"]) == 2
    for fields in (
        {"spd_solver": "LU"}, {"load_degree": 13}, {"quad_degree": "8"},
        {"epsilons": 1e-4},
    ):
        cfg = tmp_path / "invalid.json"
        cfg.write_text(json.dumps(fields))
        assert main(["--config", str(cfg)]) == 2


def test_run_study_writes_outputs(tmp_path):
    out = tmp_path / "results"
    code = main(
        [
            "--test", "smooth", "--method", "interp", "--epsilon", "1e-4",
            "--levels", "1,2", "--serial", "--out", str(out),
        ]
    )
    assert code == 0
    csv = (out / "study.csv").read_text()
    assert csv.splitlines()[0].startswith("test,method,epsilon,n,h,dof_phi")
    assert len(csv.splitlines()) == 3
    assert (out / "study.md").exists()
    data = json.loads((out / "study.json").read_text())
    assert data[0]["n"] == 1 and data[1]["n"] == 2
    assert data[0]["solve_seconds"] is None  # suppressed under --serial
    # each row carries its inner solves' summary, without timings
    stages = [r["stage"] for r in data[1]["krylov"]]
    assert stages[0] == "poisson_w" and stages[-1] == "poisson_u"
    # the reduced saddle route served the row
    assert {"potential", "projection", "flux"} <= set(stages)
    for record in data[1]["krylov"]:
        assert set(record) == {"stage", "sweep", "iterations", "reason"}


def test_serial_runs_are_byte_identical(tmp_path):
    args = [
        "--test", "layer", "--method", "interp", "--epsilon", "1e-6,1e-8",
        "--levels", "1,2", "--serial",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "study.csv").read_bytes() == (out2 / "study.csv").read_bytes()
    assert (out1 / "study.json").read_bytes() == (out2 / "study.json").read_bytes()


def test_serial_study_csv_matches_the_recorded_table(tmp_path):
    """The --serial study CSV is pinned byte for byte, so refactors of the
    assembly, evaluation and solver paths cannot move any reported digit."""
    golden = Path(__file__).parent / "data" / "study_serial_2_4.csv"
    out = tmp_path / "study"
    args = [
        "--test", "both", "--method", "both", "--epsilon", "1,1e-4",
        "--levels", "2,4", "--serial", "--out", str(out),
    ]
    assert main(args) == 0
    assert (out / "study.csv").read_bytes() == golden.read_bytes()


def test_markdown_and_csv_agree(tmp_path):
    cfg = StudyConfig(
        test="smooth", method="nointerp", epsilons=(1e-4,), levels=(1, 2),
        serial=True,
    )
    report, failures = run_study(cfg, log=lambda *a: None)
    assert failures == 0
    csv_cells = [r.split(",") for r in report.to_csv().strip().splitlines()[1:]]
    md_lines = report.to_markdown().strip().splitlines()[2:]
    md_cells = [[c.strip() for c in line.strip("|").split("|")] for line in md_lines]
    assert csv_cells == [c for c in md_cells]


def test_run_verify_passes_and_writes(tmp_path):
    cfg = StudyConfig(verify=True, verify_levels=(1,), serial=True)
    report = run_verify(cfg, log=lambda *a: None)
    assert report.passed, report.to_text()
    names = [c.name for c in report.checks]
    assert any("complex." in n for n in names)
    assert any("commuting." in n for n in names)
    assert any(n.startswith("unisolvence.") for n in names)
    assert any("infsup.skipped" in n for n in names)
    # level-tagged entries
    assert any(n.startswith("n1.") for n in names)


def test_cli_verify_exit_code(tmp_path):
    out = tmp_path / "v"
    code = main(["--verify", "--out", str(out), "--serial"])
    assert code == 0
    assert (out / "verify.txt").exists()
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is True
