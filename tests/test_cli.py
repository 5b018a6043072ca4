import dataclasses
import json
import math
from pathlib import Path

import pytest

from ncderham import solvers
from ncderham.cli import (
    ConfigError,
    StudyConfig,
    _load_config,
    _parse_args,
    main,
    run_study,
    run_verify,
)
from ncderham.solvers import SolverConfig, SolverFailure


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
    with pytest.raises(ValueError):
        SolverConfig(eps=0)
    StudyConfig(levels=(1, 2, 4), epsilons=(1e-6,)).validate()


def test_config_surface_is_pinned():
    """The settable fields of a study and of a solve.  A new knob is a
    deliberate edit of this list."""
    assert tuple(f.name for f in dataclasses.fields(StudyConfig)) == (
        "test", "method", "epsilons", "levels", "serial", "out",
        "formats", "seed", "verify", "infsup", "verify_levels",
    )
    assert tuple(f.name for f in dataclasses.fields(SolverConfig)) == ("eps", "method")


def test_cli_config_error_exit_code(tmp_path):
    assert main(["--levels", "3,5"]) == 2
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"bogus_field": 1}))
    assert main(["--config", str(bad)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["--config", str(broken)]) == 2
    assert main(["--config", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit) as unknown_flag:  # argparse exits on its own
        main(["--quad-degree", "13"])
    assert unknown_flag.value.code == 2
    assert main(["--epsilon", "abc"]) == 2
    for eps in ("0", "nan", "inf"):
        assert main(["--epsilon", eps]) == 2
    for fields in (
        {"spd_solver": "LU"}, {"load_degree": 13}, {"quad_degree": "8"},
        {"epsilons": 1e-4}, {"epsilons": [0.0]}, {"quad_degree": -1},
        {"verify": True, "verify_levels": [0]}, {"verify": True, "seed": "x"},
        {"epsilons": []}, {"formats": []},
        {"serial": "false"}, {"verify": "no"}, {"infsup": 1},
        # a JSON bool is a Python int, but no level, eps or seed
        {"levels": [True, 2], "epsilons": [1.0]}, {"epsilons": [True]},
        {"verify": True, "verify_levels": [True]}, {"seed": True},
    ):
        cfg = tmp_path / "invalid.json"
        cfg.write_text(json.dumps(fields))
        assert main(["--config", str(cfg)]) == 2


@pytest.mark.parametrize("argv,field,value", [
    (["--test", "layer"], "test", "layer"),
    (["--method", "nointerp"], "method", "nointerp"),
    (["--epsilon", "1e-3,1e-5"], "epsilons", (1e-3, 1e-5)),
    (["--levels", "2,4,8"], "levels", (2, 4, 8)),
    (["--epsilon", ""], "epsilons", (1e-4,)),  # an empty value leaves the default
    (["--serial"], "serial", True),
    (["--out", "results"], "out", "results"),
    (["--out", ""], "out", None),  # an empty --out keeps stdout
    (["--format", "json,csv"], "formats", ("json", "csv")),
    (["--seed", "0"], "seed", 0),
    (["--verify"], "verify", True),
    (["--infsup"], "infsup", True),
])
def test_each_flag_sets_its_config_field(argv, field, value):
    """A flag sets its own StudyConfig field and leaves every other field
    at its default."""
    assert _load_config(_parse_args(argv)) == StudyConfig(**{field: value})


def test_levels_that_skip_a_halving_are_rejected():
    """A convergence rate is per halving of h: levels 1,4 would report the
    sum of two rates as one."""
    for levels in ((1, 4), (2, 4, 16), (4, 4)):
        with pytest.raises(ConfigError, match="must double"):
            StudyConfig(levels=levels).validate()
    assert main(["--levels", "1,4", "--serial"]) == 2


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


def test_study_builds_one_p2_cycle_per_level(tmp_path, monkeypatch):
    """With the multigrid route forced onto levels 2 and 4, every row's P2
    Poisson records carry the cycle's coarse_dims, and the eight rows of a
    level share one P2 cycle."""
    built = []

    class CountingVCycle(solvers.VCycle):
        def __init__(self, matrix, transfers):
            super().__init__(matrix, transfers)
            built.append(matrix.shape[0])

    monkeypatch.setattr(solvers, "_takes_multigrid", lambda mesh: True)
    monkeypatch.setattr(solvers, "VCycle", CountingVCycle)
    out = tmp_path / "results"
    assert main([
        "--test", "both", "--method", "both", "--epsilon", "1,1e-4",
        "--levels", "2,4", "--serial", "--out", str(out),
    ]) == 0
    rows = json.loads((out / "study.json").read_text())
    p2_dims = {n: (2 * n - 1) ** 3 for n in (2, 4)}  # the interior P2 nodes
    assert len(rows) == 16
    for row in rows:
        for r in row["krylov"]:
            if r["stage"].startswith("poisson"):
                assert r["coarse_dims"][0] == p2_dims[row["n"]]
            assert ("coarse_dims" in r) == (r["stage"] not in ("projection", "flux"))
    assert sorted(d for d in built if d in p2_dims.values()) == [27, 343]


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
    """The --serial study CSV and study.json are pinned byte for byte, so
    refactors of the assembly, evaluation and solver paths cannot move any
    reported digit, nor any inner solve's iteration count or stop reason
    (the 80 Krylov records of study.json, which the CSV does not carry)."""
    golden = Path(__file__).parent / "data" / "study_serial_2_4"
    out = tmp_path / "study"
    args = [
        "--test", "both", "--method", "both", "--epsilon", "1,1e-4",
        "--levels", "2,4", "--serial", "--out", str(out),
    ]
    assert main(args) == 0
    for suffix in (".csv", ".json"):
        recorded = golden.with_suffix(suffix).read_bytes()
        assert (out / f"study{suffix}").read_bytes() == recorded, suffix


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
    report = run_verify(cfg)
    assert report.passed, report.to_text()
    identities = [
        f"identities.{method}_eps{eps}.{check}"
        for method, checks in (
            ("interp", ("lambda_zero", "div_p_zero", "curl_phi_zero",
                        "ind_phi_equals_grad_u", "phi_in_grad_w")),
            ("nointerp", ("lambda_zero", "div_p_zero", "curl_phi_zero")),
        )
        for eps in ("1", "1e-06")
        for check in checks
    ]
    level_checks = [
        "complex.curl_grad_zero", "complex.div_curl_zero", "complex.grad_injective",
        "complex.rank_curl_euler", "complex.div_onto_zero_mean",
        "complex.exactness_at_rt", "commuting.grad_route_p3",
        "commuting.curl_route_p3", "commuting.edge_restriction_is_canonical",
        "commuting.grad_route_global", "commuting.curl_route_global",
        "commuting.edge_restriction_global", "weak_continuity.face_jump_means",
        "infsup.skipped",
    ] + identities
    assert [c.name for c in report.checks] == (
        ["unisolvence.phi_nc", "unisolvence.w_nc"]
        + [f"n1.{name}" for name in level_checks]
    )
    assert report.seconds is None  # suppressed under serial


def test_cli_verify_exit_code(tmp_path):
    out = tmp_path / "v"
    code = main(["--verify", "--out", str(out), "--serial"])
    assert code == 0
    assert (out / "verify.txt").exists()
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is True


def test_serial_verify_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "levels.json"
    cfg.write_text(json.dumps({"verify_levels": [1]}))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["--verify", "--serial", "--config", str(cfg),
                     "--out", str(out)]) == 0
    for name in ("verify.txt", "verify.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    assert json.loads((outs[0] / "verify.json").read_text())["seconds"] is None
    assert (outs[0] / "verify.txt").read_text().endswith(
        "ALL CHECKS PASSED (32 checks)\n")


def test_study_without_out_writes_first_requested_format(capsys):
    assert main(["--levels", "1", "--format", "markdown", "--serial"]) == 0
    assert capsys.readouterr().out.startswith("| test ")
    assert main(["--levels", "1", "--format", "json,csv", "--serial"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["n"] == 1


def test_config_file_empty_out_keeps_stdout(tmp_path, monkeypatch, capsys):
    """An empty "out" in a config file counts as unset, as an empty --out
    does: the report goes to stdout and the working directory stays empty."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"out": "", "levels": [1], "epsilons": [1.0], "formats": ["csv"],
         "serial": True}))
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("test,method,epsilon,n,h,dof_phi")
    assert not any(line.startswith("done ") for line in out.splitlines())
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_rates_skip_a_failed_level(monkeypatch):
    """A rate is given only between consecutive levels that both solved."""
    import ncderham.cli as cli

    real_solve = cli.decoupled_solve

    def study_failing_at(n_fail):
        def solve(f, mesh, *args):
            if mesh.kuhn_n == n_fail:
                raise SolverFailure("forced failure")
            return real_solve(f, mesh, *args)

        monkeypatch.setattr(cli, "decoupled_solve", solve)
        cfg = StudyConfig(levels=(1, 2, 4), serial=True)
        report, failures = run_study(cfg, log=lambda *a: None)
        assert failures == 1
        return report.rows

    rows = study_failing_at(2)
    assert [r.n for r in rows] == [1, 4]
    for r in rows:
        assert r.rate_phi is None and r.rate_u_l2 is None and r.rate_u_h1 is None
    rows = study_failing_at(1)
    assert [r.n for r in rows] == [2, 4]
    assert rows[0].rate_phi is None
    assert rows[1].rate_u_l2 == math.log2(rows[0].err_u_l2 / rows[1].err_u_l2)
