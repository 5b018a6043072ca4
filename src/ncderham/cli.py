"""Batch driver: convergence studies that reproduce the published error
tables, and the structural verification suite.

Exit codes: 0 all requested runs/checks passed, 1 numeric failure,
2 configuration error.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .assembly import P2, PHI, Q, RT
from .errors import (
    ConvergenceReport,
    StudyRow,
    compute_error,
    convergence_rates,
    err_phi,
    err_phi_plain,
)
from .fields import layer_case_fields, smooth_case_fields
from .mesh import build_unit_cube_mesh
from .quadrature import MAX_DEGREE, TET
from .solvers import SolverConfig, SolverFailure, build_spaces, decoupled_solve
from .verify import (
    CertificationReport,
    check_commuting,
    check_complex,
    check_infsup,
    check_solution_identities,
    check_unisolvence,
    check_weak_continuity,
)


# the deterministic part of each inner solve's record that study.json keeps
KRYLOV_SUMMARY = ("stage", "sweep", "iterations", "reason")


class ConfigError(Exception):
    pass


@dataclass
class StudyConfig:
    test: str = "smooth"  # smooth | layer | both
    method: str = "interp"  # interp | nointerp | both
    epsilons: tuple = (1e-4,)
    levels: tuple = (4, 8)
    quad_degree: int = 8
    spd_tol: float = 1e-12
    saddle_tol: float = 1e-10
    serial: bool = False
    out: str = None
    formats: tuple = ("csv", "markdown", "json")
    seed: int = 4321
    verify: bool = False
    infsup: bool = False
    verify_levels: tuple = (1, 2)

    def validate(self):
        if self.test not in ("smooth", "layer", "both"):
            raise ConfigError(f"unknown test {self.test!r}")
        if self.method not in ("interp", "nointerp", "both"):
            raise ConfigError(f"unknown method {self.method!r}")
        if not self.levels:
            raise ConfigError("levels must be nonempty")
        for n in self.levels:
            if n < 1 or (n & (n - 1)) != 0:
                raise ConfigError(f"levels must be powers of two, got {n}")
        for a, b in zip(self.levels, self.levels[1:]):
            if b <= a:
                raise ConfigError("levels must be strictly increasing")
        if not self.verify:
            for eps in self.epsilons:
                if eps <= 0:
                    raise ConfigError(f"solve runs need eps > 0, got {eps}")
        for fmt in self.formats:
            if fmt not in ("csv", "markdown", "json"):
                raise ConfigError(f"unknown format {fmt!r}")
        if not 0 <= self.quad_degree <= MAX_DEGREE[TET]:
            raise ConfigError(
                f"quad_degree must lie in [0, {MAX_DEGREE[TET]}], "
                f"got {self.quad_degree}"
            )
        return self


def _tests(config):
    return ("smooth", "layer") if config.test == "both" else (config.test,)


def _methods(config):
    return ("interp", "nointerp") if config.method == "both" else (config.method,)


def run_study(config, log=print):
    """Build/solve/measure every (test, method, eps, n) combination.

    Meshes, DoF maps and eps-independent forms are shared across runs on
    the same level.  Returns (ConvergenceReport, n_failures).
    """
    config.validate()
    caches = {}
    rows = []
    failures = 0
    for test in _tests(config):
        for method in _methods(config):
            for eps in config.epsilons:
                if test == "smooth":
                    data = smooth_case_fields(eps)
                    exact_u, exact_phi, f = data["u"], data["phi"], data["f"]
                else:
                    data = layer_case_fields()
                    exact_u, exact_phi, f = data["u0"], data["phi0"], data["f"]
                errs = {"phi": [], "ul2": [], "uh1": []}
                level_rows = []
                for n in config.levels:
                    if n not in caches:
                        mesh = build_unit_cube_mesh(n)
                        caches[n] = (mesh, build_spaces(mesh), {})
                    mesh, dofmaps, forms = caches[n]
                    scfg = SolverConfig(
                        eps=eps,
                        method=method,
                        spd_tol=config.spd_tol,
                        saddle_tol=config.saddle_tol,
                    )
                    t0 = time.perf_counter()
                    try:
                        sol = decoupled_solve(f, mesh, scfg, dofmaps, forms)
                    except SolverFailure as exc:
                        failures += 1
                        log(f"FAIL {test}/{method} eps={eps:g} n={n}: {exc}")
                        continue
                    seconds = time.perf_counter() - t0
                    if method == "interp":
                        e_phi = err_phi(sol.phi_h, exact_phi, eps, config.quad_degree)
                    else:
                        e_phi = err_phi_plain(
                            sol.phi_h, exact_phi, eps, config.quad_degree
                        )
                    e_ul2 = compute_error(
                        "l2_scalar", sol.u_h, exact_u, config.quad_degree
                    )
                    e_uh1 = compute_error(
                        "h1semi_scalar", sol.u_h, exact_u, config.quad_degree
                    )
                    errs["phi"].append(e_phi)
                    errs["ul2"].append(e_ul2)
                    errs["uh1"].append(e_uh1)
                    level_rows.append(
                        StudyRow(
                            test=test,
                            method=method,
                            epsilon=eps,
                            n=n,
                            h=1.0 / n,
                            dof_phi=dofmaps[PHI].dim,
                            dof_total=dofmaps[P2].dim
                            + dofmaps[PHI].dim
                            + dofmaps[RT].dim
                            + dofmaps[Q].dim
                            + 1,
                            err_phi=e_phi,
                            rate_phi=None,
                            err_u_l2=e_ul2,
                            rate_u_l2=None,
                            err_u_h1=e_uh1,
                            rate_u_h1=None,
                            solve_seconds=None if config.serial else seconds,
                            krylov=[
                                {k: r[k] for k in KRYLOV_SUMMARY}
                                for r in sol.diagnostics["krylov"]
                            ],
                        )
                    )
                    log(
                        f"done {test}/{method} eps={eps:g} n={n}: "
                        f"err_phi={e_phi:.4e} err_u_l2={e_ul2:.4e} err_u_h1={e_uh1:.4e}"
                        f" ({seconds:.1f}s)"
                    )
                for key, attr in (
                    ("phi", "rate_phi"),
                    ("ul2", "rate_u_l2"),
                    ("uh1", "rate_u_h1"),
                ):
                    rates = convergence_rates(errs[key])
                    for row, rate in zip(level_rows, rates):
                        setattr(row, attr, rate)
                rows.extend(level_rows)
    return ConvergenceReport(rows), failures


def run_verify(config, log=print):
    """Run the structural certification suite; returns CertificationReport."""
    config.validate()
    t0 = time.perf_counter()
    report = CertificationReport()
    check_unisolvence(report, seed=config.seed)
    for n in config.verify_levels:
        sub = CertificationReport()
        mesh = build_unit_cube_mesh(n)
        check_complex(mesh, sub)
        check_commuting(mesh, sub)
        check_weak_continuity(mesh, sub, seed=config.seed)
        if config.infsup:
            check_infsup(mesh, report=sub)
        elif n == config.verify_levels[0]:
            sub.add(
                "infsup.skipped", True, 0.0, 0.0,
                detail="optional tier disabled (enable with --infsup)",
            )
        for c in sub.checks:
            report.add(f"n{n}.{c.name}", c.passed, c.value, c.tolerance, c.detail)
    n = max(config.verify_levels)
    mesh = build_unit_cube_mesh(n)
    dofmaps = build_spaces(mesh)
    for method in ("interp", "nointerp"):
        for eps in (1.0, 1e-6):
            scfg = SolverConfig(eps=eps, method=method)
            fields = smooth_case_fields(eps)
            sol = decoupled_solve(fields["f"], mesh, scfg, dofmaps)
            sub = CertificationReport()
            check_solution_identities(sol, dofmaps, sub)
            for c in sub.checks:
                report.add(f"n{n}.{c.name}", c.passed, c.value, c.tolerance, c.detail)
    report.seconds = time.perf_counter() - t0
    return report


def _write_outputs(report, config):
    import pathlib

    payloads = {}
    if isinstance(report, ConvergenceReport):
        if "csv" in config.formats:
            payloads["study.csv"] = report.to_csv()
        if "markdown" in config.formats:
            payloads["study.md"] = report.to_markdown()
        if "json" in config.formats:
            payloads["study.json"] = report.to_json()
    else:
        payloads["verify.txt"] = report.to_text()
        if "json" in config.formats:
            payloads["verify.json"] = report.to_json()
    if config.out is None:
        name = "study.csv" if isinstance(report, ConvergenceReport) else "verify.txt"
        sys.stdout.write(payloads[name])
        return
    outdir = pathlib.Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in payloads.items():
        (outdir / name).write_text(text)


def _parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="ncderham",
        description="Convergence studies and structural verification for the "
        "nonconforming complex and the decoupled solver.",
    )
    ap.add_argument("--config", help="JSON file with StudyConfig fields")
    ap.add_argument("--test", choices=["smooth", "layer", "both"])
    ap.add_argument("--method", choices=["interp", "nointerp", "both"])
    ap.add_argument("--epsilon", help="comma list, e.g. 1e-4,1e-6")
    ap.add_argument("--levels", help="comma list of subdivisions, e.g. 4,8,16")
    ap.add_argument("--quad-degree", type=int, dest="quad_degree")
    ap.add_argument("--serial", action="store_true", default=None,
                    help="deterministic mode: byte-stable outputs, timings blanked")
    ap.add_argument("--out", help="output directory")
    ap.add_argument("--format", help="comma list from csv,markdown,json")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--verify", action="store_true", default=None,
                    help="run the certification suite instead of a study")
    ap.add_argument("--infsup", action="store_true", default=None,
                    help="enable the dense inf-sup tier in --verify")
    return ap.parse_args(argv)


def _load_config(args):
    kwargs = {}
    if args.config:
        try:
            with open(args.config) as fh:
                kwargs.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    if args.test:
        kwargs["test"] = args.test
    if args.method:
        kwargs["method"] = args.method
    if args.epsilon:
        kwargs["epsilons"] = tuple(float(x) for x in args.epsilon.split(","))
    if args.levels:
        kwargs["levels"] = tuple(int(x) for x in args.levels.split(","))
    if args.quad_degree is not None:
        kwargs["quad_degree"] = args.quad_degree
    if args.serial is not None:
        kwargs["serial"] = args.serial
    if args.out:
        kwargs["out"] = args.out
    if args.format:
        kwargs["formats"] = tuple(args.format.split(","))
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.verify is not None:
        kwargs["verify"] = args.verify
    if args.infsup is not None:
        kwargs["infsup"] = args.infsup
    return StudyConfig(**kwargs).validate()


def main(argv=None):
    try:
        args = _parse_args(argv)
        config = _load_config(args)
    except (ConfigError, TypeError, ValueError) as exc:
        # unknown fields, malformed numbers and mistyped values included
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if config.verify:
            report = run_verify(config)
            _write_outputs(report, config)
            if config.out is not None:
                print(report.to_text(), end="")
            return 0 if report.passed else 1
        report, failures = run_study(config)
        _write_outputs(report, config)
        return 0 if failures == 0 else 1
    except (SolverFailure, MemoryError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
