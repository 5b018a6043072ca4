"""Batch driver: convergence studies that reproduce the published error
tables, and the structural verification suite.

Exit codes: 0 all requested runs/checks passed, 1 numeric failure,
2 configuration error.
"""

import argparse
import itertools
import json
import math
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


# the deterministic part of each inner solve's record that study.json keeps;
# only a multigrid record has coarse_dims, so it names the route that ran
KRYLOV_SUMMARY = ("stage", "sweep", "iterations", "reason", "coarse_dims")


class ConfigError(Exception):
    pass


@dataclass
class StudyConfig:
    test: str = "smooth"  # smooth | layer | both
    method: str = "interp"  # interp | nointerp | both
    epsilons: tuple = (1e-4,)
    levels: tuple = (4, 8)
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
        for name in ("epsilons", "levels", "formats"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be nonempty")
        # type(n) is int, as a bool is an int too: a JSON true is no level or seed
        for n in self.levels:
            if type(n) is not int or n < 1 or (n & (n - 1)) != 0:
                raise ConfigError(f"levels must be powers of two, got {n}")
        # a rate is per halving of h, so each level must double the last
        for a, b in zip(self.levels, self.levels[1:]):
            if b != 2 * a:
                raise ConfigError(
                    f"each level must double the one before it, got {a} then {b}"
                )
        for fmt in self.formats:
            if fmt not in ("csv", "markdown", "json"):
                raise ConfigError(f"unknown format {fmt!r}")
        for name in ("serial", "verify", "infsup"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        try:
            # verify runs solve at their own eps
            for eps in () if self.verify else self.epsilons:
                SolverConfig(eps=eps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        levels = self.verify_levels
        if not levels or not all(type(n) is int and n >= 1 for n in levels):
            raise ConfigError(f"verify_levels must be positive integers, got {levels!r}")
        if type(self.seed) is not int:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.out == "":  # as with no --out: the report goes to stdout
            self.out = None
        return self


def run_study(config, log=print):
    """Build/solve/measure every (test, method, eps, n) combination.

    Each level (``build_spaces``: its mesh, DoF maps and eps-free forms and
    operators) is shared across the runs on it.  Every error is measured at
    the default quadrature degree of ``err_phi`` and ``compute_error``.
    Returns (ConvergenceReport, n_failures).
    """
    config.validate()
    levels = {}
    rows = []
    failures = 0
    tests = ("smooth", "layer") if config.test == "both" else (config.test,)
    methods = ("interp", "nointerp") if config.method == "both" else (config.method,)
    for test, method, eps in itertools.product(tests, methods, config.epsilons):
        if test == "smooth":
            data = smooth_case_fields(eps)
            exact_u, exact_phi, f = data["u"], data["phi"], data["f"]
        else:
            data = layer_case_fields()
            exact_u, exact_phi, f = data["u0"], data["phi0"], data["f"]
        # one entry per level; a failed level is None, so no rate spans it
        level_rows = []
        for n in config.levels:
            if n not in levels:
                levels[n] = build_spaces(build_unit_cube_mesh(n))
            level = levels[n]
            scfg = SolverConfig(eps=eps, method=method)
            t0 = time.perf_counter()
            try:
                sol = decoupled_solve(f, level.mesh, scfg, level)
            except SolverFailure as exc:
                failures += 1
                log(f"FAIL {test}/{method} eps={eps:g} n={n}: {exc}")
                level_rows.append(None)
                continue
            seconds = time.perf_counter() - t0
            measure_phi = err_phi if method == "interp" else err_phi_plain
            e_phi = measure_phi(sol.phi_h, exact_phi, eps)
            e_ul2 = compute_error("l2_scalar", sol.u_h, exact_u)
            e_uh1 = compute_error("h1semi_scalar", sol.u_h, exact_u)
            level_rows.append(
                StudyRow(
                    test=test,
                    method=method,
                    epsilon=eps,
                    n=n,
                    h=1.0 / n,
                    dof_phi=level[PHI].dim,
                    dof_total=sum(level[s].dim for s in (P2, PHI, RT, Q)) + 1,
                    err_phi=e_phi,
                    rate_phi=None,
                    err_u_l2=e_ul2,
                    rate_u_l2=None,
                    err_u_h1=e_uh1,
                    rate_u_h1=None,
                    solve_seconds=None if config.serial else seconds,
                    krylov=[
                        {k: r[k] for k in KRYLOV_SUMMARY if k in r}
                        for r in sol.diagnostics["krylov"]
                    ],
                )
            )
            log(
                f"done {test}/{method} eps={eps:g} n={n}: "
                f"err_phi={e_phi:.4e} err_u_l2={e_ul2:.4e} err_u_h1={e_uh1:.4e}"
                f" ({seconds:.1f}s)"
            )
        for norm in ("phi", "u_l2", "u_h1"):
            errs = [
                math.nan if row is None else getattr(row, f"err_{norm}")
                for row in level_rows
            ]
            for row, rate in zip(level_rows, convergence_rates(errs)):
                if row is not None:
                    setattr(row, f"rate_{norm}", rate)
        rows.extend(row for row in level_rows if row is not None)
    return ConvergenceReport(rows), failures


def run_verify(config):
    """Run the structural certification suite; returns CertificationReport."""
    config.validate()
    t0 = time.perf_counter()
    report = CertificationReport()
    check_unisolvence(report, seed=config.seed)
    # one level per verify n, shared by its checks
    levels = {n: build_spaces(build_unit_cube_mesh(n)) for n in set(config.verify_levels)}
    for n in config.verify_levels:
        sub = CertificationReport()
        level = levels[n]
        check_complex(level, sub)
        check_commuting(level, sub)
        check_weak_continuity(level, sub, seed=config.seed)
        if config.infsup:
            check_infsup(level, report=sub)
        elif n == config.verify_levels[0]:
            sub.add(
                "infsup.skipped", True, 0.0, 0.0,
                detail="optional tier disabled (enable with --infsup)",
            )
        for c in sub.checks:
            report.add(f"n{n}.{c.name}", c.passed, c.value, c.tolerance, c.detail)
    n = max(config.verify_levels)
    level = levels[n]  # the checked level serves the four solves and their checks
    for method in ("interp", "nointerp"):
        for eps in (1.0, 1e-6):
            scfg = SolverConfig(eps=eps, method=method)
            fields = smooth_case_fields(eps)
            sol = decoupled_solve(fields["f"], level.mesh, scfg, level)
            sub = CertificationReport()
            check_solution_identities(sol, level, sub)
            for c in sub.checks:
                report.add(f"n{n}.{c.name}", c.passed, c.value, c.tolerance, c.detail)
    if not config.serial:
        report.seconds = time.perf_counter() - t0
    return report


def _write_outputs(report, config):
    import pathlib

    if isinstance(report, ConvergenceReport):
        writers = {"csv": ("study.csv", report.to_csv),
                   "markdown": ("study.md", report.to_markdown),
                   "json": ("study.json", report.to_json)}
        payloads = {name: write() for name, write in map(writers.get, config.formats)}
    else:
        payloads = {"verify.txt": report.to_text()}
        if "json" in config.formats:
            payloads["verify.json"] = report.to_json()
    if config.out is None:
        # the first payload: the first requested study format, or verify.txt
        sys.stdout.write(next(iter(payloads.values()), ""))
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
    ap.add_argument("--epsilon", dest="epsilons", help="comma list, e.g. 1e-4,1e-6")
    ap.add_argument("--levels", help="comma list of subdivisions, e.g. 4,8,16")
    ap.add_argument("--serial", action="store_true", default=None,
                    help="deterministic mode: byte-stable outputs, timings blanked")
    ap.add_argument("--out", help="output directory")
    ap.add_argument("--format", dest="formats", help="comma list from csv,markdown,json")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--verify", action="store_true", default=None,
                    help="run the certification suite instead of a study")
    ap.add_argument("--infsup", action="store_true", default=None,
                    help="enable the dense inf-sup tier in --verify")
    return ap.parse_args(argv)


# comma-list flags and the parser of their items
_COMMA_LISTS = {"epsilons": float, "levels": int, "formats": str}


def _load_config(args):
    kwargs = {}
    if args.config:
        try:
            with open(args.config) as fh:
                kwargs.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    # each flag's dest is its StudyConfig field; an empty string is unset
    for name, value in vars(args).items():
        if name == "config" or value in (None, ""):
            continue
        if name in _COMMA_LISTS:
            value = tuple(map(_COMMA_LISTS[name], value.split(",")))
        kwargs[name] = value
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
        # with no --out the report itself goes to stdout, the progress to stderr
        stream = sys.stdout if config.out is not None else sys.stderr
        report, failures = run_study(config, lambda msg: print(msg, file=stream))
        _write_outputs(report, config)
        return 0 if failures == 0 else 1
    except (SolverFailure, MemoryError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
