"""ncderham benchmark: the cost of reproducing one convergence-table row.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src/`` directory.  One process drives the package in a closed loop with a
single client: whole iterations of the workload run one after another, as
many as fit in ``--seconds`` (at least one).  Each iteration is a cold case:
mesh, DoF maps and forms are built again.  All inputs are closed-form
fields, so ``--seed`` is recorded but changes no input.  Where the solve or
the pass of three error norms is short (``solve_passes`` and
``error_passes`` in ``WORKLOADS``), an untraced iteration repeats it on the
same inputs and ``solve_s`` or ``errors_s`` is the median pass; every pass
must give the same solution and errors.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over iterations); with ``--trace 1`` the same iterations run with
the per-layer tracer of ``tracing.py`` installed and the line carries the
per-layer metrics instead.  Every case is checked against the pinned seed
values in ``reference.json``; a case that misses them counts as failed and
the run exits with status 1.

``--tiny`` runs the n=2 (study: levels 2,4) variant of each workload and
``--perturb-reference`` shifts every pinned value by 1e-6 relative, which
must fail every case; ``selftest.py`` uses both.  ``--out FILE`` writes the
full record: per-iteration metrics, error values, machine information.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# one closed-form case per workload, or a cli study; tiny variants for the self-test
WORKLOADS = {
    "smooth-n16-eps1e-4": {"test": "smooth", "n": 16, "eps": 1e-4, "solve_passes": 2},
    "smooth-n16-eps1": {"test": "smooth", "n": 16, "eps": 1.0},
    "layer-n8-eps1e-8": {"test": "layer", "n": 8, "eps": 1e-8, "error_passes": 5},
    "table-study-n4-n8": {"study": True, "levels": (4, 8), "epsilons": (1.0, 1e-4)},
}
TINY = {
    "smooth-n16-eps1e-4": {"n": 2},
    "smooth-n16-eps1": {"n": 2},
    "layer-n8-eps1e-8": {"n": 2},
    "table-study-n4-n8": {"levels": (2, 4)},
}
# the eps-independent forms that run_study caches per level, by method
SETUP_FORMS = {
    "interp": ("poisson_p2", "phi_stiffness", "ind_mass", "curl_coupling",
               "div_coupling", "rt_mass"),
    "nointerp": ("poisson_p2", "phi_stiffness", "phi_mass", "curl_coupling_plain",
                 "div_coupling", "rt_mass"),
}
# stand-alone set-ups per run: at least SETUP_REPEATS, more while they add up
# to less than SETUP_MIN_S, so a small level still gives a steady median
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
ERROR_RTOL = 1e-8  # ROADMAP bound on a reported error
END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "solve_s": "s", "errors_s": "s",
    "peak_rss_mb": "MB",
}


def cap_blas_threads():
    """Cap BLAS threads at the cores this process may use; before numpy loads."""
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cap
    return int(cap)


def machine_info(blas_cap):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_cap,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg": os.getloadavg(),
    }


def now():
    return time.perf_counter()


class Bench:
    """One workload: set-up, iterations and the correctness gate."""

    def __init__(self, name, tiny):
        from ncderham import assembly, cli, errors, fields, mesh, solvers, verify

        self.nc = SimpleNamespace(assembly=assembly, cli=cli, errors=errors,
                                  fields=fields, mesh=mesh, solvers=solvers,
                                  verify=verify)
        self.name = name
        self.spec = dict(WORKLOADS[name], **(TINY[name] if tiny else {}))
        self.levels = self.spec.get("levels") or (self.spec["n"],)
        self.methods = ("interp", "nointerp") if self.spec.get("study") else ("interp",)

    def setup(self, n):
        """Mesh, geometry, DoF maps and the eps-independent forms of level n."""
        nc = self.nc
        mesh = nc.mesh.build_unit_cube_mesh(n)
        nc.mesh.mesh_geometry(mesh)
        spaces = nc.solvers.build_spaces(mesh)
        kinds = dict.fromkeys(k for m in self.methods for k in SETUP_FORMS[m])
        forms = {k: nc.assembly.assemble_bilinear(k, mesh, spaces) for k in kinds}
        return mesh, spaces, forms

    def setup_and_warm_up(self):
        """Timed stand-alone set-ups, then one untimed CG solve on the largest
        P2 matrix: with two BLAS threads the first CG call of a process at
        this size sometimes costs about a second more than later ones, which
        would otherwise land in solve_s.  Returns (set-up seconds, warm-up s)."""
        import numpy as np

        setups = []
        while len(setups) < SETUP_REPEATS or (
                sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
            t0 = now()
            built = [self.setup(n) for n in self.levels]
            setups.append(now() - t0)
        S = built[-1][2]["poisson_p2"].matrix
        t0 = now()
        self.nc.solvers.solve_spd(S, np.ones(S.shape[0]))
        return setups, now() - t0

    def iteration(self, tracer):
        if self.spec.get("study"):
            return self.study_iteration(tracer)
        return self.case_iteration(tracer)

    def case_iteration(self, tracer):
        import numpy as np

        nc, spec = self.nc, self.spec
        eps = spec["eps"]
        t0 = now()
        mesh, spaces, forms = self.setup(spec["n"])
        t1 = now()
        if spec["test"] == "smooth":
            data = nc.fields.smooth_case_fields(eps)
            keys = ("u", "phi")
        else:
            data = nc.fields.layer_case_fields()
            keys = ("u0", "phi0")
        if tracer is not None:
            data = tracer.wrap_fields(data)
        u, phi = (data[k] for k in keys)
        config = nc.solvers.SolverConfig(eps=eps, method="interp")
        # the traced run makes one pass, so its counts describe one table row
        solves, problems = [], []
        for _ in range(1 if tracer else spec.get("solve_passes", 1)):
            t = now()
            found = nc.solvers.decoupled_solve(data["f"], mesh, config, spaces, forms)
            solves.append(now() - t)
            if len(solves) == 1:
                sol, t2 = found, now()
            elif not all(np.array_equal(getattr(found, k).coeffs, getattr(sol, k).coeffs)
                         for k in ("u_h", "phi_h")):
                problems.append("repeated solves disagree")
        passes, errs = [], None
        for _ in range(1 if tracer else spec.get("error_passes", 1)):
            t = now()
            found = {
                "err_phi": nc.errors.err_phi(sol.phi_h, phi, eps),
                "err_u_l2": nc.errors.compute_error("l2_scalar", sol.u_h, u),
                "err_u_h1": nc.errors.compute_error("h1semi_scalar", sol.u_h, u),
            }
            passes.append(now() - t)
            if errs is None:
                errs = found
            elif found != errs:
                problems.append("repeated error norms disagree")
        times = {"wall_s": t2 - t0 + passes[0], "setup_s": t1 - t0,
                 "solve_s": statistics.median(solves), "solve_passes_s": solves,
                 "errors_s": statistics.median(passes), "error_passes_s": passes}
        return times, [(self.name, errs, sol, spaces, problems)]

    def study_iteration(self, tracer):
        """cli.main on the study; solve and error seconds come from thin timers
        on the names cli calls, which also keep each solution for the gate."""
        cli = self.nc.cli
        spent = {"solve_s": 0.0, "errors_s": 0.0}
        solved = []

        def timed(key, fn, keep=False):
            def wrapper(*args, **kwargs):
                t0 = now()
                result = fn(*args, **kwargs)
                spent[key] += now() - t0
                if keep:  # cli calls decoupled_solve(f, mesh, config, dofmaps, forms)
                    solved.append((result, args[3]))
                return result
            return wrapper

        patches = {
            "decoupled_solve": timed("solve_s", cli.decoupled_solve, keep=True),
            "err_phi": timed("errors_s", cli.err_phi),
            "err_phi_plain": timed("errors_s", cli.err_phi_plain),
            "compute_error": timed("errors_s", cli.compute_error),
        }
        saved = {k: getattr(cli, k) for k in patches}
        scratch = ROOT / ".bench_tmp"
        scratch.mkdir(exist_ok=True)
        out = tempfile.mkdtemp(dir=scratch)
        argv = [
            "--test", "both", "--method", "both",
            "--epsilon", ",".join(format(e, "g") for e in self.spec["epsilons"]),
            "--levels", ",".join(str(n) for n in self.spec["levels"]),
            "--serial", "--out", out,
        ]
        log = io.StringIO()
        try:
            for k, fn in patches.items():
                setattr(cli, k, fn)
            t0 = now()
            with contextlib.redirect_stdout(log):
                status = cli.main(argv)
            t1 = now()
            rows = json.loads((Path(out) / "study.json").read_text())
        finally:
            for k, fn in saved.items():
                setattr(cli, k, fn)
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.suppress(OSError):
                scratch.rmdir()
        if tracer is not None:
            tracer.counts["cli.report_write_s"] = t1 - tracer.spans_end()
        times = {"wall_s": t1 - t0, "setup_s": None, **spent}
        cases = []
        for row, (sol, spaces) in zip(rows, solved):
            label = f"{row['test']}/{row['method']} eps={row['epsilon']:g} n={row['n']}"
            errs = {k: row[k] for k in ("err_phi", "err_u_l2", "err_u_h1")}
            cases.append((label, errs, sol, spaces,
                          [f"exit status {status}"] if status else []))
        if len(cases) != len(rows) or len(rows) != len(solved):
            cases.append(("study row count", {}, None, None, ["rows and solves differ"]))
        return times, cases

    def check(self, cases, reference):
        """Failures per case: pinned errors, saddle certificate, identities."""
        verify = self.nc.verify
        saddle_tol = self.nc.solvers.SolverConfig().saddle_tol
        failures = []
        for (label, errs, sol, spaces, problems), ref in zip(cases, reference):
            why = list(problems)
            if label != ref["case"]:
                why.append(f"pinned values are for {ref['case']}")
            for key in ("err_phi", "err_u_l2", "err_u_h1"):
                value, pinned = errs.get(key, float("nan")), ref[key]
                if not abs(value - pinned) <= ERROR_RTOL * abs(pinned):
                    why.append(f"{key}={value!r} vs pinned {pinned!r}")
            if sol is not None:
                cert = sol.diagnostics["saddle"]["residuals"][-1]
                if not cert <= 10 * saddle_tol:
                    why.append(f"saddle certificate {cert:.3e}")
                if not verify.check_solution_identities(sol, spaces).passed:
                    why.append("solution identities")
            if why:
                failures.append(f"{label}: " + "; ".join(why))
        if len(cases) != len(reference):
            failures.append(f"{len(cases)} cases against {len(reference)} pinned")
        return failures


def load_reference(name, tiny, perturb):
    table = json.loads((BENCH_DIR / "reference.json").read_text())
    ref = table["tiny" if tiny else "full"][name]
    scale = 1.0 + 1e-6 if perturb else 1.0
    return [{k: v * scale if k.startswith("err_") else v for k, v in case.items()}
            for case in ref]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--perturb-reference", action="store_true")
    ap.add_argument("--out")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ncderham" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    blas_cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import ncderham

    if Path(ncderham.__file__).resolve().parent != SRC / "ncderham":
        print(f"imported ncderham from {ncderham.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing

    info = machine_info(blas_cap)
    bench = Bench(args.workload, args.tiny)
    reference = load_reference(args.workload, args.tiny, args.perturb_reference)
    setups, warm_up_s = bench.setup_and_warm_up()

    iterations, failures, attempted, measured = [], [], 0, 0.0
    while True:
        tracer = tracing.Tracer() if args.trace else None
        with tracing.installed(tracer) if tracer else contextlib.nullcontext():
            times, cases = bench.iteration(tracer)
        if tracer is not None:
            times["trace"] = dict(tracer.metrics(), **{"trace.wall_s": times["wall_s"]})
        iterations.append(times)
        attempted += len(reference)
        failures += bench.check(cases, reference)
        del cases
        measured += times["wall_s"]
        if args.tiny or measured + times["wall_s"] > args.seconds:
            break
    setups += [t["setup_s"] for t in iterations if t["setup_s"] is not None]
    failed = min(len(failures), attempted)

    if args.trace:
        names = iterations[0]["trace"]
        metrics = {k: statistics.median(t["trace"][k] for t in iterations) for k in names}
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {k: statistics.median(t[k] for t in iterations)
                   for k in ("wall_s", "solve_s", "errors_s")}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    info["loadavg_after"] = os.getloadavg()

    print(f"workload {args.workload}{' (tiny)' if args.tiny else ''}: "
          f"{len(iterations)} iteration(s), {len(setups)} set-ups, "
          f"warm-up {warm_up_s:.3f} s, seed {args.seed} (inputs are closed-form)")
    print("machine " + json.dumps(info))
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:.6g} {units[name]}")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} 1")
    for line in failures:
        print(f"FAIL {line}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "tiny": args.tiny, "trace": args.trace,
            "seed": args.seed, "machine": info, "warm_up_s": warm_up_s,
            "setup_samples_s": setups, "iterations": iterations,
            "failures": failures, "failed_frac": failed / attempted,
            "metrics": metrics,
        }, indent=1, default=float) + "\n")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not failures else 1


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("certificate"):
        return "rel"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
