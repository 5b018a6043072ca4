"""Per-layer tracing of ncderham from outside the package.

The tracer replaces public module attributes with thin wrappers that record
one span per call: label, start, end and the enclosing span.  A layer's
self time is its spans' durations minus the parts covered by child spans,
so the self times of one iteration add up to its traced wall time.  The
wrappers are installed for the traced iterations only and removed after.

Counters (Krylov iterations, points evaluated, nnz) are recorded at the same
boundaries.  Krylov solves are labelled by their place in the decoupled
solve: the two P2 Poisson solves, and inside the saddle stage the W
potential, the gradient projection and the flux curl-curl solve.
"""

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager

import scipy.sparse.linalg as spla

from ncderham import assembly, cli, elements, errors, fields, interpolate, mesh, solvers

BASIS_FUNCTIONS = (
    "nodal_coefficients",
    "nodal_values",
    "nodal_gradients",
    "nodal_curls",
    "rt_nodal_divergences",
)
FIELD_CALLABLES = (
    "value", "gradient", "hessian", "laplacian", "bilaplacian", "jacobian",
)
KRYLOV_LABELS = ("poisson_w", "potential", "projection", "flux", "poisson_u")
FORM_KINDS = (
    "poisson_p2", "phi_stiffness", "phi_mass", "ind_mass", "curl_coupling",
    "curl_coupling_plain", "div_coupling", "rt_mass",
)
LOAD_KINDS = (
    "f_vs_p2", "gradw_vs_indphi", "indphi_vs_gradp2", "gradw_vs_phi",
    "phi_vs_gradp2",
)
ERROR_LABELS = {"l2_scalar": "errors.err_u_l2", "h1semi_scalar": "errors.err_u_h1"}


class Tracer:
    """Spans and counters for one traced iteration."""

    def __init__(self):
        self.spans = []  # (label, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._open = []  # indices into self.spans
        self._krylov = None  # label of the solve_spd call in progress
        self._in_saddle = False
        self._saddle_done = False
        self._poisson_dim = None

    def call(self, label, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([label, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def self_seconds(self):
        """Self time per label."""
        out = defaultdict(float)
        for label, start, end, parent in self.spans:
            out[label] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def calls(self, label):
        return sum(1 for s in self.spans if s[0] == label)

    def spans_end(self):
        return max((s[2] for s in self.spans), default=time.perf_counter())

    # -- wrappers ---------------------------------------------------------

    def _span(self, label, fn):
        def wrapper(*args, **kwargs):
            return self.call(label, fn, *args, **kwargs)
        return wrapper

    def wrap_fields(self, data):
        """Copy of a field-data dict whose AnalyticField callables are traced."""
        out = dict(data)
        for key, fld in data.items():
            if isinstance(fld, fields.AnalyticField):
                out[key] = dataclasses.replace(fld, **{
                    attr: self._field_call(getattr(fld, attr))
                    for attr in FIELD_CALLABLES if getattr(fld, attr) is not None
                })
        return out

    def _field_call(self, fn):
        def wrapper(X):
            self.counts["fields.exact_points"] += len(X)
            return self.call("fields.exact_eval", fn, X)
        return wrapper

    def _bilinear(self, fn):
        def wrapper(kind, *args, **kwargs):
            form = self.call(f"assembly.form.{kind}", fn, kind, *args, **kwargs)
            self.counts["assembly.forms_nnz"] += form.matrix.nnz
            return form
        return wrapper

    def _load(self, fn):
        def wrapper(kind, *args, **kwargs):
            return self.call(f"assembly.load.{kind}", fn, kind, *args, **kwargs)
        return wrapper

    def _compute_error(self, fn):
        def wrapper(kind, *args, **kwargs):
            # the norms inside err_phi belong to its span
            if self._open and self.spans[self._open[-1]][0].startswith("errors."):
                return fn(kind, *args, **kwargs)
            label = ERROR_LABELS.get(kind, f"errors.{kind}")
            return self.call(label, fn, kind, *args, **kwargs)
        return wrapper

    def _decoupled_solve(self, fn):
        def wrapper(*args, **kwargs):
            self._saddle_done = False
            return self.call("solvers.decoupled_solve", fn, *args, **kwargs)
        return wrapper

    def _solve_saddle(self, fn):
        def wrapper(*args, **kwargs):
            self._in_saddle = True
            try:
                result = self.call("solvers.saddle", fn, *args, **kwargs)
            finally:
                self._in_saddle = False
                self._saddle_done = True
            info = result[-1]
            self.counts["solvers.saddle.certificate"] = max(
                self.counts["solvers.saddle.certificate"], info["residuals"][-1]
            )
            if info["mode"] == "direct":
                self.counts["solvers.saddle.lu_s"] += info["factor_seconds"]
                self.counts["solvers.saddle.lu_fill_nnz"] += info["fill_nnz"]
            return result
        return wrapper

    def _solve_spd(self, fn):
        def wrapper(matrix, *args, **kwargs):
            n = matrix.shape[0]
            if not self._in_saddle:
                label = "poisson_u" if self._saddle_done else "poisson_w"
                self._poisson_dim = n
            else:
                label = "projection" if n == self._poisson_dim else "potential"
            if label == "potential":
                self.counts["solvers.saddle.sweeps"] += 1
            self._krylov = label
            try:
                return self.call(f"solvers.krylov.{label}", fn, matrix, *args, **kwargs)
            finally:
                self._krylov = None
        return wrapper

    def _cg(self, fn):
        def wrapper(A, b, *args, callback=None, **kwargs):
            # a CG call outside solve_spd is the flux solve (_solve_consistent)
            label = self._krylov or "flux"
            key = f"solvers.krylov.{label}"

            def count(xk):
                self.counts[key + ".iters"] += 1
                if callback is not None:
                    callback(xk)

            x, info = self.call(key, fn, A, b, *args, callback=count, **kwargs)
            if info > 0:
                self.counts[key + ".maxiter_hits"] += 1
                self.counts["solvers.krylov.maxiter_hits"] += 1
            return x, info
        return wrapper

    def _study_fields(self, fn):
        def wrapper(*args, **kwargs):
            return self.wrap_fields(fn(*args, **kwargs))
        return wrapper

    def patches(self):
        """(object, attribute, wrapper) for every traced public attribute."""
        out = [
            (mesh, "build_unit_cube_mesh", self._span("mesh.build", mesh.build_unit_cube_mesh)),
            (cli, "build_unit_cube_mesh", self._span("mesh.build", cli.build_unit_cube_mesh)),
            (solvers, "build_spaces", self._span("assembly.dofmaps", solvers.build_spaces)),
            (cli, "build_spaces", self._span("assembly.dofmaps", cli.build_spaces)),
            (assembly, "assemble_bilinear", self._bilinear(assembly.assemble_bilinear)),
            (assembly, "assemble_load", self._load(assembly.assemble_load)),
            (interpolate, "diff_operator_matrix",
             self._span("interpolate.operators", interpolate.diff_operator_matrix)),
            (solvers, "diff_operator_matrix",
             self._span("interpolate.operators", solvers.diff_operator_matrix)),
            (solvers, "solve_spd", self._solve_spd(solvers.solve_spd)),
            (solvers, "solve_saddle", self._solve_saddle(solvers.solve_saddle)),
            (solvers, "solution_identity_norms",
             self._span("solvers.identities", solvers.solution_identity_norms)),
            (solvers, "decoupled_solve", self._decoupled_solve(solvers.decoupled_solve)),
            (cli, "decoupled_solve", self._decoupled_solve(cli.decoupled_solve)),
            (spla, "cg", self._cg(spla.cg)),
            (errors, "err_phi", self._span("errors.err_phi", errors.err_phi)),
            (errors, "err_phi_plain", self._span("errors.err_phi", errors.err_phi_plain)),
            (cli, "err_phi", self._span("errors.err_phi", cli.err_phi)),
            (cli, "err_phi_plain", self._span("errors.err_phi", cli.err_phi_plain)),
            (errors, "compute_error", self._compute_error(errors.compute_error)),
            (cli, "compute_error", self._compute_error(cli.compute_error)),
            (cli, "smooth_case_fields", self._study_fields(cli.smooth_case_fields)),
            (cli, "layer_case_fields", self._study_fields(cli.layer_case_fields)),
        ]
        # modules that imported mesh_geometry by name; the first call builds
        # and caches the geometry, wherever it happens
        for module in (mesh, assembly, errors, interpolate):
            out.append((module, "mesh_geometry",
                        self._span("mesh.geometry", module.mesh_geometry)))
        for name in BASIS_FUNCTIONS:
            out.append((elements, name, self._span("elements.basis_eval", getattr(elements, name))))
        return out

    def metrics(self):
        """Per-layer metrics of the recorded iteration, named by module."""
        self_s = self.self_seconds()
        m = {
            "mesh.build_s": self_s["mesh.build"],
            "mesh.geometry_s": self_s["mesh.geometry"],
            "assembly.dofmaps_s": self_s["assembly.dofmaps"],
            "assembly.forms_nnz": self.counts["assembly.forms_nnz"],
            "fields.exact_eval_s": self_s["fields.exact_eval"],
            "fields.exact_points": self.counts["fields.exact_points"],
            "errors.err_phi_s": self_s["errors.err_phi"],
            "errors.err_u_l2_s": self_s["errors.err_u_l2"],
            "errors.err_u_h1_s": self_s["errors.err_u_h1"],
            "elements.basis_eval_s": self_s["elements.basis_eval"],
            "elements.basis_eval_calls": self.calls("elements.basis_eval"),
            "interpolate.operators_s": self_s["interpolate.operators"],
            "interpolate.operator_builds": self.calls("interpolate.operators"),
            "solvers.decoupled_solve_s": self_s["solvers.decoupled_solve"],
            "solvers.saddle.s": self_s["solvers.saddle"],
            "solvers.saddle.sweeps": self.counts["solvers.saddle.sweeps"],
            "solvers.saddle.certificate": self.counts["solvers.saddle.certificate"],
            "solvers.saddle.lu_s": self.counts["solvers.saddle.lu_s"],
            "solvers.saddle.lu_fill_nnz": self.counts["solvers.saddle.lu_fill_nnz"],
            "solvers.identities_s": self_s["solvers.identities"],
            "solvers.krylov.maxiter_hits": self.counts["solvers.krylov.maxiter_hits"],
            "cli.report_write_s": self.counts["cli.report_write_s"],
        }
        for kind in FORM_KINDS:
            m[f"assembly.form.{kind}_s"] = self_s[f"assembly.form.{kind}"]
        for kind in LOAD_KINDS:
            m[f"assembly.load.{kind}_s"] = self_s[f"assembly.load.{kind}"]
        for label in KRYLOV_LABELS:
            key = f"solvers.krylov.{label}"
            m[key + ".iters"] = self.counts[key + ".iters"]
            m[key + ".s"] = self_s[key]
        m["solvers.krylov.flux.maxiter_hits"] = self.counts["solvers.krylov.flux.maxiter_hits"]
        return m


@contextmanager
def installed(tracer):
    """Install the tracer's wrappers; restore the originals on exit."""
    saved = []
    try:
        for obj, name, wrapper in tracer.patches():
            saved.append((obj, name, getattr(obj, name)))
            setattr(obj, name, wrapper)
        yield tracer
    finally:
        for obj, name, original in reversed(saved):
            setattr(obj, name, original)
