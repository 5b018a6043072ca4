"""Error norms against analytic fields, convergence rates, and the study
report with CSV / markdown / JSON writers."""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .assembly import ND, build_dof_map
from .interpolate import fe_gradients, fe_values, nd_interpolant
from .mesh import mesh_geometry
from .quadrature import TET, get_rule

_CHUNK = 512

# kind -> (evaluation of the discrete field, matching exact-field data)
_ERROR_KINDS = {
    "l2_scalar": (fe_values, "value"),
    "h1semi_scalar": (fe_gradients, "gradient"),
    "l2_vector": (fe_values, "value"),
    "broken_h1semi_vector": (fe_gradients, "jacobian"),
    "l2_vs_ind": (fe_values, "value"),
}
ERROR_KINDS = tuple(_ERROR_KINDS)


class ErrorCapability(Exception):
    """Missing derivative data or unsupported kind."""


def _exact_at(exact, attr, phys):
    fn = getattr(exact, attr, None)
    if fn is None:
        raise ErrorCapability(f"exact field lacks {attr!r} data")
    return np.asarray(fn(phys.reshape(-1, 3))).reshape(phys.shape[:2] + (-1,))


def compute_error(kind, fe, exact, quad_degree=8, chunk=_CHUNK):
    """L2 / broken-H1 distance between a discrete and an analytic field.

    ``l2_vs_ind`` measures the edge interpolant of a Phi function.
    """
    if kind not in _ERROR_KINDS:
        raise ErrorCapability(f"unknown error kind {kind!r}")
    evaluate, attr = _ERROR_KINDS[kind]
    mesh = fe.dofmap.mesh
    if kind == "l2_vs_ind":
        fe = nd_interpolant(fe, build_dof_map(ND, mesh))
    geom = mesh_geometry(mesh)
    rule = get_rule(TET, quad_degree)
    w, pts = rule.weights, rule.points

    total = 0.0
    nT = mesh.num_tets
    for lo in range(0, nT, chunk):
        tids = np.arange(lo, min(lo + chunk, nT))
        g = geom.take(tids)
        phys = np.einsum("qi,tij->tqj", pts, g.vertices)
        vals = evaluate(fe, pts, tids)
        ex = _exact_at(exact, attr, phys).reshape(vals.shape)
        diff2 = (vals - ex) ** 2
        # pointwise squared norm over the value axes (none for scalars)
        diff2 = diff2.sum(axis=tuple(range(2, diff2.ndim)))
        total += float(np.einsum("q,tq,t->", w, diff2, g.volume))
    return math.sqrt(total)


def err_phi(fe_phi, exact_phi, eps, quad_degree=8):
    """Combined error: sqrt(eps^2 |phi - phi_h|_{1,h}^2 + ||phi - I phi_h||_0^2),
    with the L2 part measured against the edge-interpolated P1 companion."""
    h1 = compute_error("broken_h1semi_vector", fe_phi, exact_phi, quad_degree)
    l2 = compute_error("l2_vs_ind", fe_phi, exact_phi, quad_degree)
    return math.sqrt((eps * h1) ** 2 + l2**2)


def err_phi_plain(fe_phi, exact_phi, eps, quad_degree=8):
    """Combined error with the plain L2 part (no edge interpolation)."""
    h1 = compute_error("broken_h1semi_vector", fe_phi, exact_phi, quad_degree)
    l2 = compute_error("l2_vector", fe_phi, exact_phi, quad_degree)
    return math.sqrt((eps * h1) ** 2 + l2**2)


def convergence_rates(errors, levels=None):
    """log2 ratios between consecutive errors; first entry is None.

    ``levels``, when given, must halve h (double n) at every step.
    """
    if levels is not None:
        for a, b in zip(levels, levels[1:]):
            if b != 2 * a:
                raise ValueError(f"levels must double: {levels}")
    rates = [None]
    for e0, e1 in zip(errors, errors[1:]):
        if e0 > 0 and e1 > 0:
            rates.append(math.log2(e0 / e1))
        else:
            rates.append(None)
    return rates


@dataclass
class StudyRow:
    test: str
    method: str
    epsilon: float
    n: int
    h: float
    dof_phi: int
    dof_total: int
    err_phi: float
    rate_phi: float  # None on the first level
    err_u_l2: float
    rate_u_l2: float
    err_u_h1: float
    rate_u_h1: float
    solve_seconds: float  # None when timings are suppressed
    # one entry per inner Krylov solve: stage, sweep, iterations, reason
    krylov: list = None


CSV_HEADER = (
    "test,method,epsilon,n,h,dof_phi,dof_total,err_phi,rate_phi,"
    "err_u_l2,rate_u_l2,err_u_h1,rate_u_h1,solve_seconds"
)


def _fmt(x, spec):
    return "" if x is None else format(x, spec)


def row_to_csv(row):
    return ",".join(
        [
            row.test,
            row.method,
            format(row.epsilon, ".6g"),
            str(row.n),
            format(row.h, ".10g"),
            str(row.dof_phi),
            str(row.dof_total),
            _fmt(row.err_phi, ".10e"),
            _fmt(row.rate_phi, ".4f"),
            _fmt(row.err_u_l2, ".10e"),
            _fmt(row.rate_u_l2, ".4f"),
            _fmt(row.err_u_h1, ".10e"),
            _fmt(row.rate_u_h1, ".4f"),
            _fmt(row.solve_seconds, ".3f"),
        ]
    )


@dataclass
class ConvergenceReport:
    rows: list

    def to_csv(self):
        return "\n".join([CSV_HEADER] + [row_to_csv(r) for r in self.rows]) + "\n"

    def to_markdown(self):
        header = CSV_HEADER.split(",")
        cells = [[c for c in row_to_csv(r).split(",")] for r in self.rows]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in cells)) if cells else len(header[i])
            for i in range(len(header))
        ]
        def line(parts):
            return "| " + " | ".join(p.ljust(w) for p, w in zip(parts, widths)) + " |"
        out = [line(header), line(["-" * w for w in widths])]
        out += [line(row) for row in cells]
        return "\n".join(out) + "\n"

    def to_json(self):
        return json.dumps([asdict(r) for r in self.rows], indent=2, sort_keys=True) + "\n"
