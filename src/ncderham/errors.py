"""Error norms against analytic fields, convergence rates, and the study
report with CSV / markdown / JSON writers."""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .blas import OPENBLAS, one_blas_thread
from .fields import quadrature_points
from .interpolate import fe_gradients, fe_values, nd_interpolant
from .mesh import mesh_geometry
from .quadrature import TET, get_rule

_CHUNK = 512
# meshes of at least this many tets share the error pass with a helper
# thread: it paid at n=16 (24,576 tets), was a wash at n=12 (10,368) and
# lost at n=8
_HELPER_TETS = 16_384

# kind -> (evaluation of the discrete field, matching exact-field data)
_ERROR_KINDS = {
    "l2_scalar": (fe_values, "value"),
    "h1semi_scalar": (fe_gradients, "gradient"),
    "l2_vector": (fe_values, "value"),
    "broken_h1semi_vector": (fe_gradients, "jacobian"),
    "l2_vs_ind": (fe_values, "value"),
}


class ErrorCapability(Exception):
    """Missing derivative data or unsupported kind."""


def _part(kind, fe, exact):
    """(evaluation, discrete field, exact callable) of one error kind."""
    if kind not in _ERROR_KINDS:
        raise ErrorCapability(f"unknown error kind {kind!r}")
    evaluate, attr = _ERROR_KINDS[kind]
    exact_fn = getattr(exact, attr, None)
    if exact_fn is None:
        raise ErrorCapability(f"exact field lacks {attr!r} data")
    if kind == "l2_vs_ind":
        fe = nd_interpolant(fe)
    return evaluate, fe, exact_fn


@one_blas_thread()
def _squared_errors(parts, quad_degree):
    """Squared L2 / broken-H1 distances of ``_part`` triples on one mesh,
    in one loop over chunks of tets: every part reads the chunk's points
    from one ``take``, and each chunk returns its per-part sums, which
    are added in chunk order.

    A mesh of at least ``_HELPER_TETS`` tets hands every other chunk to
    one helper thread.  Chunk 0 runs on this thread before the helper
    starts, so every cache that the chunk loop fills (the factor values in
    ``QuadraturePoints.memo``, the class tables in the representative's
    ``_class_tables`` and its nodal coefficients) is complete before a
    second thread reads it; the quadrature points and the geometry are
    cached before the loop.  Without control of the BLAS threads the pass
    stays serial.
    """
    mesh = parts[0][1].dofmap.mesh
    geom = mesh_geometry(mesh)
    rule = get_rule(TET, quad_degree)
    w, pts = rule.weights, rule.points
    points = quadrature_points(geom, pts)

    def chunk_sums(starts):
        """Per-part sums of the chunks at ``starts``, one list per chunk.
        One loop keeps a chunk's arrays alive until the next chunk's
        replace them, so the heap is not trimmed and faulted in again
        between chunks."""
        out = []
        for lo in starts:
            tids = np.arange(lo, min(lo + _CHUNK, mesh.num_tets))
            X = points.take(tids)
            sums = []
            for evaluate, fe, exact_fn in parts:
                vals = evaluate(fe, pts, tids)
                ex = np.asarray(exact_fn(X)).reshape(vals.shape)
                vals -= ex  # vals is the evaluation's own array
                # pointwise squared norm over the value axes (none for scalars)
                d = vals.reshape(tids.size, w.size, -1)
                sums.append(float(geom.volume[tids] @ (np.einsum("tqk,tqk->tq", d, d) @ w)))
            out.append(sums)
        return out

    starts = range(0, mesh.num_tets, _CHUNK)
    if mesh.num_tets < _HELPER_TETS or OPENBLAS is None:
        chunks = chunk_sums(starts)
    else:
        chunks = chunk_sums(starts[:1]) + [None] * (len(starts) - 1)
        with ThreadPoolExecutor(1) as helper:
            theirs = helper.submit(chunk_sums, starts[1::2])
            chunks[2::2] = chunk_sums(starts[2::2])
            chunks[1::2] = theirs.result()
    totals = [0.0] * len(parts)
    for sums in chunks:
        for i, s in enumerate(sums):
            totals[i] += s
    return totals


def compute_error(kind, fe, exact, quad_degree=8):
    """L2 / broken-H1 distance between a discrete and an analytic field.

    ``l2_vs_ind`` measures the edge interpolant of a Phi function.
    """
    (total,) = _squared_errors([_part(kind, fe, exact)], quad_degree)
    return math.sqrt(total)


def _combined_error(fe_phi, exact_phi, eps, l2_kind, quad_degree):
    """sqrt(eps^2 |phi - phi_h|_{1,h}^2 + ||phi - phi_h||^2) with the L2
    part of kind ``l2_kind``; both parts are measured in one pass."""
    parts = [_part("broken_h1semi_vector", fe_phi, exact_phi),
             _part(l2_kind, fe_phi, exact_phi)]
    h1, l2 = (math.sqrt(t) for t in _squared_errors(parts, quad_degree))
    return math.sqrt((eps * h1) ** 2 + l2**2)


def err_phi(fe_phi, exact_phi, eps, quad_degree=8):
    """Combined error: sqrt(eps^2 |phi - phi_h|_{1,h}^2 + ||phi - I phi_h||_0^2),
    with the L2 part measured against the edge-interpolated P1 companion."""
    return _combined_error(fe_phi, exact_phi, eps, "l2_vs_ind", quad_degree)


def err_phi_plain(fe_phi, exact_phi, eps, quad_degree=8):
    """Combined error with the plain L2 part (no edge interpolation)."""
    return _combined_error(fe_phi, exact_phi, eps, "l2_vector", quad_degree)


def convergence_rates(errors):
    """log2 ratios between consecutive errors; the first entry, and any rate
    next to a nonpositive or NaN error, is None."""
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
