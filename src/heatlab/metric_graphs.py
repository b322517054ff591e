"""Metric graphs and their reduction to weighted combinatorial graphs.

A metric graph is a set of intervals (edges with positive finite
lengths) glued at vertices.  The energy form is the Dirichlet integral
sum_e int |u_e'|^2 over edgewise-H^1 functions, continuous through each
vertex; a vertex is either kirchhoff (natural flux balance) or
dirichlet (u pinned to 0 and the vertex removed from the state space).

:func:`discretize` replaces each edge by an equispaced chain of the
standard second-order finite-difference scheme: n_e = round(l/h)
segments of exact length h_e = l/n_e, interior points with measure h_e
and link weights 1/h_e, and half-cell lumping m(v) = sum h_e/2 over the
edge *endpoints* meeting v -- a loop contributes both of its ends, which
is what makes the total measure of a discretized loop equal its length.
Dirichlet vertices are built first and then removed by the restriction
map, which folds their link weights into the killing term of their
neighbors.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    DanglingEdgeEndpoint,
    IsolatedVertex,
    MeshTooCoarse,
    NonPositiveLength,
    ValidationError,
)
from .graphs import WeightedGraph, build_graph, read_section, restrict

__all__ = [
    "MetricGraph",
    "validate_metric_graph",
    "load_metric_graph",
    "metric_graph_to_dict",
    "discretize",
]

_BOUNDARY_CONDITIONS = ("kirchhoff", "dirichlet")


@dataclass(frozen=True)
class MetricGraph:
    """Edges (id, i, j, length) glued at named vertices.

    ``bc[k]`` is the boundary condition of ``vertices[k]``; loops
    (i = j) and parallel edges are allowed, infinite or non-positive
    lengths are not.
    """

    vertices: tuple[str, ...]
    bc: tuple[str, ...]
    edges: tuple[tuple[str, str, str, float], ...]

    @property
    def l_min(self) -> float:
        return min(e[3] for e in self.edges)

    def degree(self, v: str) -> int:
        return sum(1 for e in self.edges if v in (e[1], e[2]))


def validate_metric_graph(desc: dict) -> MetricGraph:
    """Check a parsed metric-graph description and freeze it.

    Expected shape: {"vertices": [{"id", "bc"}], "edges":
    [{"id", "i", "j", "l"}]}, with bc defaulting to kirchhoff.

    Raises
    ------
    ValidationError, DuplicateVertexId, DuplicateEdge
        If ``desc`` breaks :func:`~heatlab.graphs.read_section`'s record
        rule, names an unknown boundary condition or has no edge.
    NonPositiveLength
        For l <= 0 and for non-finite l; infinite edges must be
        truncated by the caller (mark the far end dirichlet).
    DanglingEdgeEndpoint
        If an edge references an undeclared vertex.
    IsolatedVertex
        If a declared vertex meets no edge.
    """
    vertices, bcs = read_section(
        desc, "vertices", {"id": str, "bc": "kirchhoff"}, "metric-graph")
    for vid, bc in zip(vertices, bcs):
        if bc not in _BOUNDARY_CONDITIONS:
            raise ValidationError(
                f"vertex {vid!r} has unknown boundary condition {bc!r}"
            )
    edges = tuple(zip(*read_section(
        desc, "edges", {"id": str, "i": str, "j": str, "l": float},
        "metric-graph")))
    for eid, i, j, length in edges:
        for endpoint in (i, j):
            if endpoint not in vertices:
                raise DanglingEdgeEndpoint(
                    f"edge {eid!r} references undeclared vertex {endpoint!r}"
                )
        if not length > 0 or length == float("inf"):
            raise NonPositiveLength(
                f"edge {eid!r} must have finite positive length, got {length}"
            )
    if not edges:
        raise ValidationError("metric graph needs at least one edge")
    mg = MetricGraph(vertices=tuple(vertices), bc=tuple(bcs), edges=edges)
    for v in vertices:
        if mg.degree(v) == 0:
            raise IsolatedVertex(f"vertex {v!r} meets no edge")
    return mg


def load_metric_graph(path) -> MetricGraph:
    with open(path) as fh:
        return validate_metric_graph(json.load(fh))


def metric_graph_to_dict(mg: MetricGraph) -> dict:
    return {
        "vertices": [{"id": v, "bc": bc}
                     for v, bc in zip(mg.vertices, mg.bc)],
        "edges": [{"id": eid, "i": i, "j": j, "l": l}
                  for eid, i, j, l in mg.edges],
    }


def discretize(mg: MetricGraph, h: float) -> WeightedGraph:
    """Finite-difference reduction of the Kirchhoff form at mesh size h.

    Interior points of edge e are named ``"<edge id>:<k>"`` for
    k = 1..n_e - 1; metric vertices keep their ids (dirichlet ones are
    removed).  Applied to samples of smooth functions the discrete form
    reproduces sum_e int |u_e'|^2 with O(h^2) error, and eigenvalues of
    the discrete operator converge at the same order.

    Raises
    ------
    MeshTooCoarse
        If h > l_min/4; four segments per edge is the least that keeps
        every subdivision a simple graph (loops included) and the
        scheme meaningfully second order.
    """
    if not h > 0:
        raise MeshTooCoarse(f"mesh size must be positive, got {h}")
    if h > mg.l_min / 4.0:
        raise MeshTooCoarse(
            f"h = {h} exceeds l_min/4 = {mg.l_min / 4.0}"
        )
    ids = list(mg.vertices)
    measures = {v: 0.0 for v in mg.vertices}
    links: list[tuple[str, str, float]] = []
    for eid, i, j, length in mg.edges:
        n_e = round(length / h)
        h_e = length / n_e
        chain = [i] + [f"{eid}:{k}" for k in range(1, n_e)] + [j]
        ids.extend(chain[1:-1])
        for vid in chain[1:-1]:
            measures[vid] = h_e
        # one half-cell per edge endpoint: a loop deposits h_e at its vertex
        measures[i] += h_e / 2.0
        measures[j] += h_e / 2.0
        links.extend((chain[k], chain[k + 1], 1.0 / h_e)
                     for k in range(n_e))
    g = build_graph(ids, links, m=[measures[v] for v in ids])
    dirichlet = {v for v, bc in zip(mg.vertices, mg.bc) if bc == "dirichlet"}
    if dirichlet:
        g = restrict(g, [v for v in ids if v not in dirichlet])
    return g
