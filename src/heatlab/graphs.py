"""Finite weighted graphs over a discrete measure space.

A graph here is a triple of data on a finite vertex set X: a measure
``m > 0``, symmetric edge weights ``b >= 0`` with vanishing diagonal, and a
killing (absorption) term ``c >= 0``.  The associated energy form is

    Q(u, v) = (1/2) sum_{x,y} b(x,y) (u(x)-u(y)) (v(x)-v(y))
              + sum_x c(x) u(x) v(x),

which :func:`dirichlet_energy` evaluates directly from the edge list; the
operator realization lives in :mod:`heatlab.operators`.

Graphs are immutable after validation.  Vertex ids are strings; all vector
data (``m``, ``c``, functions on vertices) is kept in numpy arrays aligned
with ``vertices``.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DanglingEdgeEndpoint,
    DuplicateEdge,
    DuplicateVertexId,
    EmptyGraph,
    EmptySubset,
    NegativeWeight,
    NonPositiveMeasure,
    NonSymmetricWeights,
    SelfLoop,
    UnknownVertex,
    ValidationError,
)

__all__ = [
    "WeightedGraph",
    "read_section",
    "validate_graph",
    "build_graph",
    "graph_to_dict",
    "load_graph",
    "dump_graph",
    "reach",
    "is_connected",
    "components",
    "restrict",
    "dirichlet_energy",
]


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Validated weighted graph (vertices, m, b, c).

    Attributes
    ----------
    vertices : tuple of str
        Ordered vertex ids; all array data follows this order.
    m : ndarray
        Vertex measure, strictly positive.
    c : ndarray
        Killing term, non-negative.
    edges : tuple of (int, int, float)
        Undirected edges as index pairs ``i < j`` with weight ``b > 0``;
        each edge appears exactly once.
    row_sums : ndarray
        Weighted degrees ``sum_y b(x, y)``, fixed at validation time.
    """

    vertices: tuple[str, ...]
    m: np.ndarray
    c: np.ndarray
    edges: tuple[tuple[int, int, float], ...]
    row_sums: np.ndarray = field(repr=False)
    index: dict[str, int] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_index(self, v: str | int) -> int:
        # a bool is an int to Python, but names no vertex
        if isinstance(v, bool):
            raise UnknownVertex(f"vertex {v!r} is a bool, not an id or index")
        if isinstance(v, (int, np.integer)):
            i = int(v)
            if not 0 <= i < self.n:
                raise UnknownVertex(f"vertex index {i} out of range")
            return i
        try:
            return self.index[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex id {v!r}") from None

    def recompute_row_sums(self) -> np.ndarray:
        deg = np.zeros(self.n)
        for i, j, w in self.edges:
            deg[i] += w
            deg[j] += w
        return deg


# by reader, the edge keys of the other graph format and a note naming it
_OTHER_FORMAT = {
    "weighted-graph": ("ijl", "; its keys i, j, l are those of a metric-graph"
                              " edge, which `heatlab metric` reads"),
    "metric-graph": ("uvb", "; its keys u, v, b are those of a weighted-graph"
                            " edge, which every other graph subcommand reads"),
}
_ENTRY_NOUNS = {"vertices": "vertex", "edges": "edge"}


def read_section(data, section: str | None, fields: dict,
                 file: str) -> list[list]:
    """The fields of every entry of ``data[section]``, one list per field.

    The one reader of the input files: a weighted graph, a metric graph,
    and a potential, whose whole document is one entry (``section=None``).
    ``fields`` maps a field to its default, or to ``str`` or ``float`` if
    it is required.  A missing section is empty.  A break of the record
    rule raises ValidationError naming the entry's position and the field;
    a repeated id, DuplicateVertexId or DuplicateEdge.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"the {file} document is a "
                              f"{type(data).__name__}, not an object")
    entries = [data] if section is None else data.get(section, [])
    if not isinstance(entries, list):
        raise ValidationError(f"{_ENTRY_NOUNS[section]} 0 is not an object "
                              f"in a list: {file} {section!r} is {entries!r}")
    # a type marks a required field and reads it; a default, its own type
    spec = [(name, default, default if isinstance(default, type)
             else type(default)) for name, default in fields.items()]
    columns = [[] for _ in spec]
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError(f"{_entry(section, position, entry, file)} "
                                  f"is not an object")
        for (name, default, read), column in zip(spec, columns):
            if read is default and name not in entry:
                keys, note = _OTHER_FORMAT.get(file, ("", ""))
                if not all(key in entry for key in keys):
                    note = ""
                raise ValidationError(
                    f"{_entry(section, position, entry, file)} has no field "
                    f"{name!r}{note}")
            value = entry.get(name, default)
            try:
                column.append(read(value))
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{_entry(section, position, entry, file)} has field "
                    f"{name!r} = {value!r}, which is not a number") from None
    ids = columns[list(fields).index("id")] if "id" in fields else []
    first: dict[str, int] = {}
    for position, eid in enumerate(ids):
        if first.setdefault(eid, position) != position:
            noun = _ENTRY_NOUNS[section]
            error = DuplicateEdge if noun == "edge" else DuplicateVertexId
            raise error(f"{noun} {position} has the id {eid!r} of "
                        f"{noun} {first[eid]}")
    return columns


def _entry(section: str | None, position: int, entry, file: str) -> str:
    # an entry as messages name it; a potential is its whole document
    return (f"the {file}" if section is None
            else f"{_ENTRY_NOUNS[section]} {position} ({entry!r})")


def validate_graph(data: dict) -> WeightedGraph:
    """Validate a raw graph description and freeze it.

    ``data`` is ``{"vertices": [{"id", "m", "c"}, ...], "edges": [{"u",
    "v", "b"}, ...]}``, read by :func:`read_section`; ``m`` defaults to 1,
    ``c`` to 0.  Each undirected edge must be listed once; listing both
    orientations with different weights is rejected as asymmetry, with
    equal weights as a duplicate.

    Raises
    ------
    ValidationError, NonSymmetricWeights, NegativeWeight,
    NonPositiveMeasure, SelfLoop, DuplicateVertexId, DuplicateEdge,
    EmptyGraph, DanglingEdgeEndpoint
    """
    ids, m, c = read_section(data, "vertices", {"id": str, "m": 1.0, "c": 0.0},
                             "weighted-graph")
    if not ids:
        raise EmptyGraph("graph needs at least one vertex")
    m, c = np.asarray(m), np.asarray(c)
    if np.any(m <= 0) or not np.all(np.isfinite(m)):
        bad = ids[int(np.argmin(m))]
        raise NonPositiveMeasure(f"m({bad}) must be positive and finite")
    if np.any(c < 0) or not np.all(np.isfinite(c)):
        bad = ids[int(np.argmin(c))]
        raise NegativeWeight(f"c({bad}) must be non-negative and finite")

    index = {vid: k for k, vid in enumerate(ids)}
    weight: dict[tuple[int, int], float] = {}
    columns = read_section(data, "edges", {"u": str, "v": str, "b": float},
                           "weighted-graph")
    for u, v, w in zip(*columns):
        for end in (u, v):
            if end not in index:
                raise DanglingEdgeEndpoint(f"edge endpoint {end!r} is not a vertex")
        i, j = index[u], index[v]
        if i == j:
            raise SelfLoop(f"self-loop at {u!r}; the diagonal of b must vanish")
        if not math.isfinite(w) or w < 0:
            raise NegativeWeight(f"b({u},{v}) = {w} must be non-negative and finite")
        key = (min(i, j), max(i, j))
        if key in weight:
            if weight[key] != w:
                raise NonSymmetricWeights(
                    f"b({u},{v}) listed twice with different weights "
                    f"({weight[key]} vs {w}); weights must be symmetric"
                )
            raise DuplicateEdge(f"edge ({u},{v}) listed twice")
        if w == 0.0:
            warnings.warn(f"dropping zero-weight edge ({u},{v})", stacklevel=2)
            continue
        weight[key] = w

    edges = tuple((i, j, w) for (i, j), w in sorted(weight.items()))
    g = WeightedGraph(tuple(ids), m, c, edges,
                      row_sums=np.zeros(len(ids)), index=index)
    object.__setattr__(g, "row_sums", g.recompute_row_sums())
    for frozen in (g.m, g.c, g.row_sums):
        frozen.setflags(write=False)
    return g


def build_graph(vertices, edges, m=None, c=None) -> WeightedGraph:
    """Programmatic constructor; thin wrapper around :func:`validate_graph`.

    ``vertices`` may be an int (ids "0".."n-1") or a sequence of ids;
    ``edges`` is a sequence of (u, v, b) with ids or indices.
    """
    if isinstance(vertices, (int, np.integer)):
        ids = [str(k) for k in range(int(vertices))]
    else:
        ids = [str(v) for v in vertices]
    m = np.ones(len(ids)) if m is None else np.asarray(m, dtype=float)
    c = np.zeros(len(ids)) if c is None else np.asarray(c, dtype=float)
    for name, values in (("m", m), ("c", c)):
        if values.shape != (len(ids),):
            raise ValidationError(f"build_graph: {name} has {values.size} "
                                  f"entries for {len(ids)} vertices")
    vdata = [{"id": vid, "m": mv, "c": cv} for vid, mv, cv in zip(ids, m, c)]
    edata = []
    for u, v, w in edges:
        u = ids[u] if isinstance(u, (int, np.integer)) else str(u)
        v = ids[v] if isinstance(v, (int, np.integer)) else str(v)
        edata.append({"u": u, "v": v, "b": w})
    return validate_graph({"vertices": vdata, "edges": edata})


def graph_to_dict(g: WeightedGraph) -> dict:
    """Serializable description; round-trips losslessly through JSON."""
    return {
        "vertices": [
            {"id": vid, "m": float(g.m[k]), "c": float(g.c[k])}
            for k, vid in enumerate(g.vertices)
        ],
        "edges": [
            {"u": g.vertices[i], "v": g.vertices[j], "b": float(w)}
            for i, j, w in g.edges
        ],
    }


def load_graph(path) -> WeightedGraph:
    with open(path) as fh:
        return validate_graph(json.load(fh))


def dump_graph(g: WeightedGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(g), fh, indent=1)
        fh.write("\n")


def reach(successors, start: int, seen=None) -> list[int]:
    """The indices reached from ``start`` along ``successors[x]``, the
    indices one step from x, in breadth-first order: the package's one
    connectivity rule.  ``seen``, a boolean array marked in place, skips
    what earlier calls reached, so a sweep over all starts is O(n + edges).
    """
    if seen is None:
        seen = np.zeros(len(successors), dtype=bool)
    seen[start] = True
    order = [start]
    for x in order:  # the list grows behind the loop: a queue
        for y in successors[x]:
            if not seen[y]:
                seen[y] = True
                order.append(y)
    return order


def is_connected(g: WeightedGraph) -> bool:
    """Connectivity of the support of b (a single vertex is connected)."""
    return len(components(g)) == 1


def components(g: WeightedGraph) -> list[list[int]]:
    """Connected components as sorted lists of vertex indices, ordered by
    their smallest vertex, in O(n + edges)."""
    nbr: list[list[int]] = [[] for _ in range(g.n)]
    for i, j, _ in g.edges:
        nbr[i].append(j)
        nbr[j].append(i)
    seen = np.zeros(g.n, dtype=bool)
    return [sorted(reach(nbr, start, seen)) for start in range(g.n)
            if not seen[start]]


def _subset_mask(g: WeightedGraph, subset) -> np.ndarray:
    mask = np.zeros(g.n, dtype=bool)
    arr = np.asarray(subset)
    if arr.dtype == bool:
        if arr.shape != (g.n,):
            raise EmptySubset(f"boolean mask must have length {g.n}")
        mask[:] = arr
    else:
        for v in subset:
            mask[g.vertex_index(v)] = True
    return mask


def restrict(g: WeightedGraph, subset) -> WeightedGraph:
    """Restriction onto a vertex subset with boundary weights folded into c.

    Every kept vertex x absorbs ``sum_{y not in subset} b(x, y)`` into its
    killing term, so the restricted energy form agrees with the original one
    on functions vanishing outside the subset.

    Parameters
    ----------
    g : WeightedGraph
    subset : boolean mask of length n, or an iterable of vertex ids/indices.
    """
    mask = _subset_mask(g, subset)
    if not mask.any():
        raise EmptySubset("cannot restrict to the empty vertex set")
    keep = np.flatnonzero(mask)
    new_pos = {int(old): new for new, old in enumerate(keep)}
    c_new = g.c[keep].copy()
    edges_new = []
    for i, j, w in g.edges:
        if mask[i] and mask[j]:
            edges_new.append((new_pos[i], new_pos[j], w))
        elif mask[i]:
            c_new[new_pos[i]] += w
        elif mask[j]:
            c_new[new_pos[j]] += w
    ids = tuple(g.vertices[k] for k in keep)
    return build_graph(ids, [(ids[i], ids[j], w) for i, j, w in edges_new],
                       m=g.m[keep], c=c_new)


def dirichlet_energy(g: WeightedGraph, u, v=None) -> float:
    """Energy form Q(u, v) evaluated straight from the edge list.

    This bypasses the operator realization entirely and is the reference
    against which ``<Au, v>_m`` is checked.
    """
    u = np.asarray(u, dtype=float)
    v = u if v is None else np.asarray(v, dtype=float)
    acc = 0.0
    for i, j, w in g.edges:
        acc += w * (u[i] - u[j]) * (v[i] - v[j])
    acc += float(np.sum(g.c * u * v))
    return acc
