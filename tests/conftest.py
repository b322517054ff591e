"""Shared fixtures: tiny closed-form graphs and the bundled data files."""

from pathlib import Path

import numpy as np
import pytest

from heatlab import assemble, build_graph
from heatlab.metric_graphs import discretize, validate_metric_graph

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


@pytest.fixture
def rng():
    return np.random.default_rng(np.uint64(0))


@pytest.fixture
def single_edge():
    """Two vertices, b=1, m=1, c=0; eigenvalues {0, 2}."""
    return build_graph(["1", "2"], [("1", "2", 1.0)])


@pytest.fixture
def single_edge_op(single_edge):
    return assemble(single_edge)


@pytest.fixture
def path3():
    return build_graph(["1", "2", "3"], [("1", "2", 1.0), ("2", "3", 1.0)])


@pytest.fixture
def path3_killed():
    """Path with a killing term at the first vertex; gapped, E0 > 0."""
    return build_graph(["1", "2", "3"],
                       [("1", "2", 1.0), ("2", "3", 1.0)],
                       c=[5.0, 0.0, 0.0])


@pytest.fixture
def k4():
    verts = ["a", "b", "c", "d"]
    edges = [(u, v, 1.0) for i, u in enumerate(verts)
             for v in verts[i + 1:]]
    return build_graph(verts, edges)


@pytest.fixture
def two_triangles():
    verts = ["a", "b", "c", "d", "e", "f"]
    edges = [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0),
             ("d", "e", 1.0), ("e", "f", 1.0), ("d", "f", 1.0)]
    return build_graph(verts, edges)


def _stiff_star(h):
    mg = validate_metric_graph({
        "vertices": [{"id": "o"}] + [{"id": f"leaf{e}", "bc": "dirichlet"}
                                     for e in range(3)],
        "edges": [{"id": f"e{e}", "i": "o", "j": f"leaf{e}", "l": length}
                  for e, length in enumerate((0.6, 0.8, 1.0))],
    })
    return assemble(discretize(mg, h))


@pytest.fixture
def stiff_star_op():
    """Discretized star with Dirichlet leaves at h = 0.02: ||S|| ~ 1e4."""
    return _stiff_star(0.02)


@pytest.fixture
def fine_star_op():
    """The same star at h = 0.008, large enough (n ~ 300) that the
    scaling-squaring evaluator builds its series from sparse S."""
    return _stiff_star(0.008)


@pytest.fixture
def data_dir():
    return DATA


@pytest.fixture
def decompositions(monkeypatch):
    """Bytes of every matrix handed to ``np.linalg.eigh``: one entry per
    eigendecompose miss, none per hit."""
    matrices = []
    eigh = np.linalg.eigh

    def counted(S, *args, **kwargs):
        matrices.append(np.array(S).tobytes())
        return eigh(S, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return matrices
