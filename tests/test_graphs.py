import json

import numpy as np
import numpy.testing as npt
import pytest

from heatlab import (
    build_graph,
    components,
    dirichlet_energy,
    dump_graph,
    graph_to_dict,
    is_connected,
    load_graph,
    restrict,
    validate_graph,
)
from heatlab.errors import (
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
from heatlab.graphs import reach


def test_build_basic(single_edge):
    assert single_edge.n == 2
    assert single_edge.vertices == ("1", "2")
    npt.assert_array_equal(single_edge.m, [1.0, 1.0])
    npt.assert_array_equal(single_edge.c, [0.0, 0.0])
    assert single_edge.edges == ((0, 1, 1.0),)


def test_vertex_index_accepts_ids_and_positions(path3):
    assert path3.vertex_index("2") == 1
    assert path3.vertex_index(1) == 1
    with pytest.raises(UnknownVertex):
        path3.vertex_index("9")
    with pytest.raises(UnknownVertex):
        path3.vertex_index(7)


@pytest.mark.parametrize("bad, exc", [
    ({"vertices": [], "edges": []}, EmptyGraph),
    ({"vertices": [{"id": "1", "m": 1}, {"id": "1", "m": 1}],
      "edges": []}, DuplicateVertexId),
    ({"vertices": [{"id": "1", "m": 0.0}], "edges": []}, NonPositiveMeasure),
    ({"vertices": [{"id": "1", "m": 1, "c": -1.0}], "edges": []},
     NegativeWeight),
    ({"vertices": [{"id": "1"}, {"id": "2"}],
      "edges": [{"u": "1", "v": "2", "b": -0.5}]}, NegativeWeight),
    ({"vertices": [{"id": "1"}],
      "edges": [{"u": "1", "v": "1", "b": 1.0}]}, SelfLoop),
    ({"vertices": [{"id": "1"}, {"id": "2"}],
      "edges": [{"u": "1", "v": "2", "b": 1.0},
                {"u": "1", "v": "2", "b": 1.0}]}, DuplicateEdge),
    ({"vertices": [{"id": "1"}, {"id": "2"}],
      "edges": [{"u": "1", "v": "2", "b": 1.0},
                {"u": "2", "v": "1", "b": 2.0}]}, NonSymmetricWeights),
    ({"vertices": [{"id": "1"}],
      "edges": [{"u": "1", "v": "9", "b": 1.0}]}, DanglingEdgeEndpoint),
])
def test_validation_errors(bad, exc):
    with pytest.raises(exc):
        validate_graph(bad)


def test_zero_weight_edge_dropped_with_warning():
    with pytest.warns(UserWarning):
        g = build_graph(["1", "2", "3"],
                        [("1", "2", 1.0), ("2", "3", 0.0)])
    assert g.edges == ((0, 1, 1.0),)
    assert not is_connected(g)


def test_json_roundtrip_lossless(tmp_path, rng):
    from heatlab.verify import random_graph

    for _ in range(5):
        g = random_graph(rng, n_max=20)
        path = tmp_path / "g.json"
        dump_graph(g, path)
        h = load_graph(path)
        assert h.vertices == g.vertices
        npt.assert_array_equal(h.m, g.m)
        npt.assert_array_equal(h.c, g.c)
        assert h.edges == g.edges


def test_graph_dict_shape(single_edge):
    d = graph_to_dict(single_edge)
    assert set(d) == {"vertices", "edges"}
    assert d["vertices"][0] == {"id": "1", "m": 1.0, "c": 0.0}
    assert d["edges"] == [{"u": "1", "v": "2", "b": 1.0}]
    json.dumps(d)


def test_connectivity(path3, two_triangles):
    assert is_connected(path3)
    assert not is_connected(two_triangles)
    comps = components(two_triangles)
    assert sorted(len(c) for c in comps) == [3, 3]


def test_components_are_sorted_and_ordered_by_smallest_vertex():
    # three interleaved components and an isolated vertex
    g = build_graph(9, [(5, 0, 1.0), (2, 5, 1.0), (7, 1, 1.0), (3, 7, 1.0),
                        (6, 4, 1.0)])
    assert components(g) == [[0, 2, 5], [1, 3, 7], [4, 6], [8]]
    assert not is_connected(g)
    nbr = [[5], [7], [5], [7], [6], [0, 2], [4], [1, 3], []]
    assert reach(nbr, 3) == [3, 7, 1]
    seen = np.zeros(9, dtype=bool)
    assert reach(nbr, 0, seen) == [0, 5, 2]
    assert np.flatnonzero(seen).tolist() == [0, 2, 5]


def test_connectivity_invariant_under_relabeling_and_scaling(rng):
    from heatlab.verify import random_graph

    g = random_graph(rng, n_max=15)
    perm = rng.permutation(g.n)
    names = [g.vertices[p] for p in perm]
    where = {v: k for k, v in enumerate(perm)}
    edges = [(names[where[i]], names[where[j]], 10.0 * w)
             for i, j, w in g.edges]
    h = build_graph(names, edges,
                    m=[g.m[p] for p in perm], c=[g.c[p] for p in perm])
    assert is_connected(h) == is_connected(g)


def test_restrict_folds_cut_weights(path3):
    r = restrict(path3, ["1"])
    assert r.vertices == ("1",)
    npt.assert_allclose(r.c, [1.0])
    assert r.edges == ()
    # form identity: the restricted form on delta_1 equals the original
    # form on its extension by zero
    u = np.array([1.0])
    ext = np.array([1.0, 0.0, 0.0])
    assert dirichlet_energy(r, u) == pytest.approx(
        dirichlet_energy(path3, ext), abs=0.0)


def test_restrict_full_set_is_identity(path3):
    r = restrict(path3, ["1", "2", "3"])
    assert r.vertices == path3.vertices
    npt.assert_array_equal(r.c, path3.c)
    assert r.edges == path3.edges


def test_restrict_component_unchanged(two_triangles):
    r = restrict(two_triangles, ["d", "e", "f"])
    assert r.vertices == ("d", "e", "f")
    npt.assert_array_equal(r.c, [0.0, 0.0, 0.0])
    assert len(r.edges) == 3


def test_restrict_form_identity_random(rng):
    from heatlab.verify import random_graph

    for _ in range(10):
        g = random_graph(rng, n_max=20, c_scale=1.0)
        k = int(rng.integers(1, g.n + 1))
        subset = list(rng.choice(g.n, size=k, replace=False))
        r = restrict(g, subset)
        u = rng.standard_normal(r.n)
        ext = np.zeros(g.n)
        ext[np.array(sorted(subset))] = u
        npt.assert_allclose(dirichlet_energy(r, u),
                            dirichlet_energy(g, ext), rtol=1e-12, atol=1e-12)


def test_restrict_empty_subset(path3):
    with pytest.raises(EmptySubset):
        restrict(path3, [])


def test_dirichlet_energy_closed_form(path3_killed):
    # Q(u) = sum_b (u(x)-u(y))^2 ... on (1, 2, 4): 1 + 4 + 5*1
    u = np.array([1.0, 2.0, 4.0])
    assert dirichlet_energy(path3_killed, u) == pytest.approx(10.0)
    v = np.array([1.0, 0.0, 0.0])
    assert dirichlet_energy(path3_killed, u, v) == pytest.approx(
        (1.0 - 2.0) * (1.0 - 0.0) + 5.0 * 1.0)


def test_single_vertex_with_killing_is_valid():
    g = build_graph(["x"], [], c=[2.0])
    assert g.n == 1 and is_connected(g)


def test_non_dict_input_rejected():
    with pytest.raises((ValidationError, ValueError, KeyError)):
        validate_graph({"edges": []})
