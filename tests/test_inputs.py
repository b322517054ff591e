"""Every public evaluator rejects a bad input and names it.

One sweep over the input rules, each written once in the package:

* a vertex function (datum) has shape (n,) and finite entries
  (``operators.checked_datum``);
* a time is finite and >= 0, or > 0 where the evaluator needs it
  (``semigroup.check_time``);
* a potential has shape (n,) and finite entries
  (``operators.checked_potential``);
* trotter's step count is a Python or numpy integer >= 1, a geometric
  time grid's count one >= 3, and the shift model's size N an integer
  from 1 to the dense limit;
* a truncation level is a number >= 0 (``perturbation._levels``), and
  the exhaustion probe's margin a finite number > 0;
* ``build_graph``'s ``m`` and ``c`` hold one value per vertex;
* a vertex is looked up in the operator's graph, so an operator built
  from S alone names its missing graph (``OperatorRep.vertex_index``);
* an operator built from S and m alone has a square, finite, symmetric S
  and an m of shape (n,), finite and > 0 (``OperatorRep``);
* an input file (weighted graph, metric graph, potential) is an object
  whose sections are lists of objects, with every required field present,
  every number field read by ``float`` and ids unique
  (``graphs.read_section``).

Each case must raise its rule's error, naming the input, and no
RuntimeWarning may come out first.
"""
import json

import numpy as np
import pytest

import heatlab as hl
from heatlab import errors
from heatlab.cli import main
from heatlab.errors import NegativeTime, NonPositiveTime, ValidationError
from heatlab.operators import DENSE_LIMIT

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

G = hl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
OP = hl.assemble(G)
ONES = np.ones(3)
V = np.array([3.0, 0.0, 0.5])
E = -3.0
GRID = hl.TimeGrid.geometric(count=4)
KS = (1.0, 4.0)
MODEL = hl.shift_model(0.25)
METHODS = (hl.SPECTRAL, hl.SCALING_SQUARING, hl.KRYLOV)

# evaluator -> (call on the datum u, the datum's name in messages)
DATUM_READERS = {
    **{f"apply/{m.tag}": (lambda u, m=m: hl.apply(OP, 1.0, u, m), "f")
       for m in METHODS},
    "trotter": (lambda u: hl.trotter(OP, V, 1.0, 4, u), "f"),
    "rate_inner/f": (lambda u: hl.rate_inner(OP, u, ONES, GRID), "f"),
    "rate_inner/g": (lambda u: hl.rate_inner(OP, ONES, u, GRID), "g"),
    "strong_convergence_check": (
        lambda u: hl.strong_convergence_check(OP, u, GRID), "f"),
    "spectral_measure": (
        lambda u: hl.spectral_measure(hl.eigendecompose(OP), u), "f"),
    "admissibility_check/f": (
        lambda u: hl.admissibility_check(OP, V, E, u, ONES, GRID, KS), "f"),
    "admissibility_check/g": (
        lambda u: hl.admissibility_check(OP, V, E, ONES, u, GRID, KS), "g"),
    "truncated_semigroup": (
        lambda u: hl.truncated_semigroup(OP, V, 1.0, 1.0, u), "f"),
    "truncation_ladder": (
        lambda u: hl.truncation_ladder(OP, V, u, GRID, KS), "f"),
    "sv_limit": (lambda u: hl.sv_limit(OP, V, 1.0, u, KS), "f"),
    "approximated_solution": (
        lambda u: hl.approximated_solution(OP, V, u, GRID, KS), "f"),
}
BAD_DATA = {
    "nan datum": [np.nan, 1.0, 1.0],
    "inf datum": [1.0, np.inf, 1.0],
    "wrong-shape datum": np.ones(4),
}

# evaluator -> (call at time t, whether it needs t > 0)
TIME_READERS = {
    **{f"apply/{m.tag}": (lambda t, m=m: hl.apply(OP, t, ONES, m), False)
       for m in METHODS},
    **{f"heat_kernel/{m.tag}": (lambda t, m=m: hl.heat_kernel(OP, t, m), True)
       for m in METHODS},
    "kernel_column": (lambda t: hl.kernel_column(OP, t, 0), True),
    "chapman_kolmogorov_defect": (
        lambda t: hl.chapman_kolmogorov_defect(OP, t, 1.0), True),
    "trotter": (lambda t: hl.trotter(OP, V, t, 4, ONES), False),
    "truncated_semigroup": (
        lambda t: hl.truncated_semigroup(OP, V, 1.0, t, ONES), False),
    "sv_limit": (lambda t: hl.sv_limit(OP, V, t, ONES, KS), False),
    "shift_orbit": (lambda t: hl.shift_orbit(MODEL, 0.75, t), False),
    "closed_orbit": (lambda t: hl.closed_orbit(MODEL, 0.75, t), False),
    "is_positivity_improving_shift": (
        lambda t: hl.is_positivity_improving_shift(MODEL, t), True),
}
BAD_TIMES = {"nan time": np.nan, "inf time": np.inf, "negative time": -1.0}

POTENTIAL_READERS = {
    "shift_by_potential": lambda W: hl.shift_by_potential(OP, W),
    "trotter": lambda W: hl.trotter(OP, W, 1.0, 4, ONES),
    "lambda0": lambda W: hl.lambda0(OP, W),
    "truncated_semigroup": lambda W: hl.truncated_semigroup(
        OP, W, 1.0, 1.0, ONES),
    "truncation_ladder": lambda W: hl.truncation_ladder(
        OP, W, ONES, GRID, KS),
    "sv_limit": lambda W: hl.sv_limit(OP, W, 1.0, ONES, KS),
    "admissibility_check": lambda W: hl.admissibility_check(
        OP, W, E, ONES, ONES, GRID, KS),
    "approximated_solution": lambda W: hl.approximated_solution(
        OP, W, ONES, GRID, KS),
    "exhaustion_divergence_probe": lambda W: hl.exhaustion_divergence_probe(
        [(G, W)]),
}
NAN_POTENTIAL = np.array([np.nan, 0.0, 0.0])

BAD_STEP_COUNTS = {"2.5": 2.5, "nan": np.nan, "inf": np.inf, "0": 0,
                   "-1": -1, "True": True}
BAD_SIZES = {"DENSE_LIMIT + 1": DENSE_LIMIT + 1, "0": 0, "2.5": 2.5,
             "True": True}
BAD_COUNTS = {"3.5": 3.5, "2": 2, "nan": np.nan, "True": True}
BAD_MARGINS = {"nan": np.nan, "inf": np.inf, "0": 0.0, "-1": -1.0}

# evaluator -> its call with one truncation level k
LEVEL_READERS = {
    "truncated_semigroup": lambda k: hl.truncated_semigroup(
        OP, V, k, 1.0, ONES),
    "truncation_ladder": lambda k: hl.truncation_ladder(
        OP, V, ONES, GRID, (1.0, k)),
    "sv_limit": lambda k: hl.sv_limit(OP, V, 1.0, ONES, (1.0, k)),
    "admissibility_check": lambda k: hl.admissibility_check(
        OP, V, E, ONES, ONES, GRID, (1.0, k)),
    "exhaustion_divergence_probe": lambda k: hl.exhaustion_divergence_probe(
        [(G, V)], ks=(1.0, k)),
}
BAD_LEVELS = {"'abc'": "abc", "None": None}

# evaluator -> its call on an operator built from S alone, without a graph
BARE = hl.OperatorRep(S=OP.S, m=OP.m)
VERTEX_READERS = {
    "kernel_column": lambda: hl.kernel_column(BARE, 1.0, 0),
    "rate_kernel": lambda: hl.rate_kernel(BARE, 0, 1, GRID),
    "kernel_factorization_defects": (
        lambda: hl.kernel_factorization_defects(BARE, 0, 1, GRID)),
}

# (S, m) of an operator built without a graph -> the field its error names
BAD_FIELDS = {
    "non-square S": (np.ones((3, 2)), ONES, r"field S has shape \(3, 2\)"),
    "nan S": (np.where(np.eye(3) > 0, np.nan, OP.S), ONES,
              "field S is not finite"),
    "inf S": (np.where(np.eye(3) > 0, np.inf, OP.S), ONES,
              "field S is not finite"),
    "asymmetric S": (np.triu(OP.S), ONES, "field S is not symmetric"),
    "short m": (OP.S, np.ones(2), r"field m has shape \(2,\), not \(3,\)"),
    "nan m": (OP.S, [1.0, np.nan, 1.0], "field m is not finite and > 0"),
    "zero m": (OP.S, [1.0, 0.0, 1.0], "field m is not finite and > 0"),
    "negative m": (OP.S, [1.0, -1.0, 1.0], "field m is not finite and > 0"),
}

# scalars outside the three rules, each checked by its one reader
SCALAR_CASES = {
    "resolvent/nan alpha": (lambda: hl.resolvent(OP, np.nan),
                            ValidationError, "alpha = nan is not finite"),
    "resolvent/inf alpha": (lambda: hl.resolvent(OP, np.inf),
                            ValidationError, "alpha = inf is not finite"),
    "closed_orbit/past the overflow horizon": (
        lambda: hl.closed_orbit(MODEL, 0.75, 1e4), ValueError, "overflows"),
    "shift_orbit/past the overflow horizon": (
        lambda: hl.shift_orbit(MODEL, 0.75, 1e4), ValueError, "overflows"),
}


def _time_error(t, positive):
    if not np.isfinite(t):
        return ValidationError, f"time t = {t} is not finite"
    return (NonPositiveTime, "t > 0") if positive else (NegativeTime, "< 0")


def _cases():
    for reader, (call, name) in DATUM_READERS.items():
        for kind, u in BAD_DATA.items():
            error, match = (
                (ValueError, rf"datum {name} must have shape \(3,\)")
                if kind == "wrong-shape datum"
                else (ValidationError, f"datum {name} is not finite"))
            yield pytest.param(lambda call=call, u=u: call(u), error, match,
                               id=f"{reader}/{kind}")
    for reader, (call, positive) in TIME_READERS.items():
        for kind, t in BAD_TIMES.items():
            yield pytest.param(lambda call=call, t=t: call(t),
                               *_time_error(t, positive),
                               id=f"{reader}/{kind}")
    for reader, call in POTENTIAL_READERS.items():
        yield pytest.param(lambda call=call: call(NAN_POTENTIAL),
                           ValidationError, "potential V is not finite",
                           id=f"{reader}/nan potential")
    for kind, n in BAD_STEP_COUNTS.items():
        yield pytest.param(lambda n=n: hl.trotter(OP, V, 1.0, n, ONES),
                           ValidationError, f"step count n = {n} is not",
                           id=f"trotter/step count {kind}")
    for kind, N in BAD_SIZES.items():
        yield pytest.param(lambda N=N: hl.shift_model(0.25, N),
                           ValidationError, f"truncation size N = {N} is not",
                           id=f"shift_model/size {kind}")
    for kind, count in BAD_COUNTS.items():
        yield pytest.param(
            lambda count=count: hl.TimeGrid.geometric(1.0, 1.5, count),
            ValidationError, f"count = {count} is not an integer >= 3",
            id=f"TimeGrid.geometric/count {kind}")
    for kind, margin in BAD_MARGINS.items():
        yield pytest.param(
            lambda margin=margin: hl.exhaustion_divergence_probe(
                [(G, V)], margin),
            ValidationError, f"margin = {margin} is not a finite number",
            id=f"exhaustion_divergence_probe/margin {kind}")
    for reader, call in LEVEL_READERS.items():
        for kind, k in BAD_LEVELS.items():
            yield pytest.param(lambda call=call, k=k: call(k), ValidationError,
                               f"truncation level {k} is not a number >= 0",
                               id=f"{reader}/level {kind}")
    for field in ("m", "c"):
        for kind, size in (("short", 2), ("long", 4)):
            yield pytest.param(
                lambda field=field, size=size: hl.build_graph(
                    3, [(0, 1, 1.0)], **{field: np.ones(size)}),
                ValidationError, f"{field} has {size} entries for 3 vertices",
                id=f"build_graph/{kind} {field}")
    for reader, call in VERTEX_READERS.items():
        yield pytest.param(call, ValueError, "operator carries no graph",
                           id=f"{reader}/no graph")
    for kind, (S, m, match) in BAD_FIELDS.items():
        yield pytest.param(lambda S=S, m=m: hl.OperatorRep(S=S, m=m),
                           ValidationError, match, id=f"OperatorRep/{kind}")
    for case, (call, error, match) in SCALAR_CASES.items():
        yield pytest.param(call, error, match, id=case)


@pytest.mark.parametrize("call, error, match", list(_cases()))
def test_a_bad_input_raises_its_rules_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_trotter_takes_python_and_numpy_integer_step_counts():
    want = hl.trotter(OP, V, 1.0, 4, ONES)
    for n in (np.int64(4), np.int32(4), np.uint8(4)):
        assert hl.trotter(OP, V, 1.0, n, ONES).tobytes() == want.tobytes()


def test_geometric_grid_takes_python_and_numpy_integer_counts():
    want = hl.TimeGrid.geometric(1.0, 1.5, 4).times
    for count in (np.int64(4), np.int32(4), np.uint8(4)):
        assert hl.TimeGrid.geometric(1.0, 1.5, count).times.tobytes() == (
            want.tobytes())


VERTICES = [{"id": "a"}, {"id": "b"}]
EDGES = [{"u": "a", "v": "b", "b": 1.0}]
METRIC_EDGES = [{"id": "e", "i": "a", "j": "b", "l": 1.0}]
GRAPH = {"vertices": VERTICES, "edges": EDGES}
METRIC = {"vertices": VERTICES, "edges": METRIC_EDGES}

# file kind -> the subcommand that reads it, up to the file's path
FILE_READERS = {
    "graph": ["spectrum", "--graph"],
    "metric": ["metric", "--mesh", "0.25", "--graph"],
    "potential": ["solve", "--potential"],
}
# case -> (file kind, document, parts of the message)
BAD_FILES = {
    "graph/list document": (
        "graph", [GRAPH], ["weighted-graph document", "not an object"]),
    "graph/section not a list": (
        "graph", {"vertices": 5, "edges": EDGES}, ["vertex 0", "'vertices'"]),
    "graph/entry not an object": (
        "graph", {"vertices": VERTICES, "edges": ["ab"]},
        ["edge 0 ('ab')", "not an object"]),
    "graph/missing field": (
        "graph", {"vertices": VERTICES, "edges": [{"u": "a", "v": "b"}]},
        ["edge 0", "no field 'b'"]),
    "graph/heavy number": (
        "graph", {"vertices": [{"id": "a"}, {"id": "b", "m": "heavy"}],
                  "edges": EDGES}, ["vertex 1", "'m' = 'heavy'"]),
    "graph/null number": (
        "graph", {"vertices": VERTICES,
                  "edges": [{"u": "a", "v": "b", "b": None}]},
        ["edge 0", "'b' = None"]),
    "graph/metric-graph file": (
        "graph", METRIC, ["edge 0", "no field 'u'", "metric-graph edge"]),
    "metric/list document": (
        "metric", [METRIC], ["metric-graph document", "not an object"]),
    "metric/section not a list": (
        "metric", {"vertices": VERTICES, "edges": 5}, ["edge 0", "'edges'"]),
    "metric/entry not an object": (
        "metric", {"vertices": ["a", "b"], "edges": METRIC_EDGES},
        ["vertex 0 ('a')", "not an object"]),
    "metric/missing field": (
        "metric", {"vertices": VERTICES,
                   "edges": [{"id": "e", "i": "a", "j": "b"}]},
        ["edge 0", "no field 'l'"]),
    "metric/heavy number": (
        "metric", {"vertices": VERTICES,
                   "edges": [{"id": "e", "i": "a", "j": "b", "l": "heavy"}]},
        ["edge 0", "'l' = 'heavy'"]),
    "metric/null number": (
        "metric", {"vertices": VERTICES,
                   "edges": [{"id": "e", "i": "a", "j": "b", "l": None}]},
        ["edge 0", "'l' = None"]),
    "metric/weighted-graph file": (
        "metric", GRAPH, ["edge 0", "no field 'id'", "weighted-graph edge"]),
    "potential/list document": (
        "potential", [3.0, 0.0], ["potential document", "not an object"]),
    "potential/heavy number": (
        "potential", {"a": "heavy"}, ["potential", "'a' = 'heavy'"]),
    "potential/null number": (
        "potential", {"b": None}, ["potential", "'b' = None"]),
}


@pytest.mark.parametrize("kind, document, parts", BAD_FILES.values(),
                         ids=BAD_FILES.keys())
def test_a_bad_input_file_exits_1_naming_its_entry(tmp_path, capsys, kind,
                                                   document, parts):
    # an uncaught error would leave main with a traceback and fail here
    graph, bad = tmp_path / "graph.json", tmp_path / "bad.json"
    graph.write_text(json.dumps(GRAPH))
    bad.write_text(json.dumps(document))
    argv = FILE_READERS[kind] + [str(bad), "--out", str(tmp_path)]
    if kind == "potential":
        argv += ["--graph", str(graph)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert issubclass(getattr(errors, err["error"]), ValidationError)
    for part in parts:
        assert part in err["message"]
