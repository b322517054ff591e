"""Every public evaluator rejects a bad input and names it.

One sweep over the input rules, each written once in the package:

* a vertex function (datum) has shape (n,) and finite entries
  (``operators.checked_datum``);
* a time is finite and >= 0, or > 0 where the evaluator needs it
  (``semigroup.check_time``);
* a potential has shape (n,) and finite entries
  (``operators.checked_potential``).

Each case must raise its rule's error, naming the input, and no
RuntimeWarning may come out first.
"""
import numpy as np
import pytest

import heatlab as hl
from heatlab.errors import NegativeTime, NonPositiveTime, ValidationError

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
    for case, (call, error, match) in SCALAR_CASES.items():
        yield pytest.param(call, error, match, id=case)


@pytest.mark.parametrize("call, error, match", list(_cases()))
def test_a_bad_input_raises_its_rules_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
