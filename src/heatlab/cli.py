"""Command-line surface: reproducible experiments with CSV/JSON artifacts.

Every subcommand reads graph JSON, writes deterministic artifacts into
``--out`` (identical config and seed give byte-identical files; floats
are emitted with 17 significant digits) and prints a one-line summary.
Errors leave as machine-readable JSON on stderr with the exit code
telling the family: 1 input/validation, 2 numerical failure,
3 invariant violation.
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path

import numpy as np

from .errors import (
    InvariantViolation,
    NumericsError,
    UnknownVertex,
    ValidationError,
)
from .graphs import (
    WeightedGraph,
    components,
    dump_graph,
    load_graph,
)
from .operators import (
    OperatorRep,
    SpectralAtoms,
    assemble,
    eigendecompose,
    shift_by_potential,
)
from .semigroup import KRYLOV, SCALING_SQUARING, SPECTRAL, heat_kernel
from .asymptotics import (
    TimeGrid,
    groundstate_limit,
    positivity_improving,
    rate_inner,
    rate_kernel,
)
from .perturbation import (
    Potential,
    admissibility_check,
    approximated_solution,
    lambda0,
)
from .counterexample import closed_orbit, counterexample_rate, shift_model, shift_orbit
from .metric_graphs import discretize, load_metric_graph
from .verify import run_suite

__all__ = ["main"]

_METHODS = {"spectral": SPECTRAL, "expm": SCALING_SQUARING, "krylov": KRYLOV}

_SCHEMAS = {
    "spectrum": """\
spectrum.json: {"vertices": [id], "eigenvalues": [E], "E0": num,
  "spectral_gap": num, "groups": [[indices]], "ground_state": {id: num}}
All floats carry full double precision (shortest round-trip form).""",
    "kernel": """\
kernel.csv columns: x, y, p  -- heat kernel p_t(x,y) at the requested
--t, one row per ordered vertex pair; 17 significant digits.""",
    "rate": """\
rate.csv columns: t, log_value, cesaro, differenced, residual, target
log_value is log <f, e^{-tL} g>_m (inner mode, --f/--g) or
log p_t(x,y) (kernel mode, --x/--y); cesaro = -log_value/t;
differenced = difference quotient (nan in the first row); residual =
|differenced - target|; target is the spectral prediction.""",
    "groundstate": """\
groundstate.json: {"E0": num, "spectral_gap": num, "eigenvalue_detected":
  bool, "Phi": {id: num}}   (Phi = limit of sqrt(e^{t E0} p_t(x,x)))
groundstate.csv columns: t, max_residual  -- sup-norm distance of the
rescaled kernel e^{t E0} p_t(x,y) from the ground-state projection
kernel phi0(x)phi0(y) per grid time.""",
    "positivity": """\
positivity.json: {"improving": bool, "connected": bool,
  "components": int}  -- improving must equal connected; a mismatch
exits with code 3 instead of writing a verdict.""",
    "perturb": """\
perturb.json: {"lambda0": num, "admissibility": verdict or null}
ladder.csv columns: k, t, log_norm  -- log of the m-norm of
e^{-t(L - V^k)} f_k, computed from spectral atoms in the log domain
(finite at any grid time); nondecreasing in k at fixed t.
Potential file: JSON object {vertex id: V value >= 0}.""",
    "solve": """\
solve.json: {"lambda0": num, "max_ode_residual": num,
  "max_log_bound_margin": num}
solve.csv columns: t, vertex, u  -- approximated solution trajectory.""",
    "counterexample": """\
counterexample.csv columns: t, lambda, log_pairing, differenced_rate
counterexample.json: {"mu": num, "N": int, "rates": {lambda: rate},
  "orbit_defect": num}  -- rates are the last differenced values; the
orbit defect compares closed-form and matrix-exponential orbits.""",
    "metric": """\
discretized.json: weighted-graph JSON of the finite-difference scheme
(interior points named "<edge id>:<k>").  With --then SUB the remaining
arguments run SUB on the discretized graph.
Metric file: {"vertices": [{"id", "bc": "kirchhoff"|"dirichlet"}],
  "edges": [{"id", "i", "j", "l"}]}.""",
    "verify": """\
verify.json: {"seed": int, "passed": bool, "sections": [{"name",
  "passed", "checks", "reports": [...]}]}  -- timing fields are
stripped so identical seeds give byte-identical artifacts.""",
}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v)
                             for v in row])


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _require_graph(args, load=load_graph):
    if args.graph is None:
        raise ValidationError("--graph is required")
    return load(args.graph)


def _grid(args) -> TimeGrid:
    return TimeGrid.geometric(args.t0, args.ratio, args.count)


def parse_vector(spec: str, g: WeightedGraph, op: OperatorRep) -> np.ndarray:
    """Resolve a vector shorthand against a graph.

    ``delta<i>`` (vertex id, falling back to 0-based position),
    ``ones``, ``perron`` (m-normalized ground state) and
    ``random:<seed>`` (seeded positive uniform) are supported.
    """
    if spec == "ones":
        return np.ones(g.n)
    if spec == "perron":
        return eigendecompose(op).vectors[:, 0].copy()
    if spec.startswith("random:"):
        seed = spec[len("random:"):]
        if not (seed.isdecimal() and int(seed) < 2 ** 64):
            raise ValidationError(
                f"vector spec {spec!r}: the seed must be an integer in "
                "0..2^64-1")
        rng = np.random.default_rng(np.uint64(int(seed)))
        return rng.uniform(0.1, 1.0, size=g.n)
    if spec.startswith("delta"):
        v = np.zeros(g.n)
        v[_vertex_label(g, spec[len("delta"):])] = 1.0
        return v
    raise ValidationError(
        f"unknown vector spec {spec!r}; use delta<i>, ones, perron "
        "or random:<seed>"
    )


def _vertex_label(g: WeightedGraph, spec: str) -> int:
    try:
        return g.vertex_index(spec)
    except UnknownVertex:
        try:
            return g.vertex_index(int(spec))
        except (ValueError, UnknownVertex):
            raise UnknownVertex(
                f"{spec!r} matches no vertex id or position"
            ) from None


def cmd_spectrum(args) -> int:
    g = _require_graph(args)
    sd = eigendecompose(assemble(g))
    _write_json(args.out / "spectrum.json", {
        "vertices": list(g.vertices),
        "eigenvalues": [float(e) for e in sd.eigenvalues],
        "E0": float(sd.E0),
        "spectral_gap": float(sd.gap),
        "groups": [list(range(a, b)) for a, b in sd.groups],
        "ground_state": {v: float(x)
                         for v, x in zip(g.vertices, sd.vectors[:, 0])},
    })
    print(f"spectrum: n={g.n} E0={_fmt(sd.E0)} gap={_fmt(sd.gap)}")
    return 0


def cmd_kernel(args) -> int:
    g = _require_graph(args)
    op = assemble(g)
    K = heat_kernel(op, args.t, _METHODS[args.method])
    rows = ((g.vertices[i], g.vertices[j], K.p[i, j])
            for i in range(g.n) for j in range(g.n))
    _write_csv(args.out / "kernel.csv", ["x", "y", "p"], rows)
    print(f"kernel: t={_fmt(args.t)} n={g.n} method={args.method}")
    return 0


def cmd_rate(args) -> int:
    g = _require_graph(args)
    op = assemble(g)
    grid = _grid(args)
    if args.x is not None or args.y is not None:
        if args.x is None or args.y is None:
            raise ValidationError("kernel mode needs both --x and --y")
        est = rate_kernel(op, _vertex_label(g, args.x),
                          _vertex_label(g, args.y), grid)
        mode = f"kernel x={args.x} y={args.y}"
    else:
        f = parse_vector(args.f, g, op)
        h = parse_vector(args.g, g, op)
        est = rate_inner(op, f, h, grid)
        mode = f"inner f={args.f} g={args.g}"
    rows = zip(est.times, est.log_values, est.cesaro_history,
               est.differenced_history, est.residual_history,
               [est.target] * len(est.times))
    _write_csv(args.out / "rate.csv",
               ["t", "log_value", "cesaro", "differenced", "residual",
                "target"], rows)
    print(f"rate ({mode}): target={_fmt(est.target)} "
          f"differenced={_fmt(est.differenced)}")
    return 0


def cmd_groundstate(args) -> int:
    g = _require_graph(args)
    op = assemble(g)
    profile = groundstate_limit(op, _grid(args))
    sd = eigendecompose(op)
    _write_json(args.out / "groundstate.json", {
        "E0": float(sd.E0),
        "spectral_gap": float(sd.gap),
        "eigenvalue_detected": bool(profile.is_eigenvalue_detected),
        "Phi": {v: float(x) for v, x in zip(g.vertices, profile.Phi)},
    })
    _write_csv(args.out / "groundstate.csv", ["t", "max_residual"],
               zip(profile.times, profile.residual_history))
    print(f"groundstate: E0={_fmt(sd.E0)} "
          f"final_residual={_fmt(profile.residual_history[-1])}")
    return 0


def cmd_positivity(args) -> int:
    g = _require_graph(args)
    verdict = positivity_improving(assemble(g))
    comps = components(g)
    _write_json(args.out / "positivity.json", {
        "improving": bool(verdict),
        "connected": len(comps) == 1,
        "components": len(comps),
    })
    print(f"positivity: improving={verdict}")
    return 0


def _load_potential(path: str | None, g: WeightedGraph) -> Potential:
    if path is None:
        raise ValidationError("--potential is required")
    with open(path) as fh:
        return Potential.from_mapping(g, json.load(fh))


def _ks(args) -> list[float]:
    try:
        ks = [float(k) for k in args.ks.split(",")]
        if all(k >= 0 for k in ks):
            return ks
    except ValueError:
        pass
    raise ValidationError(
        f"--ks {args.ks!r}: every truncation level must be a number >= 0")


def cmd_perturb(args) -> int:
    g = _require_graph(args)
    op = assemble(g)
    V = _load_potential(args.potential, g)
    grid = _grid(args)
    f = parse_vector(args.f, g, op)
    ks = _ks(args)
    lam = lambda0(op, V)
    verdict = None
    if args.E is not None:
        verdict = admissibility_check(op, V, args.E, f, f, grid, ks).to_dict()
    # ladder norms from spectral atoms: ||e^{-tH} f_k||^2 = <f_k, e^{-2tH} f_k>,
    # evaluated in the log domain so arbitrarily large grid times stay finite
    rows = []
    for k in ks:
        shifted = shift_by_potential(op, np.minimum(V.values, k))
        f_k = np.minimum(np.maximum(f, 0.0), k)
        atoms = SpectralAtoms.pairing(eigendecompose(shifted), f_k, f_k)
        logs, _ = atoms.log_pairing(2.0 * grid.times)
        rows.extend((k, t, 0.5 * lv) for t, lv in zip(grid.times, logs))
    _write_csv(args.out / "ladder.csv", ["k", "t", "log_norm"], rows)
    _write_json(args.out / "perturb.json",
                {"lambda0": float(lam), "admissibility": verdict})
    summary = f"perturb: lambda0={_fmt(lam)}"
    if verdict is not None:
        summary += f" admissible={verdict['admissible']}"
    print(summary)
    return 0


def cmd_solve(args) -> int:
    g = _require_graph(args)
    op = assemble(g)
    V = _load_potential(args.potential, g)
    f = parse_vector(args.f, g, op)
    sol = approximated_solution(op, V, f, _grid(args), ())
    rows = ((t, g.vertices[x], sol.values[j, x])
            for j, t in enumerate(sol.times) for x in range(g.n))
    _write_csv(args.out / "solve.csv", ["t", "vertex", "u"], rows)
    _write_json(args.out / "solve.json", {
        "lambda0": float(sol.lambda0),
        "max_ode_residual": float(np.max(sol.ode_residuals))
        if len(sol.ode_residuals) else 0.0,
        "max_log_bound_margin": float(np.max(sol.log_bound_margins)),
    })
    print(f"solve: lambda0={_fmt(sol.lambda0)} "
          f"times={len(sol.times)}")
    return 0


def cmd_counterexample(args) -> int:
    # the grid holds int(t_max) times; 1e5 took 2.6 s (N = 200, 2 vCPU)
    if not 3 <= args.t_max <= 1e5:
        raise ValidationError(
            f"--t-max {args.t_max!r}: must be a number from 3 to 1e5")
    model = shift_model(args.mu, args.N)
    lams = [args.lam] + ([args.lambda2] if args.lambda2 is not None else [])
    grid = TimeGrid(np.linspace(1.0, args.t_max, int(args.t_max)))
    x = model.geometric(0.5)
    rows = []
    rates = {}
    for lam in lams:
        est = counterexample_rate(model, lam, x, grid)
        rates[str(lam)] = float(est.differenced)
        rows.extend((t, lam, -lv, d) for t, lv, d in
                    zip(est.times, est.log_values, est.differenced_history))
    closed = closed_orbit(model, args.lam, 5.0)
    defect = float(np.linalg.norm(shift_orbit(model, args.lam, 5.0) - closed)
                   / np.linalg.norm(closed))
    _write_csv(args.out / "counterexample.csv",
               ["t", "lambda", "log_pairing", "differenced_rate"], rows)
    _write_json(args.out / "counterexample.json", {
        "mu": float(args.mu), "N": int(args.N),
        "rates": rates, "orbit_defect": defect,
    })
    print("counterexample: " + " ".join(
        f"rate({k})={v:.6f}" for k, v in rates.items()))
    return 0


def cmd_metric(args) -> int:
    mg = _require_graph(args, load_metric_graph)
    if args.mesh is None:
        raise ValidationError("--mesh is required")
    g = discretize(mg, args.mesh)
    out_path = args.out / "discretized.json"
    dump_graph(g, out_path)
    print(f"metric: {len(mg.edges)} edges -> {g.n} vertices at "
          f"h={_fmt(args.mesh)}")
    if args.then:
        return _dispatch([args.then[0], "--graph", str(out_path),
                          *args.then[1:]])
    return 0


def cmd_verify(args) -> int:
    suite = run_suite(args.seed)
    payload = suite.to_dict()
    payload.pop("elapsed", None)
    _write_json(args.out / "verify.json", payload)
    for section in suite.sections:
        print(f"verify[{section.name}]: "
              f"{'pass' if section.passed else 'FAIL'} "
              f"({len(section.reports)} checks)")
    if not suite.passed:
        raise InvariantViolation(
            "verification suite failed; see verify.json"
        )
    print("verify: all sections passed")
    return 0


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1,2 or -1e3 is a value, not a flag: it reaches its flag's check
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="heatlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--out", type=Path, default=Path("."),
                       help="artifact directory (default: .)")
        p.add_argument("--schema", action="store_true",
                       help="print artifact schema and exit")
        return p

    def common(p, grid=True):
        p.add_argument("--graph", help="input graph JSON")
        if grid:
            p.add_argument("--t0", type=float, default=1.0)
            p.add_argument("--ratio", type=float, default=1.5)
            p.add_argument("--count", type=int, default=20)

    common(command("spectrum", cmd_spectrum), grid=False)
    p = command("kernel", cmd_kernel)
    common(p, grid=False)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--method", choices=sorted(_METHODS), default="spectral")
    p = command("rate", cmd_rate)
    common(p)
    p.add_argument("--f", default="ones")
    p.add_argument("--g", default="ones")
    p.add_argument("--x", default=None, help="kernel mode: row vertex")
    p.add_argument("--y", default=None, help="kernel mode: column vertex")
    common(command("groundstate", cmd_groundstate))
    common(command("positivity", cmd_positivity), grid=False)
    p = command("perturb", cmd_perturb)
    common(p)
    p.add_argument("--potential", help="JSON {vertex id: V}")
    p.add_argument("--E", type=float, default=None,
                   help="bound to test for admissibility")
    p.add_argument("--f", default="ones")
    p.add_argument("--ks", default="1,2,4,8,16",
                   help="comma-separated truncation levels")
    p = command("solve", cmd_solve)
    common(p)
    # trajectories are linear-scale; keep the default horizon modest so
    # e^{-lambda0 t} stays in floating range for typical potentials
    p.set_defaults(t0=0.25, count=10)
    p.add_argument("--potential", help="JSON {vertex id: V}")
    p.add_argument("--f", default="ones")
    p = command("counterexample", cmd_counterexample)
    p.add_argument("--mu", type=float, default=0.25)
    p.add_argument("--lambda", dest="lam", type=float, default=0.75)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--t-max", dest="t_max", type=float, default=60.0)
    p = command("metric", cmd_metric)
    common(p, grid=False)
    p.add_argument("--mesh", type=float, default=None)
    p.add_argument("--then", nargs=argparse.REMAINDER, default=None,
                   help="subcommand to run on the discretized graph")
    p = command("verify", cmd_verify)
    p.add_argument("--seed", type=int, default=0,
                   help="seed (default: 0)")
    return parser


def _dispatch(argv) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "schema", False):
        print(_SCHEMAS[args.command])
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    return args.handler(args)


def _emit_error(exc: BaseException, code: int) -> int:
    print(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        return _dispatch(sys.argv[1:] if argv is None else argv)
    except InvariantViolation as exc:
        return _emit_error(exc, 3)
    except NumericsError as exc:
        return _emit_error(exc, 2)
    except (ValidationError, ValueError, KeyError, OSError) as exc:
        return _emit_error(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
