"""The three workloads: seeded inputs, task lists and output checks.

Each workload has three steps.  ``setup(seed, workdir)`` generates the
inputs from the seed and validates and assembles them with heatlab; it
is what ``setup_s`` times.  ``prepare(inputs, workdir)`` computes the
reference answers by routes independent of the code under test (numpy
and scipy on the benchmark's own dense matrices, closed forms); it runs
once, outside every timed region.  ``tasks(state, in_process)`` returns
one pass of tasks on fresh operator objects, so every pass sees the
same eigendecomposition cache misses.

Tasks look heatlab functions up on the module at call time, so the
tracer's wrappers are the ones called in a traced pass.  The oracles
(and scipy.optimize with them) are imported only after set-up, so that
``setup_s`` times heatlab's imports and not the benchmark's.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np

import heatlab as hl

from .harness import DeclaredFailure, Task, pythonpath_env

# ---------------------------------------------------------------- references


def random_graph(rng, n: int) -> hl.WeightedGraph:
    """Random recursive tree plus n/2 chords: short diameter, connected.

    The benchmark draws its own graphs rather than calling
    heatlab.verify.random_graph, so its inputs stay fixed when the
    library's generator changes.
    """
    edges = {}
    for i in range(1, n):
        edges[(int(rng.integers(0, i)), i)] = float(rng.uniform(0.2, 2.0))
    for _ in range(n // 2):
        i, j = sorted(int(v) for v in rng.integers(0, n, 2))
        if i != j:
            edges[(i, j)] = float(rng.uniform(0.2, 2.0))
    return hl.build_graph(n, [(i, j, w) for (i, j), w in edges.items()],
                          m=rng.uniform(0.5, 2.0, n))


def _bfs_dist(g, source=0) -> np.ndarray:
    nbr = [[] for _ in range(g.n)]
    for i, j, _ in g.edges:
        nbr[i].append(j)
        nbr[j].append(i)
    dist = np.full(g.n, -1)
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in nbr[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


class Workload:
    """A named task list; see the module docstring for its three steps."""

    name = ""
    # labels of tasks known to return a wrong answer without raising
    known_wrong = frozenset()
    # tasks run as child processes: peak RSS is read from those, and the
    # traced run calls them in-process, where its spans can see them
    in_children = False

    def prepare(self, inputs, workdir):
        return inputs


# ------------------------------------------------------------ longtime-path

PATH_N = 700
STAR_N = 500
STAR_EDGES = 5
APPLY_TIMES = (1.0, 10.0, 100.0, 1000.0)
METHODS = (hl.SPECTRAL, hl.SCALING_SQUARING, hl.KRYLOV)
# e^{-tL} f is checked relative to its own norm, as long-time asymptotics
# need: the evaluators' documented 1e-9 agreement plus the conditioning of
# e^{-tS} under a rounding-size relative change of S (t eps ||S||, with
# room for the eigensolvers' backward-error constant)
APPLY_RTOL = 1e-9
APPLY_COND = 100.0 * np.finfo(float).eps


class LongtimePath(Workload):
    """Long-diameter graphs: a weighted path and a discretized metric star
    with Dirichlet leaves, estimators run to t ~ 10^3."""

    name = "longtime-path"
    # Misses of these tasks still count as failures; they only leave the
    # run's "correct" flag alone, which is kept for new wrong answers.
    # On the star (||S|| ~ 4/h^2) the Lanczos path accepts results that are
    # 100% off once e^{-tL} f has decayed (t >= 10).
    known_wrong = frozenset({"star/apply/krylov/t=10",
                             "star/apply/krylov/t=100"})

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.5, 2.0, PATH_N - 1)
        path = hl.build_graph(
            PATH_N, [(i, i + 1, float(w[i])) for i in range(PATH_N - 1)],
            m=rng.uniform(0.5, 2.0, PATH_N))
        # total length fixed, so h, ||S|| and the squaring counts are too
        lengths = rng.uniform(0.5, 1.5, STAR_EDGES)
        lengths *= STAR_EDGES / lengths.sum()
        mg = hl.validate_metric_graph({
            "vertices": [{"id": "o"}] + [{"id": f"leaf{e}", "bc": "dirichlet"}
                                         for e in range(STAR_EDGES)],
            "edges": [{"id": f"e{e}", "i": "o", "j": f"leaf{e}",
                       "l": float(lengths[e])} for e in range(STAR_EDGES)],
        })
        h = float(lengths.sum()) / STAR_N
        star = hl.discretize(mg, h)
        graphs = {"path": path, "star": star}
        return {
            "graphs": graphs,
            # passes assemble their own operators, untimed, so that each
            # starts with an empty eigendecomposition cache
            "ops": {k: hl.assemble(g) for k, g in graphs.items()},
            "f": {k: rng.uniform(0.1, 1.0, g.n) for k, g in graphs.items()},
            "lengths": lengths,
            "h": h,
        }

    def prepare(self, inputs, workdir):
        from . import oracles
        graphs = inputs["graphs"]
        star = graphs["star"]
        arm = [v for v in star.vertices if v.startswith("e0:")]
        other = [v for v in star.vertices if v.startswith("e1:")]
        pairs = {"path": {"near": (0, 1), "far": (0, graphs["path"].n - 1)},
                 "star": {"near": ("o", arm[0]), "far": (arm[-1], other[-1])}}
        grid = hl.TimeGrid.geometric(1.0, 2.0, 11)
        E0c = oracles.star_ground_energy(inputs["lengths"])
        refs = {}
        for key, g in graphs.items():
            ref = oracles.Reference(g, tridiagonal=key == "path")
            f = inputs["f"][key]
            s_norm = float(np.max(np.abs(ref.w)))
            a = ref.coeff(f)
            refs[key] = {
                "ref": ref,
                "apply": {t: (ref.apply(t, f),
                              # results that underflow compare absolutely
                              (APPLY_RTOL + APPLY_COND * t * s_norm)
                              * ref.norm(ref.apply(t, f))
                              + 1e-280 * ref.norm(f))
                          for t in APPLY_TIMES},
                "p1": ref.kernel(1.0),
                "inner_logs": ref.log_sum(grid.times, a * a),
                "pairs": {which: (x, y, ref.log_sum(
                    grid.times, ref.phi[g.vertex_index(x)]
                    * ref.phi[g.vertex_index(y)]))
                    for which, (x, y) in pairs[key].items()},
                "phi_last": ref.ground_profile(grid.times[-1]),
                "resid": ref.excited_residuals(grid.times, f),
                "A_plus_I": ref.S * np.outer(1 / np.sqrt(ref.m),
                                             np.sqrt(ref.m)) + np.eye(g.n),
                # O(h^2) convergence to the continuum ground energy k^2;
                # the error measures (k h)^2 / 12 relative
                "E0_band": ((E0c, E0c * E0c * inputs["h"] ** 2)
                            if key == "star" else None),
            }
        return {"graphs": graphs, "f": inputs["f"], "grid": grid,
                "refs": refs}

    def tasks(self, state, in_process=False):
        tasks = []
        for key, g in state["graphs"].items():
            tasks += self._graph_tasks(state, key, hl.assemble(g))
        return tasks

    def _graph_tasks(self, state, key, op):
        from . import oracles
        r, f, grid = state["refs"][key], state["f"][key], state["grid"]
        ref = r["ref"]
        tasks = []
        for t, (want, bound) in r["apply"].items():
            for method in METHODS:
                tasks.append(Task(
                    f"{key}/apply/{method.tag}/t={t:g}",
                    lambda t=t, method=method: hl.apply(op, t, f, method),
                    lambda out, want=want, bound=bound:
                        ref.norm(out - want) <= bound))
        p1 = r["p1"]
        tasks.append(Task(
            f"{key}/heat_kernel", lambda: hl.heat_kernel(op, 1.0),
            lambda out: oracles.close(out.p, p1, 0.0,
                                      1e-9 * np.max(np.abs(p1)))))

        def rate_ok(out, logs):
            if r["E0_band"] is not None:
                E0c, band = r["E0_band"]
                if abs(out.target - E0c) > band:
                    return False
            return (abs(out.target - ref.E0) <= 1e-9 * (1 + abs(ref.E0))
                    and oracles.close(out.log_values, logs, 1e-9, 1e-7))

        tasks.append(Task(f"{key}/rate_inner",
                          lambda: hl.rate_inner(op, f, f, grid),
                          lambda out: rate_ok(out, r["inner_logs"])))
        for which, (x, y, logs) in r["pairs"].items():
            tasks.append(Task(
                f"{key}/rate_kernel/{which}",
                lambda x=x, y=y: hl.rate_kernel(op, x, y, grid),
                lambda out, logs=logs: rate_ok(out, logs)))
        tasks.append(Task(f"{key}/groundstate_limit",
                          lambda: hl.groundstate_limit(op, grid),
                          lambda out: oracles.near(out.Phi, r["phi_last"],
                                                   1e-8)))
        tasks.append(Task(f"{key}/strong_convergence_check",
                          lambda: hl.strong_convergence_check(op, f, grid),
                          lambda out: oracles.close(out, r["resid"], 1e-7,
                                                    1e-12 * ref.norm(f))))
        # every generated graph is connected
        tasks.append(Task(f"{key}/positivity_improving",
                          lambda: hl.positivity_improving(op),
                          lambda out: out is True))
        eye = np.eye(op.n)
        tasks.append(Task(f"{key}/resolvent", lambda: hl.resolvent(op, 1.0),
                          lambda out: oracles.close(r["A_plus_I"] @ out, eye,
                                                    0.0, 1e-9)))
        return tasks


# ------------------------------------------------------------ perturb-ladder

LADDER_SIZES = (100, 150, 200, 250, 300)
# shares of n in the exhaustion probe's nested subgraphs
PROBE_SHARES = (1 / 25, 1 / 8, 1 / 3, 3 / 5)
TROTTER_STEPS = 200


class PerturbLadder(Workload):
    """Mid-size short-diameter graphs with potentials and truncation levels."""

    name = "perturb-ladder"

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        cases = []
        for n in LADDER_SIZES:
            g = random_graph(rng, n)
            V = hl.Potential(np.where(rng.random(n) < 0.3,
                                      rng.uniform(0.0, 6.0, n), 0.0))
            # balls around vertex 0 completed to fixed shares of n in BFS
            # order, so the work does not follow the seed's ball sizes;
            # each prefix is connected, as every vertex has a neighbour
            # one step closer to vertex 0
            order = np.argsort(_bfs_dist(g), kind="stable")
            stages = []
            for share in PROBE_SHARES:
                mask = np.zeros(n, dtype=bool)
                mask[order[:round(share * n)]] = True
                stages.append((hl.restrict(g, mask), V.values[mask]))
            cases.append({
                "g": g, "op": hl.assemble(g), "V": V,
                "f": rng.uniform(0.1, 1.0, n),
                "ks": tuple(float(k) for k in
                            np.sort(rng.uniform(0.25, 8.0, 5))),
                "stages": stages,
            })
        return {"cases": cases, "grid": hl.TimeGrid.geometric(0.5, 2.0, 6)}

    def prepare(self, inputs, workdir):
        from . import oracles
        for case in inputs["cases"]:
            g, V = case["g"], case["V"].values
            case["ref"] = oracles.Reference(g, V)
            case["ref_top"] = oracles.Reference(
                g, np.minimum(V, case["ks"][-1]))
            case["stage_E0"] = [oracles.Reference(sg, sv).E0
                                for sg, sv in case["stages"]]
            case["trotter"] = oracles.trotter_product(g, V, 1.0,
                                                      TROTTER_STEPS, case["f"])
        return inputs

    def tasks(self, state, in_process=False):
        grid = state["grid"]
        tasks = []
        for case in state["cases"]:
            op = hl.assemble(case["g"])
            tasks += self._case_tasks(case, op, grid)
        return tasks

    def _case_tasks(self, case, op, grid):
        from . import oracles
        n = op.n
        V, f, ks, ref = case["V"], case["f"], case["ks"], case["ref"]
        lam = ref.E0
        tasks = [Task(f"n{n}/lambda0", lambda: hl.lambda0(op, V),
                      lambda out: abs(out - lam) <= 1e-9 * (1 + abs(lam)))]
        for side, E in (("below", lam - 0.5), ("above", lam + 0.5)):
            want = side == "below"
            tasks.append(Task(
                f"n{n}/admissibility_check/{side}",
                lambda E=E: hl.admissibility_check(op, V, E, f, f, grid, ks),
                lambda out, want=want: out.admissible is want
                and out.holds_i is want and out.holds_ii is want))
        top = np.array([case["ref_top"].apply(t, np.minimum(f, ks[-1]))
                        for t in grid.times])

        def ladder_ok(out):
            traj = out.trajectories
            monotone = np.all(np.diff(traj, axis=0)
                              >= -1e-10 * np.max(np.abs(traj)))
            return bool(monotone) and oracles.near(traj[-1], top, 1e-9)

        tasks.append(Task(f"n{n}/truncation_ladder",
                          lambda: hl.truncation_ladder(op, V, f, grid, ks),
                          ladder_ok))
        exact = np.array([ref.apply(t, f) for t in grid.times])
        tasks.append(Task(
            f"n{n}/approximated_solution",
            lambda: hl.approximated_solution(op, V, f, grid, ks),
            lambda out: oracles.near(out.values, exact, 1e-9)
            and abs(out.lambda0 - lam) <= 1e-9 * (1 + abs(lam))))
        sv = ref.apply(1.0, f)
        tasks.append(Task(f"n{n}/sv_limit",
                          lambda: hl.sv_limit(op, V, 1.0, f, ks),
                          lambda out: oracles.near(out.value, sv, 1e-9)))
        stage_E0 = np.array(case["stage_E0"])
        tasks.append(Task(
            f"n{n}/exhaustion_divergence_probe",
            lambda: hl.exhaustion_divergence_probe(case["stages"], 1.0, ks),
            lambda out: oracles.close(out.lambda0s, stage_E0, 1e-9, 1e-9)
            and bool(np.all(np.diff(out.lambda0s) <= 1e-9))))
        tasks.append(Task(
            f"n{n}/trotter",
            lambda: hl.trotter(op, V, 1.0, TROTTER_STEPS, f),
            lambda out: oracles.near(out, case["trotter"], 1e-9)))
        return tasks


# ----------------------------------------------------------------- cli-calls

def _error_kind(stderr: str) -> str:
    try:
        return json.loads(stderr.strip().splitlines()[-1])["error"]
    except (ValueError, KeyError, IndexError, TypeError):
        return "UndeclaredExit"


def _read_tree(path: Path) -> dict[str, bytes]:
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def _with_out(argv, out) -> list[str]:
    """Insert --out before a --then (whose remainder gets its own)."""
    if "--then" in argv:
        k = argv.index("--then")
        return [*argv[:k], "--out", out, *argv[k:], "--out", out]
    return [*argv, "--out", out]


def cli_subprocess(argv) -> int:
    proc = subprocess.run([sys.executable, "-m", "heatlab.cli", *argv],
                          env=pythonpath_env(), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise DeclaredFailure(_error_kind(proc.stderr))
    return proc.returncode


def cli_in_process(argv) -> int:
    import heatlab.cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = heatlab.cli.main(argv)
    if code != 0:
        raise DeclaredFailure(_error_kind(err.getvalue()))
    return code


# The verification battery rides along with the CLI calls: one in-process
# instance of each section per pass on small graphs (n <= 50), section ->
# graphs per instance (None: the section's own fixed set).  Like the CLI
# calls it is dominated by per-call Python overhead, whose speed follows
# the host's load by up to 2x; it is kept a few per cent of the pass, so
# it is measured without setting the pass's spread.
BATTERY = (("kernel_axioms_section", 20), ("taylor_agreement_section", 10),
           ("rayleigh_section", 8), ("positivity_section", 40),
           ("cross_method_section", None), ("contraction_section", 20))
# reports each section yields per graph (cross-method: per instance)
REPORTS_PER_GRAPH = {"kernel_axioms_section": 3,
                     "taylor_agreement_section": 9,
                     "rayleigh_section": 1, "positivity_section": 1,
                     "cross_method_section": 21, "contraction_section": 3}


def battery_tasks(seeds) -> list[Task]:
    """One task per battery section; the library's own verdict and the
    number of reports are the check."""
    tasks = []
    for (section, count), seed in zip(BATTERY, seeds):
        args = (seed,) if count is None else (seed, count)
        least = REPORTS_PER_GRAPH[section] * (count or 1)
        tasks.append(Task(
            f"battery/{section}",
            lambda section=section, args=args:
                getattr(hl.verify, section)(*args),
            lambda out, least=least: out.passed
            and len(out.reports) >= least))
    return tasks


class CliCalls(Workload):
    """Every subcommand but verify, each call a fresh process, and the
    verification battery's sections in-process."""

    name = "cli-calls"
    in_children = True
    variants = (("A", 12, 0.75, 0.8), ("B", 40, 0.6, 0.7))

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        inputs = {"variants": []}
        for name, n, lam, lam2 in self.variants:
            g = random_graph(rng, n)
            graph = workdir / f"graph{name}.json"
            hl.dump_graph(g, graph)
            potential = workdir / f"potential{name}.json"
            values = rng.uniform(0.0, 3.0, n)
            potential.write_text(json.dumps(
                {v: float(x) for v, x in zip(g.vertices, values)}))
            lengths = rng.uniform(0.5, 1.5, 3)
            metric = workdir / f"metric{name}.json"
            metric.write_text(json.dumps({
                "vertices": [{"id": "o"}, {"id": "a"}, {"id": "b"},
                             {"id": "c", "bc": "dirichlet"}],
                "edges": [{"id": f"e{k}", "i": "o", "j": "abc"[k],
                           "l": float(lengths[k])} for k in range(3)],
            }))
            hl.validate_metric_graph(json.loads(metric.read_text()))
            inputs["variants"].append({
                "name": name, "g": g, "graph": str(graph),
                "potential": str(potential), "values": values,
                "metric": str(metric), "mesh": float(lengths.min()) / 8,
                "lam": lam, "lam2": lam2})
        inputs["battery_seeds"] = [int(x) for x in
                                   rng.integers(0, 2 ** 31, len(BATTERY))]
        return inputs

    def _argvs(self, v, E):
        G, P, M = v["graph"], v["potential"], v["metric"]
        name = v["name"]
        return [
            (f"spectrum/{name}", ["spectrum", "--graph", G]),
            (f"kernel/{name}", ["kernel", "--graph", G, "--t", "1.5",
                                "--method", "expm"]),
            (f"rate/{name}-inner", ["rate", "--graph", G, "--f", "ones",
                                    "--g", "random:7", "--count", "12"]),
            (f"rate/{name}-kernel", ["rate", "--graph", G, "--x", "0",
                                     "--y", str(v["g"].n - 1),
                                     "--count", "12"]),
            (f"groundstate/{name}", ["groundstate", "--graph", G,
                                     "--count", "12"]),
            (f"positivity/{name}", ["positivity", "--graph", G]),
            (f"perturb/{name}", ["perturb", "--graph", G, "--potential", P,
                                 "--E", repr(E)]),
            (f"solve/{name}", ["solve", "--graph", G, "--potential", P]),
            (f"counterexample/{name}", ["counterexample", "--lambda",
                                        str(v["lam"]), "--lambda2",
                                        str(v["lam2"]), "--t-max", "40"]),
            (f"metric/{name}", ["metric", "--graph", M, "--mesh",
                                repr(v["mesh"])]),
            (f"metric/{name}-then", ["metric", "--graph", M, "--mesh",
                                     repr(v["mesh"] / 2), "--then",
                                     "spectrum"]),
        ]

    def prepare(self, inputs, workdir):
        """Reference artefacts from in-process calls, read into memory."""
        from . import oracles
        calls = []
        for v in inputs["variants"]:
            ref = oracles.Reference(v["g"])
            lam = oracles.Reference(v["g"], v["values"]).E0
            for label, argv in self._argvs(v, lam - 0.25):
                out = workdir / "ref" / label
                out.mkdir(parents=True)
                try:
                    cli_in_process(_with_out(argv, str(out)))
                    want = _read_tree(out)
                except DeclaredFailure:
                    want = None  # every call of this task then misses
                calls.append((label, argv, want, ref.E0))
        return {"calls": calls, "workdir": workdir,
                "battery_seeds": inputs["battery_seeds"]}

    def tasks(self, state, in_process=False):
        work = state["workdir"] / "pass"
        shutil.rmtree(work, ignore_errors=True)
        run = cli_in_process if in_process else cli_subprocess
        tasks = []
        for label, argv, want, E0 in state["calls"]:
            out = work / label
            out.mkdir(parents=True)
            full = _with_out(argv, str(out))

            def check(_, out=out, want=want, E0=E0, label=label):
                got = _read_tree(out)
                if got != want:
                    return False
                if label.startswith("spectrum/"):
                    e0 = json.loads(got["spectrum.json"])["E0"]
                    return abs(e0 - E0) <= 1e-9 * (1 + abs(E0))
                if label.startswith("positivity/"):
                    return json.loads(got["positivity.json"])["improving"]
                return True

            tasks.append(Task(label, lambda full=full: run(full), check))
        return tasks + battery_tasks(state["battery_seeds"])

    @staticmethod
    def artifact_bytes(state) -> int:
        return sum(len(b) for _, _, want, _ in state["calls"] if want
                   for b in want.values())


WORKLOADS = {w.name: w for w in (LongtimePath(), PerturbLadder(),
                                 CliCalls())}
