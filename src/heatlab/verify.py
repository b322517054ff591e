"""Seeded random instances and the cross-cutting invariant battery.

Every section pits an independent route against the production one on
streams of seeded random graphs: kernel axioms against brute
composition, all three semigroup evaluators against the certified
Taylor exponential, the eigensolver's ground energy against Rayleigh
descent, and the positivity verdict against plain connectivity.  The
suite is what `heatlab verify` runs and what the acceptance tests
reuse; identical seeds give identical reports.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph, build_graph, is_connected
from .operators import assemble, eigendecompose, shift_by_potential
from .semigroup import (
    KRYLOV,
    SCALING_SQUARING,
    SPECTRAL,
    apply,
    chapman_kolmogorov_defect,
    heat_kernel,
    kernel_symmetry_defect,
)
from .reference import OracleReport, rayleigh_min, taylor_expm
from .asymptotics import positivity_improving

__all__ = [
    "random_graph",
    "random_vector",
    "SectionResult",
    "SuiteResult",
    "kernel_axioms_section",
    "taylor_agreement_section",
    "rayleigh_section",
    "positivity_section",
    "cross_method_section",
    "contraction_section",
    "run_suite",
]


def random_graph(rng: np.random.Generator, n_max: int = 50, *,
                 connected: bool = True, c_scale: float = 0.5
                 ) -> WeightedGraph:
    """Random weighted graph: spanning tree plus chords, random m and c.

    With ``connected=False`` two independently connected blocks are
    built with no edges between them, giving a graph whose
    disconnection is structural rather than accidental.
    """
    n = int(rng.integers(2, n_max + 1))
    if not connected:
        n = max(n, 2)
        n1 = int(rng.integers(1, n))
        blocks = [(0, n1), (n1, n)]
    else:
        blocks = [(0, n)]
    edges: list[tuple[str, str, float]] = []
    seen: set[tuple[int, int]] = set()

    def add(i: int, j: int):
        key = (min(i, j), max(i, j))
        if i == j or key in seen:
            return
        seen.add(key)
        edges.append((str(key[0]), str(key[1]),
                      float(rng.uniform(0.2, 2.0))))

    for lo, hi in blocks:
        for i in range(lo + 1, hi):
            add(i, int(rng.integers(lo, i)))
        for _ in range((hi - lo) // 2):
            add(int(rng.integers(lo, hi)), int(rng.integers(lo, hi)))
    m = rng.uniform(0.5, 2.0, size=n)
    c = np.where(rng.random(n) < 0.5, rng.uniform(0.0, c_scale, size=n), 0.0)
    return build_graph([str(i) for i in range(n)], edges, m=m, c=c)


def random_vector(rng: np.random.Generator, n: int, *,
                  positive: bool = False) -> np.ndarray:
    if positive:
        return rng.uniform(0.1, 1.0, size=n)
    v = rng.standard_normal(n)
    while not np.any(v):
        v = rng.standard_normal(n)
    return v


@dataclass(frozen=True)
class SectionResult:
    name: str
    reports: tuple[OracleReport, ...]
    passed: bool

    @property
    def worst(self) -> OracleReport | None:
        if not self.reports:
            return None
        return max(self.reports, key=lambda r: r.rel_dev)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": len(self.reports),
            "reports": [r.to_dict() for r in self.reports],
        }


def _section(name, seed, maker) -> SectionResult:
    reports = tuple(maker(np.random.default_rng(np.uint64(seed))))
    return SectionResult(name=name, reports=reports,
                         passed=all(r.passed for r in reports))


def kernel_axioms_section(seed: int = 0, count: int = 100) -> SectionResult:
    """Kernel symmetry and Chapman-Kolmogorov composition on random graphs."""

    def maker(rng):
        for i in range(count):
            op = assemble(random_graph(rng, 50))
            yield OracleReport.compare(
                f"symmetry defect #{i}", 0.0,
                kernel_symmetry_defect(heat_kernel(op, 1.0)),
                1e-10, seed)
            for t, s in ((0.5, 0.5), (0.3, 1.7)):
                yield OracleReport.compare(
                    f"composition defect t={t} s={s} #{i}", 0.0,
                    chapman_kolmogorov_defect(op, t, s),
                    1e-10, seed)

    return _section("kernel-axioms", seed, maker)


def taylor_agreement_section(seed: int = 0, count: int = 100
                             ) -> SectionResult:
    """Production evaluators against the certified Taylor exponential."""

    def maker(rng):
        for i in range(count):
            g = random_graph(rng, 40)
            op = assemble(g)
            f = random_vector(rng, op.n)
            V = rng.uniform(0.0, 2.0, size=op.n)
            k = float(rng.uniform(0.5, 1.5))
            shifted = shift_by_potential(op, np.minimum(V, k))
            for t in (0.1, 1.0, 10.0):
                rs = np.sqrt(op.m)
                E = taylor_expm(op.S, t)
                expected = (E.matrix @ (rs * f)) / rs
                got = apply(op, t, f)
                yield OracleReport.compare(
                    f"apply n={op.n} t={t} #{i}", 0.0,
                    float(np.linalg.norm(got - expected))
                    / max(float(np.linalg.norm(expected)), 1e-300),
                    1e-9, seed)
                kernel = heat_kernel(op, t).p
                oracle_kernel = E.matrix / np.outer(rs, rs)
                scale = float(np.max(np.abs(oracle_kernel)))
                yield OracleReport.compare(
                    f"heat_kernel n={op.n} t={t} #{i}", 0.0,
                    float(np.max(np.abs(kernel - oracle_kernel))) / scale,
                    1e-9, seed)
                Es = taylor_expm(shifted.S, t)
                expected_s = (Es.matrix @ (rs * f)) / rs
                got_s = apply(shifted, t, f)
                yield OracleReport.compare(
                    f"truncated n={op.n} t={t} #{i}", 0.0,
                    float(np.linalg.norm(got_s - expected_s))
                    / max(float(np.linalg.norm(expected_s)), 1e-300),
                    1e-9, seed)

    return _section("taylor-agreement", seed, maker)


def rayleigh_section(seed: int = 0, count: int = 60) -> SectionResult:
    """Coordinate-descent Rayleigh minimum against the eigensolver.

    The descent value must upper-bound E0 and close the gap to 1e-6.
    """

    def maker(rng):
        for i in range(count):
            op = assemble(random_graph(rng, 40))
            e0 = eigendecompose(op).E0
            ray = rayleigh_min(op, samples=50,
                              seed=int(rng.integers(0, 2 ** 32)))
            yield OracleReport.compare(
                f"rayleigh n={op.n} #{i}", e0, ray, 1e-6, seed)
            if ray < e0 - 1e-10 * (1.0 + abs(e0)):
                yield OracleReport.compare(
                    f"rayleigh-upper-bound #{i}", e0, ray, 0.0, seed)

    return _section("rayleigh-descent", seed, maker)


def positivity_section(seed: int = 0, count: int = 200) -> SectionResult:
    """Positivity improvement equals connectivity, half the stream
    intentionally disconnected.  A disagreement does not show up as a
    failed report: positivity_improving raises
    PositivityConnectivityMismatch, which the caller maps to exit 3.
    """

    def maker(rng):
        for i in range(count):
            connected = i % 2 == 0
            g = random_graph(rng, 30, connected=connected)
            verdict = positivity_improving(assemble(g))
            yield OracleReport.compare(
                f"positivity vs connectivity #{i}",
                float(is_connected(g)), float(verdict), 0.0, seed)

    return _section("positivity-connectivity", seed, maker)


def cross_method_section(seed: int = 0) -> SectionResult:
    """Spectral, scaling-squaring and Krylov evaluators must agree."""

    def maker(rng):
        for n in (50, 120, 200):
            g = random_graph(rng, n)
            op = assemble(g)
            f = random_vector(rng, op.n)
            scale = op.norm(f)
            for t in (0.1, 1.0, 10.0):
                ref = apply(op, t, f, SPECTRAL)
                for method in (SCALING_SQUARING, KRYLOV):
                    dev = op.norm(apply(op, t, f, method) - ref)
                    yield OracleReport.compare(
                        f"{method.tag} vs spectral n={op.n} t={t}", 0.0,
                        dev / scale, 1e-9, seed)
            yield OracleReport.compare(
                f"composition cross-method n={op.n}", 0.0,
                chapman_kolmogorov_defect(op, 0.7, 0.9, SPECTRAL,
                                          SCALING_SQUARING),
                1e-9, seed)

    return _section("cross-method", seed, maker)


def contraction_section(seed: int = 0, count: int = 50) -> SectionResult:
    """||e^{-t(L - E0)} f||_m <= ||f||_m once the spectrum is shifted
    to start at zero."""

    def maker(rng):
        for i in range(count):
            op = assemble(random_graph(rng, 40))
            e0 = eigendecompose(op).E0
            f = random_vector(rng, op.n)
            norm_f = op.norm(f)
            for t in (0.5, 2.0, 8.0):
                shifted_norm = op.norm(np.exp(e0 * t) * apply(op, t, f))
                yield OracleReport.compare(
                    f"contraction t={t} #{i}", 1.0,
                    max(shifted_norm / norm_f, 1.0), 1e-12, seed)

    return _section("contraction", seed, maker)


@dataclass(frozen=True)
class SuiteResult:
    seed: int
    sections: tuple[SectionResult, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sections)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "elapsed": self.elapsed,
            "sections": [s.to_dict() for s in self.sections],
        }


def run_suite(seed: int = 0) -> SuiteResult:
    """All sections with sub-seeds derived from one master seed."""
    start = time.perf_counter()
    sections = (
        kernel_axioms_section(seed),
        taylor_agreement_section(seed + 1),
        rayleigh_section(seed + 2),
        positivity_section(seed + 3),
        cross_method_section(seed + 4),
        contraction_section(seed + 5),
    )
    return SuiteResult(seed=seed, sections=sections,
                       elapsed=time.perf_counter() - start)
