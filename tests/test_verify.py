"""Invariant battery: random instance generators and the suite runner."""
import numpy as np
import pytest

from heatlab import is_connected, run_suite
from heatlab.verify import (
    SectionResult,
    kernel_axioms_section,
    positivity_section,
    random_graph,
    random_vector,
    rayleigh_section,
)


def test_random_graph_connected_by_default(rng):
    for _ in range(25):
        g = random_graph(rng, 20)
        assert is_connected(g)
        assert 2 <= len(g.vertices) <= 20


def test_random_graph_disconnected_blocks(rng):
    hit = False
    for _ in range(25):
        g = random_graph(rng, 20, connected=False)
        if len(g.vertices) >= 2:
            assert not is_connected(g)
            hit = True
    assert hit


def test_random_vector_positive_and_nonzero(rng):
    v = random_vector(rng, 40, positive=True)
    assert np.all(v > 0)
    w = random_vector(rng, 40)
    assert np.any(w)


def test_section_result_worst_and_dict():
    section = kernel_axioms_section(seed=0, count=3)
    assert isinstance(section, SectionResult)
    assert section.passed
    assert section.worst is section.reports[
        int(np.argmax([r.rel_dev for r in section.reports]))
    ]
    d = section.to_dict()
    assert d["name"] == "kernel-axioms"
    assert d["checks"] == len(section.reports) == 9  # 3 checks per graph
    assert d["passed"] is True
    assert [r["name"] for r in d["reports"]] == [
        r.name for r in section.reports
    ]


def test_empty_section_has_no_worst():
    section = rayleigh_section(seed=0, count=0)
    assert section.worst is None
    assert section.passed  # vacuously


def test_positivity_section_alternates_connectivity():
    section = positivity_section(seed=3, count=10)
    assert section.passed
    # even indices connected, odd disconnected; both verdicts exercised
    expected = [float(i % 2 == 0) for i in range(10)]
    assert [r.oracle for r in section.reports] == expected


def test_sections_deterministic_for_fixed_seed():
    a = rayleigh_section(seed=7, count=5)
    b = rayleigh_section(seed=7, count=5)
    assert a.to_dict() == b.to_dict()


@pytest.fixture(scope="module")
def suite():
    return run_suite(0)


def test_run_suite_green(suite):
    assert suite.passed
    assert suite.seed == 0
    assert [s.name for s in suite.sections] == [
        "kernel-axioms",
        "taylor-agreement",
        "rayleigh-descent",
        "positivity-connectivity",
        "cross-method",
        "contraction",
    ]
    assert all(s.passed for s in suite.sections)


def test_suite_to_dict_shape(suite):
    d = suite.to_dict()
    assert set(d) == {"seed", "passed", "elapsed", "sections"}
    assert d["passed"] is True
    assert len(d["sections"]) == 6
    assert all(s["checks"] == len(s["reports"]) for s in d["sections"])


def test_suite_reports_deterministic(suite):
    again = run_suite(0)
    for s1, s2 in zip(suite.sections, again.sections):
        assert [r.to_dict() for r in s1.reports] == [
            r.to_dict() for r in s2.reports
        ]
