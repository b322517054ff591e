"""Structure of the package source itself."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import heatlab


def _is_package_import(node) -> bool:
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").split(".")[0] == "heatlab")


def test_no_cross_module_private_imports():
    # a private helper used by another module belongs in a public home
    offenders = []
    for path in sorted(Path(heatlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if _is_package_import(node):
                offenders += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


def test_names_imported_from_the_package_are_used():
    # a name one module imports from another and never reads is a dead
    # dependency; __init__.py imports names only to export them
    unused = []
    for path in sorted(Path(heatlab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno} {alias.name}"
                   for node in ast.walk(tree) if _is_package_import(node)
                   for alias in node.names
                   if (alias.asname or alias.name) not in read]
    assert unused == []


def _private_module_reads(tree, modules) -> list[str]:
    """``module._name`` reads in ``tree`` of a package module."""
    bound = set()
    for node in ast.walk(tree):
        if _is_package_import(node):
            bound |= {alias.asname or alias.name for alias in node.names
                      if alias.name in modules}
        elif isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name for alias in node.names
                      if alias.name.split(".")[0] == "heatlab"}
    dotted = bound | {f"heatlab.{name}" for name in modules}
    return [f"{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_") and not node.attr.startswith("__")
            and ast.unparse(node.value) in dotted]


def test_no_reads_of_another_modules_private_names():
    # reading operators._name from another module reaches past its
    # public surface just as importing it does
    package = Path(heatlab.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    probe = ast.parse("from . import operators\n"
                      "import heatlab.semigroup as sg\n"
                      "operators._shift_cache, sg._exponential, sg.apply\n")
    assert _private_module_reads(probe, modules) == [
        "3 operators._shift_cache", "3 sg._exponential"]
    offenders = [f"{path.name}:{hit}"
                 for path in sorted(package.glob("*.py"))
                 for hit in _private_module_reads(
                     ast.parse(path.read_text(), filename=str(path)), modules)]
    assert offenders == []


def test_package_exports_are_listed_by_their_modules():
    # every name heatlab exports is public in the module it comes from
    init = Path(heatlab.__file__)
    home = {alias.name: node.module
            for node in ast.parse(init.read_text(), filename=str(init)).body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    unlisted = sorted(
        f"{home[name]}.{name}" for name in heatlab.__all__
        if name != "__version__"
        and name not in importlib.import_module(f"heatlab.{home[name]}").__all__)
    assert unlisted == []


def test_every_public_definition_is_referenced():
    # a public def or class that nothing names outside its own definition
    # is dead surface
    package = Path(heatlab.__file__).parent
    root = package.parent.parent
    words = Counter(
        word
        for folder in ("src", "tests", "demos", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text()))
    definitions = Counter(
        node.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_"))
    unreferenced = sorted(name for name, count in definitions.items()
                          if words[name] <= count)
    assert unreferenced == []


def test_module_caches_are_weak_keyed():
    # a module-level cache must die with the operators it serves
    package = Path(heatlab.__file__).parent
    caches = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith("_cache"):
                    caches[f"{path.stem}.{target.id}"] = ast.unparse(value)
    # data derived from one operator are held on it (OperatorRep.held);
    # the shift cache alone spans operators
    assert caches.keys() == {"operators._shift_cache"}
    assert {name: value for name, value in caches.items()
            if value != "weakref.WeakKeyDictionary()"} == {}


def test_each_module_cache_has_one_home():
    # a cache read through a second door lets a result depend on which
    # call filled it; every module-level *_cache is named inside exactly
    # one function of its module
    homes = {}
    for path in sorted(Path(heatlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        caches = {node.id for stmt in tree.body
                  if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                  for node in ast.walk(stmt)
                  if isinstance(node, ast.Name) and node.id.endswith("_cache")}
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
        for cache in caches:
            homes[f"{path.stem}.{cache}"] = [
                fn.name for fn in functions
                if any(isinstance(node, ast.Name) and node.id == cache
                       for node in ast.walk(fn))]
    assert homes == {"operators._shift_cache": ["shift_by_potential"]}


def test_sparse_cut_off_has_one_reader():
    # the dense/sparse switch of S is the series exponential's alone: the
    # Krylov route factors by sparse LU at every order, so _SPARSE_MIN_N
    # is read only where S is handed to series_expm
    cut_off = "_SPARSE_MIN_N"

    def reads(node):
        return sum(1 for child in ast.walk(node)
                   if (isinstance(child, ast.Name) and child.id == cut_off
                       and isinstance(child.ctx, ast.Load))
                   or (isinstance(child, ast.Attribute)
                       and child.attr == cut_off))

    readers, total, names = [], 0, set()
    for path in sorted(Path(heatlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        total += reads(tree)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{path.stem}.{fn.name}")
                readers += [f"{path.stem}.{fn.name}"] * reads(fn)
    assert readers == ["semigroup._exponential"] and total == 1
    assert "semigroup._scaling" not in names


def test_scipy_is_imported_only_inside_functions():
    # import heatlab loads no scipy: the sparse and Krylov routes import
    # it at first use, and dense LAPACK goes through numpy
    def module_level(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)):
                yield child
                yield from module_level(child)

    offenders = []
    for path in sorted(Path(heatlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in module_level(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert offenders == []


# the errors of each input rule: exception names, or the literal start of
# the message
RULE_ERRORS = {
    "time": ("NegativeTime", "NonPositiveTime", "time t = "),
    "datum": ("datum ",),
    "potential": ("potential must have shape", "potential V is not finite"),
    "record": (" is not an object", " has no field ",
               ", which is not a number", " has the id "),
    "level": ("truncation level ",),
    "count": (" is not an integer ",),
}


def _own_nodes(fn):
    """The nodes of ``fn``'s body outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _rule_raisers(tree, module) -> dict[str, list[str]]:
    """Per input rule, the functions of ``tree`` that raise its errors."""
    raisers = {rule: [] for rule in RULE_ERRORS}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        marks = set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                marks.add(ast.unparse(node.exc.func))
                marks |= {part.value for arg in node.exc.args
                          for part in ast.walk(arg)
                          if isinstance(part, ast.Constant)
                          and isinstance(part.value, str)}
        for rule, keys in RULE_ERRORS.items():
            if any(mark.startswith(key) for mark in marks for key in keys):
                raisers[rule].append(f"{module}.{fn.name}")
    return raisers


def test_each_input_rule_has_one_raiser():
    # a time, a vertex function, a potential, an input file's records, a
    # truncation level and an integer count are each checked in one home,
    # so the rules cannot drift apart
    probe = ast.parse(
        "def f(t):\n"
        "    def g():\n"
        "        raise NegativeTime('t < 0')\n"
        "    raise ValueError(f'datum {t} must have shape')\n")
    assert _rule_raisers(probe, "probe") == {
        "time": ["probe.g"], "datum": ["probe.f"], "potential": [],
        "record": [], "level": [], "count": []}
    raisers = {rule: [] for rule in RULE_ERRORS}
    readers = []
    for path in sorted(Path(heatlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for rule, found in _rule_raisers(tree, path.stem).items():
            raisers[rule] += found
        readers += [f"{path.stem}.{fn.name}" for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef)
                    for node in _own_nodes(fn)
                    if isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "getattr"
                    and "'values'" in ast.unparse(node)]
    assert raisers == {"time": ["semigroup.check_time"],
                       "datum": ["operators.checked_datum"],
                       "potential": ["operators.checked_potential"],
                       "record": ["graphs.read_section"],
                       "level": ["perturbation._levels"],
                       "count": ["semigroup.check_count"]}
    assert readers == ["operators.checked_potential"]


def _numpy_calls_per_group(tree) -> list[str]:
    """``line call`` of each numpy call made once per eigenvalue group.

    That is a call in the body of a ``for`` loop, or in the element or
    filter of a comprehension, whose iterable reads an attribute named
    ``groups``.
    """
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters, body = [node.iter], node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            iters = [gen.iter for gen in node.generators]
            body = [getattr(node, part) for part in ("elt", "key", "value")
                    if hasattr(node, part)]
            body += [cond for gen in node.generators for cond in gen.ifs]
        else:
            continue
        if not any(isinstance(sub, ast.Attribute) and sub.attr == "groups"
                   for it in iters for sub in ast.walk(it)):
            continue
        hits += [f"{call.lineno} {ast.unparse(call.func)}"
                 for part in body for call in ast.walk(part)
                 if isinstance(call, ast.Call)
                 and ast.unparse(call.func).split(".")[0] in ("np", "numpy")]
    return sorted(hits, key=lambda hit: int(hit.split()[0]))


def test_no_numpy_call_per_eigenvalue_group():
    # atoms are summed over the groups by array reductions; a numpy call
    # per group costs milliseconds per estimator call at n in the hundreds
    probe = ast.parse(
        "energies = [np.mean(sd.eigenvalues[a:b]) for a, b in sd.groups]\n"
        "for a, b in self.groups:\n"
        "    total += np.sum(products[a:b])\n"
        "ranges = [list(range(a, b)) for a, b in sd.groups]\n"
        "starts = np.array(sd.groups)\n")
    assert _numpy_calls_per_group(probe) == ["1 np.mean", "3 np.sum"]
    offenders = [f"{path.name}:{hit}"
                 for path in sorted(Path(heatlab.__file__).parent.glob("*.py"))
                 for hit in _numpy_calls_per_group(
                     ast.parse(path.read_text(), filename=str(path)))]
    assert offenders == []


def test_self_checks_form_no_kernel_matrix():
    # the ground-state residuals are read off the excited diagonal and the
    # factorization identity reads two kernel columns: neither check
    # builds an n x n kernel
    path = Path(heatlab.__file__).parent / "asymptotics.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    checks = {"groundstate_limit", "kernel_factorization_defects"}
    calls = {fn.name: {ast.unparse(node.func).split(".")[-1]
                       for node in ast.walk(fn) if isinstance(node, ast.Call)}
             for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and fn.name in checks}
    assert calls.keys() == checks
    assert {name: sorted(found & {"kernel_sum", "heat_kernel"})
            for name, found in calls.items()} == {name: [] for name in checks}


def _calls_of(name) -> list[str]:
    """``module.function`` of each call of ``name`` in the package, by its
    bare name or as an attribute; a call in a nested function counts for
    the module-level function around it."""
    callers = []
    for path in sorted(Path(heatlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in tree.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers += [f"{path.stem}.{fn.name}"
                            for node in ast.walk(fn)
                            if isinstance(node, ast.Call)
                            and ast.unparse(node.func).split(".")[-1] == name]
    return callers


def test_one_matrix_exponential():
    # the series exponential is the package's one builder of e^M: no name
    # is left of the Padé approximant it replaced, semigroup runs no dense
    # solve, and the series' callers are the held or fresh e^{-tS} and the
    # two orbit routes of the shift model; the positivity verdict on the
    # shift model reads the pattern of L1, not an exponential
    package = Path(heatlab.__file__).parent
    names = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str) and node.value.isidentifier():
                names.add(node.value)
    assert sorted(name for name in names if "pade" in name.lower()) == []
    tree = ast.parse((package / "semigroup.py").read_text())
    assert [ast.unparse(node.func) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "np.linalg.solve"] == []
    assert sorted(_calls_of("series_expm")) == [
        "counterexample.counterexample_rate", "counterexample.shift_orbit",
        "semigroup._exponential"]
