"""Meta-tests on the public API surface.

Guards the contract a downstream user relies on: everything exported in
``__all__`` resolves, every public module is documented, and the README's
quickstart snippet actually runs.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro


PACKAGES = [
    "repro",
    "repro.tensor",
    "repro.nn",
    "repro.optim",
    "repro.data",
    "repro.augment",
    "repro.ssl",
    "repro.selection",
    "repro.memory",
    "repro.replay",
    "repro.continual",
    "repro.eval",
    "repro.utils",
    "repro.scenarios",
    "repro.runtime",
    "repro.parallel",
]


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.__all__ lists missing {name!r}"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_every_module_documented(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__, f"{package_name} has no module docstring"
        for info in pkgutil.iter_modules(package.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"{package_name}.{info.name}")
            assert module.__doc__, f"{module.__name__} has no module docstring"

    def test_version_exposed(self):
        assert repro.__version__


class TestPublicClassesDocumented:
    def test_top_level_exports_have_docstrings(self):
        undocumented = [
            name for name in repro.__all__
            if name != "__version__" and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"undocumented public symbols: {undocumented}"


class TestQuickstartSnippet:
    def test_readme_quickstart_runs(self):
        """The exact flow shown in README's Quickstart section."""
        from repro import ContinualConfig, load_image_benchmark, run_method

        sequence = load_image_benchmark("cifar10-like", scale="ci")
        result = run_method("edsr", sequence, ContinualConfig(epochs=1), seed=0)
        assert 0.0 <= result.acc() <= 1.0
        assert result.accuracy_matrix.shape == (5, 5)


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _repro_imports(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Local name -> (module, attribute) for every ``repro`` import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "repro":
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    names[alias.asname or alias.name] = (alias.name, None)
    return names


def _resolve(module: str, attr: str | None):
    """What ``from module import attr`` (or ``import module``) binds."""
    package = importlib.import_module(module)
    if attr is None:
        return package
    if not hasattr(package, attr):
        importlib.import_module(f"{module}.{attr}")
    return getattr(package, attr)


def _probe_calls(tree: ast.Module, helper: str) -> list[tuple]:
    """``(first_arg, second_arg)`` of every call to ``helper``."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == helper:
            calls.append(tuple(node.args[:2]))
    return calls


class TestBenchmarkSurface:
    """The ``repro`` names the benchmark harness imports and patches exist.

    ``perfbench/`` drives the package from outside ``src/``: its repeat
    script imports entry points by name and its probes rebind functions
    and methods by name.  A rename or deletion that breaks it fails here.
    """

    #: Names the benchmark relies on, checked even if the parse below
    #: stopped seeing them (the loop-bound probe classes in particular).
    REQUIRED = [
        ("repro.scenarios", "run_scenario_method"),
        ("repro.continual", "run_method"),
        ("repro.continual", "ContinualConfig"),
        ("repro.data", "load_image_benchmark"),
        ("repro.scenarios.registry", "build_stream"),
        ("repro.eval.protocol", "evaluate_tasks"),
        ("repro.eval.protocol", "evaluate_task"),
        ("repro.eval.protocol", "extract_representations"),
        ("repro.utils.serialization", "save_transfer_matrix"),
        ("repro.replay.noise", "noise_scales"),
        ("repro.tensor.memplan", "stats_snapshot"),
        ("repro.parallel.step", "ShardedStep.__init__"),
        ("repro.parallel.step", "ShardedStep.loss_backward"),
        ("repro.parallel.pool", "WorkerPool.close"),
        ("repro.eval.knn", "KNNClassifier.fit"),
        ("repro.eval.knn", "KNNClassifier.accuracy"),
        ("repro.eval.linear_probe", "LinearProbe.fit"),
        ("repro.eval.linear_probe", "LinearProbe.accuracy"),
        ("repro.eval.ridge", "RidgeProbe.fit"),
        ("repro.eval.ridge", "RidgeProbe.accuracy"),
    ]

    @pytest.mark.parametrize("module,qualname", REQUIRED)
    def test_required_name_resolves(self, module, qualname):
        owner_name, _, method = qualname.partition(".")
        owner = _resolve(module, owner_name)
        if method:
            # The probes patch ``cls.__dict__[name]``: an inherited
            # method would not do.
            assert method in owner.__dict__, f"{module}.{qualname}"
        assert callable(owner)

    @pytest.mark.parametrize("script", ["repeat.py", "probes.py"])
    def test_imports_resolve(self, script):
        imports = _repro_imports(_perfbench_tree(script))
        assert imports, f"perfbench/{script} imports nothing from repro"
        for module, attr in imports.values():
            _resolve(module, attr)

    def test_patched_functions_resolve(self):
        calls = _probe_calls(_perfbench_tree("probes.py"), "_replace_function")
        assert calls
        for module_arg, name_arg in calls:
            module = importlib.import_module(module_arg.value)
            assert inspect.isfunction(getattr(module, name_arg.value)), \
                f"{module_arg.value}.{name_arg.value}"

    def test_patched_methods_resolve(self):
        tree = _perfbench_tree("probes.py")
        imports = _repro_imports(tree)
        calls = (_probe_calls(tree, "_replace_method")
                 + _probe_calls(tree, "_overriders"))
        named = [(cls_arg.id, name_arg.value) for cls_arg, name_arg in calls
                 if isinstance(cls_arg, ast.Name) and cls_arg.id in imports]
        assert named
        for cls_name, method in named:
            cls = _resolve(*imports[cls_name])
            assert method in cls.__dict__, f"{cls_name}.{method}"
