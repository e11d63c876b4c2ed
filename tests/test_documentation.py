"""Documentation-quality gates over the public API.

The deliverable promises doc comments on every public item; these tests
enforce it mechanically: every public module, class, function and
method reachable from the ``repro`` subpackages carries a docstring.
A second gate keeps the library observable rather than chatty: no bare
``print(`` outside the CLI — diagnostics go through ``repro.obs``.
"""

import importlib
import inspect
import pathlib
import re

import pytest

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.designspace",
    "repro.exploration",
    "repro.ml",
    "repro.obs",
    "repro.runtime",
    "repro.search",
    "repro.serve",
    "repro.sim",
    "repro.sim.pipeline",
    "repro.workloads",
)


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    for name in names:
        member = getattr(module, name)
        if inspect.isclass(member) or inspect.isfunction(member):
            yield name, member


@pytest.mark.parametrize("package", PACKAGES)
class TestDocstrings:
    def test_module_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__, f"{package} lacks a module docstring"

    def test_public_members_documented(self, package):
        module = importlib.import_module(package)
        undocumented = [
            name
            for name, member in _public_members(module)
            if not inspect.getdoc(member)
        ]
        assert not undocumented, (
            f"{package} exports undocumented members: {undocumented}"
        )

    def test_public_methods_documented(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name, member in _public_members(module):
            if not inspect.isclass(member):
                continue
            for method_name, method in inspect.getmembers(
                member, inspect.isfunction
            ):
                if method_name.startswith("_"):
                    continue
                # Skip members inherited from outside the project.
                if "repro" not in (method.__module__ or ""):
                    continue
                if not inspect.getdoc(method):
                    undocumented.append(f"{name}.{method_name}")
        assert not undocumented, (
            f"{package} has undocumented public methods: {undocumented}"
        )


class TestNoBarePrints:
    """Library code reports through ``repro.obs``, never ``print``.

    The CLI is the one legitimate stdout producer and is exempt.  The
    pattern requires a word boundary so identifiers merely ending in
    ``print`` (``fingerprint(``, ``footprint(``) don't trip it.
    """

    EXEMPT = ("cli.py",)
    BARE_PRINT = re.compile(r"(?<![\w.])print\(")

    def test_no_print_calls_in_library_code(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if path.name in self.EXEMPT:
                continue
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                code = line.split("#", 1)[0]
                if self.BARE_PRINT.search(code):
                    offenders.append(f"{path.relative_to(src)}:{number}")
        assert not offenders, (
            "bare print( in library code (use repro.obs logging): "
            f"{offenders}"
        )


class TestExportHygiene:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_lists_are_sorted_sets(self, package):
        module = importlib.import_module(package)
        names = getattr(module, "__all__", None)
        if names is None:
            pytest.skip("no __all__")
        assert len(set(names)) == len(names), f"duplicates in {package}.__all__"
        for name in names:
            assert hasattr(module, name), f"{package}.{name} missing"
