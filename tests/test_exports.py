"""Every exported name resolves, and every public name of the package
is exported by the module that defines it."""

import importlib
import pkgutil
import types

import alphagames as ag

MODULES = [importlib.import_module(f"alphagames.{m.name}")
           for m in pkgutil.iter_modules(ag.__path__)]


def test_module_exports_resolve():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_names_are_module_exports():
    for name in dir(ag):
        obj = getattr(ag, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        assert any(name in getattr(module, "__all__", ())
                   and getattr(module, name) is obj
                   for module in MODULES), name
