import importlib
import inspect
import pkgutil

import pytest

import giplab

# the package and each of its modules that declares an __all__
MODULES = [
    name for name in ["giplab"] + [
        "giplab." + info.name for info in pkgutil.iter_modules(giplab.__path__)]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    # every entry exists, and every public function or class the module
    # defines is exported, so a deletion cannot leave a stale entry
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [e for e in exported if not hasattr(module, e)] == []
    defined = [
        key for key, value in vars(module).items()
        if not key.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == name
    ]
    assert [d for d in defined if d not in exported] == []
