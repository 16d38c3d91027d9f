import importlib
import inspect
import pkgutil

import stockwave
from stockwave import reference

# every module of the package that declares public names
MODULES = [
    module for module in (
        importlib.import_module(f"stockwave.{info.name}")
        for info in pkgutil.iter_modules(stockwave.__path__)
    )
    if hasattr(module, "__all__")
]


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from stockwave import *", namespace)  # raises on a name __all__ lists but lacks
    assert [name for name in stockwave.__all__ if name not in namespace] == []


def test_the_package_exports_the_oracles_themselves():
    assert [name for name in reference.__all__ if name not in stockwave.__all__] == []
    mismatched = [n for n in reference.__all__ if getattr(stockwave, n) is not getattr(reference, n)]
    assert mismatched == []


def test_each_module_lists_only_names_it_defines():
    imported = [
        (module.__name__, name) for module in MODULES for name in module.__all__
        if (inspect.isclass(getattr(module, name)) or inspect.isfunction(getattr(module, name)))
        and getattr(module, name).__module__ != module.__name__
    ]
    assert imported == []


def test_no_name_is_listed_by_two_modules():
    listed = [name for module in MODULES for name in module.__all__]
    assert sorted(name for name in set(listed) if listed.count(name) > 1) == []


def test_the_package_exports_the_sorted_union_of_the_module_lists():
    assert stockwave.__all__ == sorted({name for module in MODULES for name in module.__all__})
