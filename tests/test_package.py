import stockwave
from stockwave import reference


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from stockwave import *", namespace)  # raises on a name __all__ lists but lacks
    assert [name for name in stockwave.__all__ if name not in namespace] == []


def test_the_package_exports_the_oracles_themselves():
    assert [name for name in reference.__all__ if name not in stockwave.__all__] == []
    mismatched = [n for n in reference.__all__ if getattr(stockwave, n) is not getattr(reference, n)]
    assert mismatched == []
