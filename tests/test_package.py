import stockwave


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from stockwave import *", namespace)  # raises on a name __all__ lists but lacks
    assert [name for name in stockwave.__all__ if name not in namespace] == []
