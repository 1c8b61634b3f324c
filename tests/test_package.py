"""The package's public names: every entry of ``__all__`` is bound."""

import wavestab


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from wavestab import *", namespace)  # raises AttributeError on a stale entry
    assert len(set(wavestab.__all__)) == len(wavestab.__all__)
    assert set(wavestab.__all__) <= set(namespace)
