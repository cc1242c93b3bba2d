import cslsh


def test_star_import_and_every_exported_name_resolve():
    namespace = {}
    exec("from cslsh import *", namespace)
    for name in cslsh.__all__:
        assert getattr(cslsh, name) is namespace[name]


def test_removed_names_are_not_exported():
    for name in ("QueryOrder", "derive_rng", "make_family", "expected_collisions"):
        assert not hasattr(cslsh, name)
        assert name not in cslsh.__all__
