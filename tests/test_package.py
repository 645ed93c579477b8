import roughlift


def test_all_names_resolve():
    assert len(set(roughlift.__all__)) == len(roughlift.__all__)
    missing = [name for name in roughlift.__all__ if not hasattr(roughlift, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from roughlift import *", namespace)
    assert set(roughlift.__all__) <= set(namespace)
