"""The package namespace re-exports exactly the library modules' names."""

import chshkit
from chshkit import core, estimators, resort, rng, sources


def test_package_exports_the_library_modules_names():
    modules = (core, estimators, resort, rng, sources)
    expected = {"__version__"}.union(*(module.__all__ for module in modules))
    assert len(chshkit.__all__) == len(set(chshkit.__all__))
    assert set(chshkit.__all__) == expected
    for name in chshkit.__all__:
        assert hasattr(chshkit, name), name
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
