"""Package surface: ``contqkd.__all__`` names exactly what the package exports."""

import types

import contqkd


def test_all_matches_exported_names():
    exported = {
        name
        for name, value in vars(contqkd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(contqkd.__all__) == len(set(contqkd.__all__))
    assert set(contqkd.__all__) == exported | {"__version__"}
