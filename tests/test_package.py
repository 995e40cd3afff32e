import types

import hookcounts


def test_package_root_exports_nothing():
    # names are imported from the submodules; the root binds only its version
    # (and the submodules the import system hangs on it once they load)
    public = {
        name
        for name, value in vars(hookcounts).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set()
    assert isinstance(hookcounts.__version__, str)
