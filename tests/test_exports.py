import importlib
import pkgutil

import pytest

import rumornet

MODULES = ["rumornet"] + sorted(info.name for info in pkgutil.walk_packages(rumornet.__path__, "rumornet."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_modules_found():
    assert {"rumornet", "rumornet.meanfield", "rumornet.expcli.scenario"} <= set(MODULES)
