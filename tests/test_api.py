import importlib

import pytest

import evolvekit

MODULES = ["cli", "density", "geometry", "simulator", "special_functions", "verification"]
RETIRED = ["TimeJet", "jet_of_hyper_bessel", "YCoordinates", "to_y_coordinates"]


@pytest.mark.parametrize("module", [None] + MODULES)
def test_every_exported_name_resolves(module):
    mod = evolvekit if module is None else importlib.import_module(f"evolvekit.{module}")
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_retired_names_are_gone():
    for mod in [evolvekit] + [importlib.import_module(f"evolvekit.{m}") for m in MODULES]:
        for name in RETIRED:
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
            assert name not in getattr(mod, "__all__", [])
