"""API quality gates: docstring coverage, export hygiene and settings.

Every public module, class, and function in the library must carry a
docstring (deliverable: "doc comments on every public item"), every
``__all__`` name must resolve, and the settable parameters of the main
entry points are pinned.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.baselines import (
    EcmpScheduler,
    GlobalFirstFitScheduler,
    HederaScheduler,
    PeriodicVlbScheduler,
    TexcpScheduler,
)
from repro.core import DardScheduler
from repro.experiments import ScenarioConfig
from repro.simulator import Network
from repro.simulator.detectors import PredictiveElephantDetector


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":
            continue  # running it parses argv and exits
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_documented(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_members_documented(self, module):
        """Every public class/function (and public method, counting
        docstrings inherited from base classes) carries documentation."""
        undocumented = []
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(member) or inspect.isfunction(member)):
                continue
            if getattr(member, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not (inspect.getdoc(member) or "").strip():
                undocumented.append(name)
                continue
            if inspect.isclass(member):
                for method_name, method in vars(member).items():
                    if method_name.startswith("_"):
                        continue
                    if not inspect.isfunction(method):
                        continue
                    bound = getattr(member, method_name, method)
                    if not (inspect.getdoc(bound) or "").strip():
                        undocumented.append(f"{name}.{method_name}")
        assert not undocumented, f"{module.__name__}: {undocumented}"


class TestExports:
    @pytest.mark.parametrize(
        "module",
        [m for m in ALL_MODULES if hasattr(m, "__all__")],
        ids=lambda m: m.__name__,
    )
    def test_all_names_resolve(self, module):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"

    def test_top_level_surface_is_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestSettings:
    #: Every parameter of the main entry points and every ScenarioConfig
    #: field. A parameter that production always passes one value for is a
    #: module constant instead; a new option must edit this list and name
    #: its production caller in DESIGN.md "Settings".
    PARAMETERS = {
        "Network": ["topology", "elephant_age_s", "elephant_detector"],
        "DardScheduler": [
            "delta_bps",
            "query_interval_s",
            "scheduling_interval_s",
            "jitter_range_s",
            "synchronized",
        ],
        "EcmpScheduler": [],
        "PeriodicVlbScheduler": [],
        "HederaScheduler": ["scheduling_interval_s", "annealing_iterations"],
        "GlobalFirstFitScheduler": ["scheduling_interval_s"],
        "TexcpScheduler": ["granularity"],
        "PredictiveElephantDetector": ["network"],
    }
    SCENARIO_FIELDS = [
        "topology",
        "pattern",
        "scheduler",
        "arrival_rate_per_host",
        "duration_s",
        "flow_size_bytes",
        "seed",
        "topology_params",
        "pattern_params",
        "scheduler_params",
        "network_params",
        "arrival",
        "arrival_params",
        "drain_limit_s",
        "link_events",
    ]

    def test_settable_parameters_are_pinned(self):
        classes = [
            Network,
            DardScheduler,
            EcmpScheduler,
            PeriodicVlbScheduler,
            HederaScheduler,
            GlobalFirstFitScheduler,
            TexcpScheduler,
            PredictiveElephantDetector,
        ]
        found = {
            cls.__name__: [
                name for name in inspect.signature(cls.__init__).parameters if name != "self"
            ]
            for cls in classes
        }
        assert found == self.PARAMETERS
        fields = [field.name for field in dataclasses.fields(ScenarioConfig)]
        assert fields == self.SCENARIO_FIELDS
