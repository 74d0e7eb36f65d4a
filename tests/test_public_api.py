"""Public API surface: the names README promises exist and work."""

import importlib
import os
import pathlib
import subprocess
import sys

import repro

#: Modules whose import must load no scipy: scipy.signal costs ~75 MiB
#: and scipy.special ~30 MiB of RSS, so both are imported on first use,
#: and out-of-core pipelines that never need them keep the memory.
SCIPY_FREE_IMPORTS = (
    "repro",
    "repro.cli",
    "repro.harness",
    "repro.store",
    "repro.analysis",
    "repro.dataset.generator",
    "repro.netsim.trace",
)


def test_version_string():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_readme_quickstart_names():
    # The imports used verbatim in README's quickstart.
    for name in (
        "BandwidthModelRegistry", "CampaignConfig", "SwiftestClient",
        "generate_campaign", "make_environment",
    ):
        assert name in repro.__all__


def test_subpackages_importable():
    for module in (
        "repro.netsim", "repro.netsim.packet", "repro.netsim.crosstraffic",
        "repro.tcp", "repro.radio", "repro.wifi", "repro.dataset",
        "repro.analysis", "repro.analysis.plots", "repro.analysis.report",
        "repro.baselines", "repro.baselines.replay", "repro.core",
        "repro.core.loopback", "repro.core.variants", "repro.deploy",
        "repro.deploy.pool", "repro.harness", "repro.testbed", "repro.cli",
    ):
        importlib.import_module(module)


def test_every_export_has_a_docstring():
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj):
            assert obj.__doc__, f"{name} lacks a docstring"


def test_dunder_all_sorted():
    assert list(repro.__all__) == sorted(repro.__all__)


def test_importing_the_package_loads_no_scipy():
    code = (
        "import importlib, sys\n"
        f"for name in {SCIPY_FREE_IMPORTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
