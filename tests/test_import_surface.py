"""Import layering: each entry point loads only the layers it runs.

Every package ``__init__`` resolves its names on first use
(``repro._lazy``), so a covert-channel run never loads the sweep
service, the service never loads the simulator, and the CLI loads
neither before a command asks for it.  The load-set checks run in fresh
interpreters, like ``test_no_numpy_on_any_path``: the test process
itself has long since imported everything.
"""

import importlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.channel",
    "repro.defense",
    "repro.gpu",
    "repro.interconnect",
    "repro.metrics",
    "repro.noc",
    "repro.reveng",
    "repro.runner",
    "repro.sim",
    "repro.telemetry",
    "repro.testing",
    "repro.validate",
]

#: The simulator proper: what a process that simulates nothing must not load.
SIMULATOR = ["repro.gpu", "repro.noc", "repro.channel", "repro.sim.engine",
             "repro.interconnect"]


def _loaded_after(code: str, watched) -> list:
    """Run ``code`` in a fresh interpreter; the watched modules it loaded.

    A watched name matches itself and every module below it.
    """
    script = textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        watched = {list(watched)!r}
        print(json.dumps(sorted(
            name for name in sys.modules
            if any(name == w or name.startswith(w + ".") for w in watched)
        )))
    """)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, timeout=120,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_tpc_channel_run_loads_no_optional_layer():
    loaded = _loaded_after("""
        from repro.channel import TpcCovertChannel
        from repro.config import small_config

        channel = TpcCovertChannel(small_config())
        channel.calibrate(training_symbols=4)
        assert channel.transmit([1, 0, 1, 1]).error_rate == 0.0
    """, [
        "repro.interconnect", "repro.runner", "repro.analysis",
        "repro.validate", "repro.metrics", "repro.telemetry.hub",
        "repro.telemetry.timeline", "repro.telemetry.export",
        "asyncio", "multiprocessing",
    ])
    assert loaded == []


def test_service_surface_loads_no_simulator():
    loaded = _loaded_after(
        "from repro.runner import SweepService, ResultCache, SimJob",
        SIMULATOR,
    )
    assert loaded == []


def test_cli_import_loads_no_simulator():
    loaded = _loaded_after("import repro.cli", SIMULATOR + ["repro.runner"])
    assert loaded == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_unknown_name_is_an_attribute_error():
    import repro.channel

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.channel.no_such_name  # noqa: B018
    assert not hasattr(repro, "no_such_package")


def test_export_keeps_its_name_over_a_same_named_submodule():
    # repro.validate.fuzz is both a submodule and the function it defines;
    # importing the submodule first must not hide the function.
    loaded = _loaded_after("""
        import repro.validate.fuzz
        from repro.validate import fuzz
        assert callable(fuzz) and fuzz.__name__ == "fuzz", fuzz
    """, ["repro.validate.fuzz"])
    assert loaded == ["repro.validate.fuzz"]


def test_subpackages_resolve_as_attributes():
    loaded = _loaded_after("""
        import repro
        assert repro.channel.TpcCovertChannel.__name__ == "TpcCovertChannel"
        import repro.telemetry
        assert repro.telemetry.events.READ_RTT is not None
    """, ["repro.channel.tpc_channel", "repro.telemetry.events"])
    assert loaded == ["repro.channel.tpc_channel", "repro.telemetry.events"]
