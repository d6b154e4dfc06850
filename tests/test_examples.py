"""The fast examples run end to end.

``failure_recovery.py`` asserts equal business outcomes through two
injected crashes — the one end-to-end restore with the real statefun
functions.  The other examples take tens of seconds each and stay out.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize("name", ["failure_recovery", "seller_dashboard"])
def test_example_main_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out
