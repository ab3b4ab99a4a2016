"""Every example runs: each ``examples/*.py`` is imported and its ``main()``
called at its default sizes, on the in-process runtime."""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_there_are_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert "simulated" in capsys.readouterr().out
