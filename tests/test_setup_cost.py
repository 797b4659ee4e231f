"""tools/setup_cost.py splits a fresh process's set-up into phases; run
it on the tiny shapes in two processes and check what it prints."""

import importlib.util
from pathlib import Path

from gf2mat import _kernel

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "setup_cost.py"
_spec = importlib.util.spec_from_file_location("setup_cost", _TOOL)
setup_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(setup_cost)


def test_main_prints_each_phase(capsys, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert setup_cost.main(["--workload", "small-batch", "--runs", "2",
                            "--tiny"]) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title.startswith("small-batch seed 1, 2 fresh processes, "
                            f"kernel {_kernel.backend()} ")
    assert title.endswith("bytecode not written")
    assert header.split() == ["phase", "median_ms"]
    assert [row.split()[0] for row in rows] == [*setup_cost.PHASES, "total"]
    ms = [float(row.split()[1]) for row in rows]
    assert all(x > 0 for x in ms)
    assert ms[-1] >= max(ms[:-1])


def test_children_inherit_the_bytecode_setting(monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    [record] = setup_cost.measure("small-batch", 1, 1, tiny=True)
    assert record["dont_write_bytecode"] is False
    assert set(setup_cost.PHASES) <= set(record)
