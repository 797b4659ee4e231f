"""tools/fixed_cost.py times the fixed cost of a small product; run it
with a few calls and check what it prints."""

import importlib.util
from pathlib import Path

from gf2mat import _kernel

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "fixed_cost.py"
_spec = importlib.util.spec_from_file_location("fixed_cost", _TOOL)
fixed_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fixed_cost)


def test_measure_reports_the_python_part():
    row = fixed_cost.measure(32, 32, 64, repeat=2, number=3)
    assert row["shape"] == "32x32x64"
    assert row["engine"].startswith("m4rm k=")
    assert row["mul_strassen"] > 0 and row["create"] > 0
    if _kernel.active().compiled:
        assert row["extension"] > 0
        assert row["python"] == row["mul_strassen"] - row["extension"]
    else:
        assert row["extension"] is None and row["python"] is None


def test_main_prints_a_row_per_shape(capsys):
    assert fixed_cost.main(["--repeat", "2", "--number", "3"]) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title.startswith(f"kernel {_kernel.backend()} ")
    assert header.split() == ["shape", "engine", "mul_strassen", "create",
                              "extension", "python"]
    assert [row.split()[0] for row in rows] == ["32x32x64", "16x1000x40"]
    assert rows[1].split()[1] == "cubic"
    for row in rows:
        cells = row.split()[-4:]
        float(cells[0]), float(cells[1])
        if _kernel.active().compiled:
            float(cells[2]), float(cells[3])
        else:
            assert cells[2:] == ["n/a", "n/a"]
