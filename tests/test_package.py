"""The package's public names: each module's ``__all__`` is the one list of
its names, and ``heptaspline`` re-exports their union."""

import os
import subprocess
import sys
from pathlib import Path

import heptaspline
from heptaspline import assembly, cascade, forces, linsolve, oracle, spline_params

#: Every module but ``cli``, which is the command line, not the library.
MODULES = (assembly, cascade, forces, linsolve, oracle, spline_params)
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def test_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert len(heptaspline.__all__) == len(set(heptaspline.__all__))
    assert set(heptaspline.__all__) == {*names, "__version__"}


def test_each_name_is_its_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(heptaspline, name) is obj
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_import_loads_neither_cli_nor_scipy():
    code = ("import sys\n"
            "import heptaspline\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'heptaspline.cli' or m.split('.')[0] == 'scipy'))\n")
    path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          encoding="utf-8", env={**os.environ, "PYTHONPATH": path},
                          timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
