import os
import subprocess
import sys
from pathlib import Path

import phaseinfo as pi
from phaseinfo import bounds, circular, errors, measurement, optimizer, serialize, states

MODULES = (states, circular, errors, measurement, optimizer, serialize, bounds)


def test_package_reexports_each_module_all():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pi, name) is getattr(module, name), (module.__name__, name)


def test_package_all_is_the_union_of_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert len(set(pi.__all__)) == len(pi.__all__)
    assert sorted(pi.__all__) == sorted(union)


def test_import_loads_numpy_only():
    # numpy is the only runtime dependency; the CLI's argparse stays unloaded too
    code = (
        "import sys, phaseinfo; "
        "print(sorted(m for m in sys.modules "
        "if m == 'phaseinfo.cli' or m.split('.')[0] in ('scipy', 'matplotlib')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(pi.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
