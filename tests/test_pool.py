"""phaseinfo._pool: a leaf of the package, reached through its module only.

perfbench's tracer wraps every function that one phaseinfo module binds by
name from another and charges its calls to the layer of the module that
defines it.  It has no layer for ``_pool``, so a traced run fails on such a
binding; ``optimizer`` and ``bounds`` call ``_pool._fan_out`` instead.
"""

import ast
import importlib
import pkgutil
import sys
import types
from pathlib import Path

import phaseinfo
from phaseinfo import _pool


def test_the_pool_is_a_stdlib_leaf_that_no_module_binds_by_name():
    modules = [phaseinfo] + [
        importlib.import_module("phaseinfo." + info.name)
        for info in pkgutil.iter_modules(phaseinfo.__path__)
    ]
    bound = [
        "%s.%s" % (module.__name__, name)
        for module in modules
        if module is not _pool
        for name, value in vars(module).items()
        if isinstance(value, types.FunctionType) and value.__module__ == _pool.__name__
    ]
    assert bound == []

    imported = []
    for node in ast.walk(ast.parse(Path(_pool.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert [name for name in imported if name.split(".")[0] not in sys.stdlib_module_names] == []
