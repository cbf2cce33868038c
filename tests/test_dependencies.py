"""The package needs nothing at run time beyond the standard library and
numpy, and keeps one process-global cache."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import flatfront
from flatfront import annulus

SRC = str(Path(flatfront.__file__).resolve().parent.parent)

_LIST_MODULES = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def _modules_after(code: str) -> set:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_LIST_MODULES}"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(json.loads(out.stdout))


def test_import_adds_only_stdlib_numpy_and_flatfront():
    # compared against a bare interpreter: site hooks may load third-party
    # modules of their own before any import of ours
    bare = _modules_after("")
    loaded = _modules_after("import flatfront, flatfront.cli")
    allowed = set(sys.stdlib_module_names) | {"numpy", "flatfront"}
    extra = sorted(m for m in loaded - bare if m.split(".")[0] not in allowed)
    assert "flatfront.cli" in loaded
    assert not extra, extra


def test_one_cache_in_the_package():
    # the per-radius tables live on the theta context, so the one
    # process-global cache is the per-surface record annulus._surface
    modules = [flatfront] + [
        importlib.import_module(f"flatfront.{info.name}") for info in pkgutil.iter_modules(flatfront.__path__)
    ]
    found = {
        id(value): value
        for module in modules
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    }
    assert list(found.values()) == [annulus._surface]
