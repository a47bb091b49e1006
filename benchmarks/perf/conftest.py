"""Tier-1 (`pytest` from the repo root) collects only ``tests/``.

The benchmark's own tests run when this directory is named:
``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

import pathlib

HERE = pathlib.Path(__file__).resolve().parent


def pytest_ignore_collect(collection_path, config):
    named = [pathlib.Path(str(arg).split("::")[0]).resolve()
             for arg in config.args]
    return not any(path == HERE or HERE in path.parents for path in named)
