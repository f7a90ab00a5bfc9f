"""The environment-variable surface of the package.

Each analysis job has one path, chosen by its arguments; an
environment variable may only select a fault plan or a kernel oracle.
This pins the full set of ``REPRO_*`` names any string in ``src/repro``
mentions (code and docstrings alike), so a new switch cannot slip in
unreviewed and a removed one cannot linger in the prose.
"""

import ast
import re
from pathlib import Path

import repro

_NAME = re.compile(r"REPRO_[A-Z_]+")


def _env_names() -> set[str]:
    names: set[str] = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(_NAME.findall(node.value))
    return names


def test_env_surface_is_exactly_the_known_switches():
    # The two *_NAIVE oracles leave once their references move to tests.
    assert _env_names() == {
        "REPRO_FAULTS",
        "REPRO_SIM_NAIVE",
        "REPRO_FRAMES_NAIVE",
    }
