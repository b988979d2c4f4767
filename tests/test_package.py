"""Package-wide guards."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import alodsim

ROOT = Path(__file__).resolve().parent.parent

# public functions that nothing in src/alodsim or bench/ calls, each kept on
# purpose; an entry needs its reason
UNCALLED = {
    # the paper's diotic control for the loudspeaker presentation, which
    # criterion 8 checks: the mono render on the frontal speaker alone; the
    # CLI's --output-mode mono writes that speaker's one feed
    "spatial.diotic_array",
}


def test_every_public_function_is_called_from_the_package_or_the_benchmark():
    used = set()
    for path in [*(ROOT / "src" / "alodsim").glob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = set()
    for info in pkgutil.iter_modules(alodsim.__path__):
        module = importlib.import_module(f"alodsim.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and name not in used):
                uncalled.add(f"{info.name}.{name}")
    assert uncalled == UNCALLED
