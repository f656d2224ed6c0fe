"""README stays a map of the code: the names it cites exist."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import nilflow

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(nilflow.__path__)}
# a backticked dotted name: `module.name`, `nilflow.module.name`, `Class.attr`
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def _owner(head):
    """The nilflow object a dotted name starts from: the package, one of its
    modules, a module alias such as `lx` or a class such as `Report`; None
    when the name is not nilflow's (`fractions.Fraction`)."""
    if head == "nilflow":
        return nilflow
    if head in MODULES:
        return importlib.import_module(f"nilflow.{head}")
    for name in sorted(MODULES):
        obj = vars(importlib.import_module(f"nilflow.{name}")).get(head)
        home = getattr(obj, "__module__", None) or getattr(obj, "__name__", "")
        if home.startswith("nilflow."):
            return obj
    return None


def _resolve(obj, parts):
    for part in parts:
        if not hasattr(obj, part) and inspect.ismodule(obj):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)


def test_every_dotted_nilflow_name_in_readme_resolves():
    names = sorted(set(DOTTED.findall(README.read_text())))
    checked = []
    for dotted in names:
        head, *parts = dotted.split(".")
        owner = _owner(head)
        if owner is None:
            continue
        try:
            _resolve(owner, parts)
        except (AttributeError, ImportError) as e:
            raise AssertionError(f"README cites `{dotted}`: {e}") from e
        checked.append(dotted)
    # the module table alone cites 19 nilflow names
    assert len(checked) >= 19, checked
