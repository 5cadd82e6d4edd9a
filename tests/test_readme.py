"""Every call the README's "Key entry points" table names exists in the package."""

import importlib
import re
from pathlib import Path

import pencil_tracemin as pt

README = Path(__file__).resolve().parent.parent / "README.md"


def entry_points():
    """The dotted names in the table's call column, arguments dropped.

    ``FeasibleSampler(problem).sample(spread, rng)`` names
    ``FeasibleSampler.sample``; ``build_witness / certify_unbounded`` names
    both; ``hyperbolic.*`` names the submodule.
    """
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = lines[lines.index("Key entry points:") + 1:]
    names = []
    for line in rows:
        if names and not line.startswith("|"):
            break
        cell = re.match(r"\| `([^`]+)` \|", line)
        if cell:
            for call in cell.group(1).split(" / "):
                names.append(re.sub(r"\([^()]*\)", "", call).strip())
    return names


def resolve(name):
    """The attribute of pencil_tracemin, or of the submodule it names, that ``name`` is."""
    head, *rest = name.split(".")
    obj = getattr(pt, head, None) or importlib.import_module(f"pencil_tracemin.{head}")
    for part in rest:
        if part != "*":
            obj = getattr(obj, part)
    return obj


def test_readme_entry_points_resolve():
    names = entry_points()
    assert len(names) >= 8, names
    missing = []
    for name in names:
        try:
            resolve(name)
        except (AttributeError, ModuleNotFoundError):
            missing.append(name)
    assert not missing, f"README names calls the package lacks: {missing}"
