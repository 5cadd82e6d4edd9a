"""Every call the README's "Key entry points" table names exists in the package,
and every record field and JSON key it names is one the package has."""

import dataclasses
import importlib
import json
import re
from pathlib import Path

import numpy as np

import pencil_tracemin as pt
from pencil_tracemin.cli import main

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


def test_readme_pair_analysis_names_are_attributes():
    # A deleted PairAnalysis field cannot linger in the docs.
    names = set(re.findall(r"`((?:pos|neg)_\w+)`", README.read_text(encoding="utf-8")))
    assert len(names) >= 8, names
    have = {f.name for f in dataclasses.fields(pt.PairAnalysis)} | set(dir(pt.PairAnalysis))
    missing = sorted(names - have)
    assert not missing, f"README names PairAnalysis attributes it lacks: {missing}"


def test_readme_typed_spectrum_keys_are_printed(tmp_path, capsys):
    # The keys the README lists for a typed_spectrum entry are those that
    # `analyze --json` prints for each entry of the golden pair.
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"Each entry of `typed_spectrum\.pos`/`neg` has the keys ([^:.]+)", text)
    assert listed, "README lists no typed_spectrum entry keys"
    keys = set(re.findall(r"`(\w+)`", listed.group(1)))
    path = str(tmp_path / "pair.json")
    pt.matcore.save_pair(path, pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, -1.0])))
    assert main(["--json", "analyze", path]) == 0
    spectrum = json.loads(capsys.readouterr().out)["typed_spectrum"]
    entries = spectrum["pos"] + spectrum["neg"]
    assert len(entries) == 2
    for entry in entries:
        assert set(entry) == keys, (sorted(entry), sorted(keys))
