"""The error taxonomy: every library error is raised and has a CLI exit code."""

import inspect
import re
from pathlib import Path

import pytest

import pencil_tracemin as pt
from pencil_tracemin import cli, errors

ERRORS = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.PencilError) and cls is not errors.PencilError
]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_is_raised_by_the_library(cls):
    source = "\n".join(p.read_text() for p in Path(pt.__file__).parent.glob("*.py"))
    assert re.search(rf"\braise {cls.__name__}\(", source), f"no library code raises {cls.__name__}"


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_has_an_exit_code(cls):
    assert any(issubclass(cls, classes) for classes, _ in cli.EXIT_CODES)
