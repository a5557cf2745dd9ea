"""Every name perfbench/tracer.py rebinds must exist in arithdyn.

The tracer wraps functions by module and attribute name, so a renamed or
deleted function would crash a traced benchmark run.  This check makes it
a test failure instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("modname, attr",
                         [(t[0], t[1]) for t in _targets()])
def test_traced_name_resolves(modname, attr):
    home = importlib.import_module("arithdyn." + modname)
    if "." in attr:
        # a method is rebound on its class, from the class dict
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(home, cls_name)).get(meth))
    else:
        assert callable(getattr(home, attr, None))
