"""The README runs against the public API it documents, and names what exists."""

import contextlib
import importlib
import io
import re
from pathlib import Path

from pocs import experiments

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_a_direction_error():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block, "README.md has no python block"
    quoted = re.search(r"# ([0-9.]+) with this seed", block.group(1))
    assert quoted, "the quick start quotes no printed value"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), "README.md quick start", "exec"), {})
    printed = out.getvalue().split()
    assert len(printed) == 1, printed
    assert round(float(printed[0]), 4) == float(quoted.group(1))


def test_every_named_pocs_attribute_resolves():
    names = set(re.findall(r"\bpocs\.(\w+)\.(\w+)", README.read_text(encoding="utf-8")))
    assert ("experiments", "_draw_chunk") in names
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(f"pocs.{module}"), name), f"pocs.{module}.{name}"


def test_stream_key_quote_carries_the_engine():
    quoted = re.findall(r'fnv1a64\("([^|"]*)\|', README.read_text(encoding="utf-8"))
    assert quoted == [experiments.ENGINE]
