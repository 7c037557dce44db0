"""README's Python examples run as written."""

import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

from signlasso import ExperimentConfig
from signlasso.schema import jsonable

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for k, block in enumerate(blocks):
        exec(compile(block, f"{README.name} python block {k}", "exec"), {})


def test_readme_lists_every_optional_config_field_with_its_default():
    # Each "- `field`: default" entry, the default as the config JSON writes it.
    section = README.read_text().split("Optional fields and their defaults:\n", 1)[1]
    section = section.split("\n\n", 1)[0]
    listed = {name: value.strip("`") for name, value in
              re.findall(r"^- `(\w+)`: (`[^`]*`|[^\s,;]+)", section, re.M)}
    defaults = {f.name: json.dumps(jsonable(f.default)) for f in fields(ExperimentConfig)
                if f.default is not MISSING}
    assert listed == defaults
