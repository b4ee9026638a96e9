"""The documented package API: the README's library example and ``__all__``."""

import re
import types
from pathlib import Path

import benj

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    drift_i, drift_e = map(float, capsys.readouterr().out.split())
    assert 0.0 <= drift_i < 1e-8 and 0.0 <= drift_e < 1e-8  # 1.2e-10 and 1.6e-9


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from benj import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(benj.__all__)
    assert len(benj.__all__) == len(set(benj.__all__))
    public = {
        name for name, value in vars(benj).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(benj.__all__)
