"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    namespace = {}
    exec(compile(_library_example(), f"{README}:Library example", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3, lines
    assert namespace["free"].passed and lines[1].startswith("True ")
    assert float(lines[2]) == namespace["surface"].meta["extrapolated_value"]
