"""The README's library example runs against the current API."""

import re
from pathlib import Path

from hermite_markets.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_price_transcript_is_what_price_prints(capsys):
    command = "hermite-markets price --payoff call --spot 100 --sigma 0.2 --rate 0.05"
    lines = README.read_text(encoding="utf-8").splitlines()
    printed = lines[lines.index(f"$ {command}") + 1]
    assert main(command.split()[1:]) == 0
    assert capsys.readouterr().out == printed + "\n"


def test_readme_library_example_runs(capsys):
    namespace = {}
    exec(compile(_library_example(), f"{README}:Library example", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3, lines
    assert namespace["free"].passed and lines[1].startswith("True ")
    assert float(lines[2]) == namespace["surface"].meta["extrapolated_value"]
