import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README}:quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [float(line.split()[0]) for line in lines] == [0.0, 0.5, 1.0]
