import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The ```python block of the README's "Library use" section."""
    section = README.read_text().split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library use'"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    namespace = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    slope = namespace["report"].slope
    assert math.isfinite(slope) and 0.8 <= slope <= 1.2
    assert capsys.readouterr().out.strip() == repr(slope)
