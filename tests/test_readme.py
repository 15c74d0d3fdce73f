import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_layout_has_one_row_per_module():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `crossfuse\.(\w+)` ", section, flags=re.M)
    modules = [p.stem for p in (ROOT / "src" / "crossfuse").glob("*.py") if p.stem != "__init__"]
    assert sorted(rows) == sorted(modules)
