"""README's code examples run against the current public API."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the ``## <section>`` heading."""
    text = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_use_example_runs(capsys):
    namespace: dict = {}
    exec(compile(_python_block("Library use"), "README.md", "exec"), namespace)
    assert namespace["episode"].metrics.steps == 1100
    assert len(namespace["episode"].trace) == 1100
    assert isinstance(namespace["out"].satisfied, bool)
    assert "RunMetrics(" in capsys.readouterr().out
