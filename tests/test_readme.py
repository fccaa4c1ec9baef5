"""README's Library snippet runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_prints_its_commented_outputs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    # Each print's comment is its output, up to any ": " note, with "..." standing for the rest of a field list.
    wanted = [line.split("# ", 1)[1].split(": ", 1)[0] for line in snippet.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    printed = out.getvalue().splitlines()
    assert len(wanted) == len(printed) == 3
    for want, got in zip(wanted, printed):
        assert re.fullmatch(".*".join(map(re.escape, want.split("..."))), got), (want, got)
