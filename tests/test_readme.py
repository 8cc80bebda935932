"""The README's "Library sketch" must run against the public `lepskii` namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    diag = namespace["diag"]
    assert diag.lambda_hat == max(diag.jplus)
    assert capsys.readouterr().out == f"{diag.lambda_hat} {diag.jplus}\n"
