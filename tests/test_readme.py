"""README's examples run as written: every ``gplabelnoise`` command of its
shell blocks, in order, in one working directory, and the library example."""

import re
import shlex
from pathlib import Path

from gplabelnoise import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    commands = [shlex.split(line, comments=True)
                for lang, body in BLOCKS if lang in ("sh", "bash")
                for line in body.splitlines() if line.startswith("gplabelnoise ")]
    assert any(argv[1] == "detect" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, shlex.join(argv)


def test_library_example_runs(capsys):
    code = re.search(r"Library equivalent:\s*```python\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
    exec(compile(code.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
