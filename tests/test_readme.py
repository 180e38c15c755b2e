"""README.md's examples run as written.

The library quick start and the CLI config are parsed from README.md itself,
so a README that names a removed function or option fails here.  The config
is also committed as ``data/readme_config.json`` (what CI feeds the installed
``agtrack`` script), and must stay equal to README's block.
"""
import json
import re
from pathlib import Path

from agtrack.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
CONFIG = Path(__file__).parent / "data" / "readme_config.json"


def readme_block(heading, lang):
    """The first ``lang`` code block under README's ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_block("Library quick start", "python"), str(README), "exec"), {})
    assert (tmp_path / "trace.csv").read_text().startswith("k,gap,")


def test_cli_config_runs_and_every_certificate_holds(tmp_path):
    assert json.loads(CONFIG.read_text()) == json.loads(readme_block("CLI", "json"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(CONFIG), "--out", str(out), "--deterministic"]) == 0
    report = json.loads((out / "certificates.json").read_text())
    assert report["certificates"]
    assert all(cert["holds"] for cert in report["certificates"])
