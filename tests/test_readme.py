"""README's code runs as written, so a rename that misses it fails here."""

import json
import pathlib
import re

from gesp.bench import config_from_dict

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(language: str) -> str:
    """The first fenced block of the language."""
    return re.search(rf"^```{language}\n(.*?)^```$", README, re.S | re.M).group(1)


def test_quick_start_runs(capsys):
    exec(_block("python"), {})
    p_used, error = capsys.readouterr().out.split()
    assert int(p_used) == 3 and float(error) >= 0


def test_config_example_loads():
    config = config_from_dict(json.loads(re.sub(r"//.*", "", _block("jsonc"))))
    assert len(config.algorithms) == 8 and config.k == 10
