"""The README's "Tuned moons" figures equal the checked-in sweep they came from.

``experiments/tuned-moons/`` holds the config, the grid and the
``results.json`` that ``rpspectral sweep`` wrote for them. These tests read
that file; they re-run nothing.
"""

import dataclasses
import json
import re
from pathlib import Path

from rpspectral.harness import config_from_dict, config_to_dict

ROOT = Path(__file__).resolve().parent.parent
SWEEP = ROOT / "experiments" / "tuned-moons"


def _read(name):
    return json.loads((SWEEP / name).read_text(encoding="utf-8"))


def _tuned_moons_section():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("### Tuned moons\n", 1)[1].split("\n## ", 1)[0]


def test_the_sweep_ran_the_checked_in_config_and_grid():
    config = config_from_dict(_read("config.json"))
    results = _read("results.json")
    assert results["base_config"] == config_to_dict(config)
    assert results["grid"] == _read("grid.json")
    # The checked-in config is the README's, with "runs": 12.
    (block,) = re.findall(r"^```json\n(.*?)^```", _tuned_moons_section(), flags=re.M | re.S)
    assert dataclasses.replace(config_from_dict(json.loads(block)), runs=12) == config


def test_readme_tuned_moons_figures_match_the_checked_in_results():
    cells = _read("results.json")["cells"]
    summaries = [cell["experiment"]["summary"] for cell in cells]
    assert all(s["runs_total"] == 12 and s["runs_failed"] == 0 for s in summaries)

    def listed(key):
        *head, last = [f"{s[key]:.2f}" for s in summaries]
        return f"{', '.join(head)} and {last}"

    text = " ".join(_tuned_moons_section().split())
    means = ", ".join(
        f"`{cell['values']['method.strategy']}` {s['mean_ari']:.2f}"
        for cell, s in zip(cells, summaries)
    )
    for expected in (
        f"Mean ARI per strategy: {means}",
        f"standard deviations (`std_ari`) of {listed('std_ari')}",
        f"lowest runs of {listed('min_ari')}",
    ):
        assert expected in text, f"README lacks {expected!r}"
