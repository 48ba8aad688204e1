"""The tier-1 workflow file: its jobs, its inline Python and its README extraction.

The workflow runs only on a CI host; these checks catch a file that would
fail there before any step runs.
"""

import pathlib
import re
import subprocess

import pytest

yaml = pytest.importorskip("yaml")

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


@pytest.fixture(scope="module")
def jobs():
    return yaml.safe_load(WORKFLOW.read_text())["jobs"]


def steps(jobs):
    return [step for job in jobs.values() for step in job["steps"]]


def test_parses_with_its_jobs(jobs):
    assert {"tests", "oldest-numpy", "perfbench-smoke"} <= set(jobs)


def test_inline_python_compiles(jobs):
    bodies = []
    for step in steps(jobs):
        for match in re.finditer(r"python - <<'EOF'\n(.*?)^EOF$", step.get("run", ""), re.S | re.M):
            bodies.append(match.group(1))
            compile(match.group(1), f"{WORKFLOW.name}: {step['name']}", "exec")
    assert bodies


def test_readme_commands_step_finds_commands(jobs):
    (step,) = [step for step in steps(jobs) if step.get("name") == "readme-commands"]
    (program,) = re.findall(r"^awk '(.*)' \"\$readme\"", step["run"], re.M)
    lines = subprocess.run(["awk", program, str(ROOT / "README.md")], capture_output=True, text=True,
                           check=True).stdout.splitlines()
    assert lines and all(line.startswith("zfhp ") for line in lines)
