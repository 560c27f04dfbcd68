"""Cold start: importing repro loads only what every command runs.

The end-to-end benchmark times a fresh interpreter running
``import repro.experiments, repro.serve, repro.check`` in every
workload's set-up.  Modules that only one path needs are imported on
that path: asyncio by realtime serving, multiprocessing by worker
pools, subprocess and platform by run manifests, and each experiment
module by the command that names it.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = "import repro.experiments, repro.serve, repro.check"

#: Standard-library modules only one path imports.  numpy 2 loads
#: ``platform`` itself, so that one is held only to no repro module
#: binding it at import time.
PATH_ONLY = ("asyncio", "multiprocessing", "subprocess", "platform")
NOT_LOADED = ("asyncio", "multiprocessing", "subprocess")

#: Every experiment module: each loads only when imported by name.
EXPERIMENT_MODULES = tuple(
    f"repro.experiments.{path.stem}"
    for path in sorted((SRC / "repro" / "experiments").glob("*.py"))
    if path.stem not in ("__init__", "runner", "setup"))

REPORT = """
import json, sys
names = {}
for name, module in list(sys.modules.items()):
    if name == "repro" or name.startswith("repro."):
        for value in vars(module).values():
            home = getattr(value, "__module__", None)
            if not isinstance(home, str):
                home = getattr(value, "__name__", "")
            names.setdefault(home.split(".")[0], []).append(name)
print(json.dumps({"modules": sorted(sys.modules), "bound_by": names}))
"""


def fresh_interpreter(code: str) -> dict:
    """Run ``code`` and then :data:`REPORT` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code + REPORT],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_the_probe_loads_no_path_only_module():
    assert "repro.experiments.fig11_schemes" in EXPERIMENT_MODULES
    report = fresh_interpreter(PROBE)
    loaded = set(report["modules"]) & set(NOT_LOADED + EXPERIMENT_MODULES)
    assert not loaded, sorted(loaded)
    bound = {name: report["bound_by"].get(name) for name in PATH_ONLY}
    assert bound == dict.fromkeys(PATH_ONLY), bound


def test_a_serial_pmap_leaves_multiprocessing_unimported():
    report = fresh_interpreter(
        PROBE + "\nfrom repro.parallel import pmap\n"
        "assert pmap(abs, [-1, -2, -3], jobs=1) == [1, 2, 3]\n")
    assert "multiprocessing" not in report["modules"]
