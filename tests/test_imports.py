"""Start-up pays only for the command that runs: what each entry point imports.

Each test runs in a fresh interpreter, since a module once imported stays in
sys.modules for the rest of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import _runnable_args

from nsslice.cli import EXIT_CHECK_FAILED, EXIT_ERROR, EXIT_OK

SRC = Path(__file__).resolve().parents[1] / "src"

# the package modules that `import nsslice.cli` loads
CLI_MODULES = {"nsslice", "nsslice.cli", "nsslice.fieldio", "nsslice.geometry"}

# the modules each subcommand loads besides those
COMMAND_MODULES = {
    "project": set(),
    "solve": {"nsslice.analysis", "nsslice.galerkin"},
    "uniqueness": {"nsslice.analysis", "nsslice.galerkin"},
    "quadform": {"nsslice.quadform"},
    "stratify": {"nsslice.stratify"},
    "mms": {"nsslice.galerkin", "nsslice.mms"},
}

LOADED = "sorted(k for k in sys.modules if k.split('.')[0] == 'nsslice')"


def _fresh(code: str):
    """Run code in a fresh interpreter and parse the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_only_its_four_modules():
    loaded = _fresh(f"import json, sys\nimport nsslice.cli\nprint(json.dumps({LOADED}))\n")
    assert set(loaded) == CLI_MODULES


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_its_modules(tmp_path, command):
    args = [command, "--out", str(tmp_path / "out"), *_runnable_args(command, tmp_path)]
    result = _fresh(
        "import json, sys\n"
        "from nsslice import cli\n"
        f"rc = cli.main({args!r})\n"
        f"print(json.dumps({{'rc': rc, 'loaded': {LOADED}}}))\n"
    )
    assert result["rc"] in (EXIT_OK, EXIT_CHECK_FAILED)
    assert set(result["loaded"]) == CLI_MODULES | COMMAND_MODULES[command]


@pytest.mark.parametrize("setting", ["solver.bogus=1", "mms.min_order=3.5"])
def test_config_key_error_loads_only_startup_modules(tmp_path, setting):
    # an unknown or a removed key exits 2 before any solver module is imported
    args = ["solve", "--out", str(tmp_path / "out"), "--set", setting]
    result = _fresh(
        "import json, sys\n"
        "from nsslice import cli\n"
        f"rc = cli.main({args!r})\n"
        f"print(json.dumps({{'rc': rc, 'loaded': {LOADED}}}))\n"
    )
    assert result["rc"] == EXIT_ERROR
    assert set(result["loaded"]) == CLI_MODULES


def test_package_import_loads_no_submodule():
    # each name is imported from its submodule, so the package alone loads nothing
    checked = _fresh(
        "import json, sys\n"
        "import nsslice\n"
        f"print(json.dumps({{'loaded': {LOADED}, 'version': nsslice.__version__}}))\n"
    )
    assert checked["loaded"] == ["nsslice"]
    assert checked["version"] == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    # a missing name loads no submodule on its way to the error
    result = _fresh(
        "import json, sys\n"
        "import nsslice, nsslice.cli\n"
        "errors = []\n"
        "for owner in (nsslice, nsslice.cli):\n"
        "    try:\n"
        "        getattr(owner, 'no_such_name')\n"
        "    except AttributeError as exc:\n"
        "        errors.append(str(exc))\n"
        "try:\n"
        "    from nsslice import no_such_name\n"
        "except ImportError:\n"
        "    errors.append('ImportError')\n"
        f"print(json.dumps({{'errors': errors, 'loaded': {LOADED}}}))\n"
    )
    assert result["errors"] == [
        "module 'nsslice' has no attribute 'no_such_name'",
        "module 'nsslice.cli' has no attribute 'no_such_name'",
        "ImportError",
    ]
    assert set(result["loaded"]) == CLI_MODULES
