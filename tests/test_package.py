"""The package's public names: `distribq._EXPORTS` lists them once, by module,
and each module sets its `__all__` from its own row. The package re-exports
them all, importing each module only when one of its names is first read. A
command imports only the modules it uses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distribq
from distribq import catalog, cli, identity, number_theory, oracle


def _fresh_env() -> dict:
    """The environment in which a fresh interpreter imports this checkout."""
    src = str(Path(distribq.__file__).resolve().parent.parent)
    return {**os.environ, "COLUMNS": "80",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


_PUBLIC = [
    "ALL_CASES", "BinOp", "CaseId", "CheckResult", "DiophantineSolutionSet", "DomainError",
    "FamilyId", "FamilySpec", "SearchBounds", "SolveOutcome", "Triple", "Verdict",
    "VerificationReport", "case12_construct", "case12_enumerate", "case13_family5",
    "case_from_label", "check", "enumerate_rationals", "families_for", "family_spec",
    "family_union_member", "generate", "member", "search_solutions",
    "solve_linear_diophantine", "solve_r2", "verify_characterization",
]


def test_the_package_exports_the_same_28_names():
    assert sorted(distribq.__all__) == _PUBLIC


@pytest.mark.parametrize("module", [identity, catalog, number_theory, oracle],
                         ids=lambda module: module.__name__)
def test_each_exported_name_is_its_module_s_own_object(module):
    for name in module.__all__:
        assert getattr(distribq, name) is getattr(module, name), name


def test_the_package_lists_each_module_s_names_in_module_order():
    assert distribq.__all__ == [*identity.__all__, *catalog.__all__, *number_theory.__all__,
                                *oracle.__all__]


_STAR = """
from distribq import *
from distribq import catalog, identity, number_theory, oracle

wrong = [name for module in (identity, catalog, number_theory, oracle)
         for name in module.__all__ if globals().get(name) is not getattr(module, name)]
assert not wrong, wrong
"""


def test_a_star_import_binds_every_exported_name():
    done = subprocess.run([sys.executable, "-c", _STAR], env=_fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert set(distribq.__all__) <= set(dir(distribq))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        distribq.nonexistent


# Each command's argvs, then the package's modules among catalog,
# number_theory and oracle that running them in a fresh interpreter loads.
_LOADS = [
    pytest.param([["check", "--outer", "sub", "--inner", "mul", "--triple", "6,4,-3"],
                  ["classify", "--triple", "1,0,0", "--format", "json"]], [],
                 id="check-classify"),
    pytest.param([["member", "--case", "12", "--triple", "2,5,1"]], ["catalog"], id="member"),
    pytest.param([["solve", "--case", "13", "--r1", "3", "--r3", "-1"]], ["catalog"],
                 id="solve"),
    pytest.param([["generate", "--case", "12", "--family", "4", "--params", "delta=2"]],
                 ["catalog"], id="generate"),
    pytest.param([["generate", "--case", "13", "--family", "5", "--params",
                   "a=3,f=1,k=0,sign=+"]], ["catalog", "number_theory"], id="generate-family5"),
    pytest.param([["diophantine", "--p", "3", "--q", "5", "--t", "1"]], ["number_theory"],
                 id="diophantine"),
    pytest.param([["construct12", "--n1", "3", "--n2", "2", "--delta", "2"]],
                 ["number_theory"], id="construct12"),
    pytest.param([["family5", "--a", "3", "--f", "1", "--k", "0", "--sign", "+"]],
                 ["number_theory"], id="family5"),
    pytest.param([["search", "--case", "12", "--num-bound", "2", "--den-bound", "2"]],
                 ["catalog", "oracle"], id="search"),
    pytest.param([["verify", "--case", "12", "--num-bound", "2", "--den-bound", "2"]],
                 ["catalog", "oracle"], id="verify"),
]

_COLD_START = """
import contextlib, io, json, sys
import distribq
from distribq import cli

built = []
build = cli._build_parser
cli._build_parser = lambda: built.append(True) or build()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in json.loads(sys.argv[1])]
modules = ("catalog", "number_theory", "oracle")
print(json.dumps({"codes": codes, "whole_parser": bool(built),
                  "loaded": [name for name in modules if "distribq." + name in sys.modules]}))
"""


@pytest.mark.parametrize("argvs, loaded", _LOADS)
def test_a_command_loads_only_the_modules_it_uses(argvs, loaded):
    """In a fresh interpreter, after `import distribq` and the commands:
    only the modules a command uses are imported, and no command whose
    argv is well formed builds the whole parser."""
    done = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(argvs)],
                          env=_fresh_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0] * len(argvs), "whole_parser": False,
                                       "loaded": loaded}


def test_a_check_loads_no_json_package():
    """The JSON writer takes its C string quoter from `_json`, so a command
    loads neither `json` nor its decoder and scanner."""
    code = ("import sys; from distribq import cli; "
            "cli.run(['check', '--outer', 'mul', '--inner', 'add', '--triple', '1,2,3',"
            " '--format', 'json']); print(sorted(m for m in sys.modules if 'json' in m),"
            " file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "['_json']\n")
    assert json.loads(done.stdout)["verdict"] == "HOLDS"


def test_importing_the_package_imports_none_of_its_modules():
    """A module is imported when it is first read as an attribute, with those it imports."""
    loaded = "print(sorted(m for m in sys.modules if m.startswith('distribq.')))"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, distribq; {loaded}; distribq.oracle; {loaded}"],
        env=_fresh_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.splitlines()) == (0, [
        "[]", "['distribq._forms', 'distribq.catalog', 'distribq.identity', 'distribq.oracle']"
    ]), done.stderr


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["search", "--num"]])
def test_help_and_usage_are_the_whole_parser_s_in_a_fresh_process(argv, capsys, monkeypatch):
    """Help and usage come from the whole parser, built on demand, also
    after a command has run from its own subcommand's table."""
    monkeypatch.setenv("COLUMNS", "80")
    expected = (cli.main(argv), *capsys.readouterr())
    check_first = ("import contextlib, io, sys; from distribq import cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    cli.run(['check', '--outer', 'add', '--inner', 'add', '--triple', '0,0,0'])\n"
                   "sys.exit(cli.main(sys.argv[1:]))")
    for command in ([sys.executable, "-m", "distribq"], [sys.executable, "-c", check_first]):
        done = subprocess.run([*command, *argv], env=_fresh_env(), capture_output=True,
                              text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == expected, command
