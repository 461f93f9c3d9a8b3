"""What a fresh interpreter loads before its first answer, and the lazy part
of the package namespace.

Every check runs in a fresh subprocess and reads its sys.modules, so it
counts modules, not milliseconds: `import secnum` loads the calculator only,
a serial suite run never loads multiprocessing, and the command-line
commands that answer one question load neither the census nor the suite.
The names that `secnum` re-exports from the census, the text format and the
suite resolve on first access to the objects of their modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secnum

SRC = str(Path(secnum.__file__).resolve().parents[1])

# modules that `import secnum` leaves for their first use
DEFERRED = ("secnum.census", "secnum.fileio", "secnum.suite", "multiprocessing")
EAGER = ("secnum.coincidence", "secnum.cover", "secnum.extnat", "secnum.finspace",
         "secnum.homotopy", "secnum.resources", "secnum.sectional")

# the public names of `secnum`, by the module each is taken from
PUBLIC = {
    "census": ["InstanceGenerator", "are_isomorphic", "canonical_form", "census_spaces",
               "census_up_to", "cone", "random_instance"],
    "coincidence": ["CoincidenceVerdict", "TheoremReport", "check_cp_implies_fpp",
                    "check_key_lemma", "check_main_theorem", "check_remark", "has_cp",
                    "has_fpp"],
    "extnat": ["INF", "ExtNat"],
    "fileio": ["Document", "ParseError", "format_fence", "format_map", "format_space",
               "load_document", "parse_document"],
    "finspace": ["CMap", "DiscontinuityError", "FinSpace", "OpenSet", "compose",
                 "configuration_space", "connected_components", "constant_map",
                 "discrete_space", "empty_space", "enumerate_maps", "identity_map",
                 "is_connected", "is_hausdorff", "make_map", "make_space", "minimal_open",
                 "product", "pseudocircle", "pullback", "sierpinski", "subspace",
                 "subspace_of_mask"],
    "cover": ["CoverCertificate", "CoverResult"],
    "homotopy": ["Core", "Fence", "cat", "core", "homotopic", "homotopy_fence",
                 "is_contractible"],
    "resources": ["Budget", "BudgetExhausted", "LimitExceeded", "SelfCheckFailed"],
    "sectional": ["TcBounds", "relative_sec", "relative_secat", "relative_tc_bounds", "sec",
                  "secat"],
    "suite": ["Claim", "REGISTRY", "SuiteConfig", "SuiteReport", "run_suite"],
}

SMOKE_CONFIG = dict(seed=20240801, parallelism=1, census_max_points=1, hausdorff_target_max=2,
                    key_lemma_target_max=3, contractibility_census_max=2,
                    instances_per_property=2, tc_instances=1)

SIERPINSKI = "space S 2\nreach 1 0\n"
IDENTITY_G = "space S 2\nreach 1 0\nmap g S S\nsend 0 0\nsend 1 1\n"


def run_fresh(code: str) -> list:
    """Run code in a fresh interpreter with the package's source on the path;
    return the JSON value it prints on its last line of output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> set[str]:
    """The names in sys.modules once code has run in a fresh interpreter."""
    return set(run_fresh(code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def loaded_by_command(*argv: str) -> set[str]:
    """The names in sys.modules once `python -m secnum argv...` has run."""
    return loaded_after(
        "import runpy, sys\n"
        f"sys.argv = ['secnum', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('secnum', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
    )


def test_import_secnum_loads_the_calculator_only():
    loaded = loaded_after("import secnum")
    assert set(EAGER) <= loaded
    assert loaded.isdisjoint(DEFERRED)


def test_a_lazy_name_loads_its_module_only():
    loaded = loaded_after("import secnum\nsecnum.census_spaces")
    assert "secnum.census" in loaded
    assert loaded.isdisjoint({"secnum.fileio", "secnum.suite", "multiprocessing"})


def test_a_serial_suite_run_never_loads_multiprocessing():
    loaded = loaded_after(
        "from secnum import SuiteConfig, run_suite\n"
        f"assert run_suite(SuiteConfig(**{SMOKE_CONFIG!r})).exit_code == 0"
    )
    assert {"secnum.suite", "secnum.census"} <= loaded
    assert "multiprocessing" not in loaded


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "S.finsp").write_text(SIERPINSKI)
    (tmp_path / "g.fmap").write_text(IDENTITY_G)
    return tmp_path


@pytest.mark.parametrize("command", [
    ["compute", "--input", "{S}", "--invariant", "fpp"],
    ["compute", "--input", "{S}", "--invariant", "cat"],
    ["relative", "--p", "{g}", "--g", "{g}", "--invariant", "secat"],
    ["check", "--claim", "main-theorem", "--x", "{S}", "--y", "{S}", "--g", "{g}"],
], ids=lambda command: " ".join(command[:1] + command[-1:]))
def test_single_question_commands_load_neither_census_nor_suite(inputs, command):
    argv = [arg.format(S=inputs / "S.finsp", g=inputs / "g.fmap") for arg in command]
    loaded = loaded_by_command(*argv)
    assert "secnum.cli" in loaded
    assert loaded.isdisjoint({"secnum.census", "secnum.suite", "multiprocessing"})


def test_the_census_command_loads_the_census_but_not_the_suite():
    loaded = loaded_by_command("census", "--max-points", "2")
    assert "secnum.census" in loaded
    assert loaded.isdisjoint({"secnum.suite", "multiprocessing"})


def test_public_names_are_listed_and_resolve_to_their_modules_objects():
    """In a fresh interpreter, before any lazy name is read, dir(secnum)
    lists every public name and module; each name then reads as the object
    its module binds, and each module name as the module."""
    result = run_fresh(
        "import json, secnum\n"
        "from importlib import import_module\n"
        "listed = [name for name in dir(secnum) if not name.startswith('_')]\n"
        f"public = {PUBLIC!r}\n"
        "wrong = [module + '.' + name for module, names in public.items() for name in names\n"
        "         if getattr(secnum, name) is not getattr(import_module('secnum.' + module), name)]\n"
        "wrong += [module for module in public\n"
        "          if getattr(secnum, module) is not import_module('secnum.' + module)]\n"
        "print(json.dumps([listed, wrong]))"
    )
    listed, wrong = result
    assert sorted(listed) == sorted({name for names in PUBLIC.values() for name in names}
                                    | set(PUBLIC))
    assert wrong == []


def test_a_lazy_name_is_kept_after_its_first_read():
    assert secnum.SuiteConfig is secnum.suite.SuiteConfig
    assert vars(secnum)["SuiteConfig"] is secnum.suite.SuiteConfig
    assert secnum.fileio is sys.modules["secnum.fileio"]


def test_an_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError) as err:
        secnum.no_such_name
    assert str(err.value) == "module 'secnum' has no attribute 'no_such_name'"
    with pytest.raises(ImportError):
        from secnum import no_such_name  # noqa: F401
