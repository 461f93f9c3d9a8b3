import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import secnum
from secnum.cli import main

SIERPINSKI = "space S 2\nreach 1 0\n"
PI_MAP = "space F 2\nspace S 2\nreach 1 0\nmap pi F S\nsend 0 0\nsend 1 1\n"
IDENTITY_G = "space S 2\nreach 1 0\nmap g S S\nsend 0 0\nsend 1 1\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("S.finsp", SIERPINSKI),
        ("pi.fmap", PI_MAP),
        ("g.fmap", IDENTITY_G),
    ]:
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_compute_fpp(files, capsys):
    code, data = run_json(capsys, ["compute", "--input", files["S.finsp"], "--invariant", "fpp"])
    assert code == 0
    assert data["holds"] is True and "exhaustive" not in data


def test_compute_fpp_out_of_budget_prints_no_verdict(files, capsys, monkeypatch):
    circle = files["dir"] / "C.finsp"
    circle.write_text("space C 4\nreach 2 0\nreach 2 1\nreach 3 0\nreach 3 1\n")
    monkeypatch.setenv("SECNUM_BUDGET", "2")
    assert main(["compute", "--input", str(circle), "--invariant", "fpp"]) == 3
    captured = capsys.readouterr()
    assert '"holds"' not in captured.out
    assert captured.err.startswith("inconclusive: ")


def test_compute_fpp_deeper_than_the_recursion_limit(tmp_path, capsys):
    space = tmp_path / "D1500.finsp"
    space.write_text("space D 1500\n")
    code, data = run_json(capsys, ["compute", "--input", str(space), "--invariant", "fpp"])
    assert code == 0
    assert data["holds"] is False and len(data["witness"]) == 1500


PSEUDOCIRCLE = "space C 4\nreach 2 0\nreach 2 1\nreach 3 0\nreach 3 1\n"
TWO_PSEUDOCIRCLES = (
    "space CC 8\nreach 2 0\nreach 2 1\nreach 3 0\nreach 3 1\n"
    "reach 6 4\nreach 6 5\nreach 7 4\nreach 7 5\n"
)


def test_compute_cat(tmp_path, capsys):
    """The whole JSON object for the Sierpinski space, the pseudocircle, the
    empty space and two disjoint pseudocircles."""
    cases = [
        (SIERPINSKI, 1, False, [3]),
        (PSEUDOCIRCLE, 2, False, [7, 11]),
        ("space E 0\n", 1, True, []),
        (TWO_PSEUDOCIRCLES, 4, False, [7, 11, 112, 176]),
    ]
    for text, value, degenerate, cover in cases:
        path = tmp_path / "X.finsp"
        path.write_text(text)
        code, data = run_json(capsys, ["compute", "--input", str(path), "--invariant", "cat"])
        assert code == 0
        assert data == {"invariant": "cat", "value": value, "degenerate": degenerate,
                        "cover": cover}


V_SHAPE = "space V 3\nreach 1 0\nreach 2 0\n"
# two Sierpinski spaces onto V, one onto each of its minimal opens {0, 1} and {0, 2}
TWO_ARMS = "space E 4\nreach 1 0\nreach 3 2\n" + V_SHAPE + "map f E V\nsend 0 0\nsend 1 1\nsend 2 0\nsend 3 2\n"


def _certificate(mode, equation, base_points, cover, witnesses):
    """The JSON of a cover certificate whose elements are the masks in cover."""
    return {
        "schema": "secnum.cover-certificate/1",
        "mode": mode,
        "base_points": base_points,
        "degenerate": base_points == 0,
        "cover": cover,
        "cover_members": [[x for x in range(base_points) if mask >> x & 1] for mask in cover],
        "witnesses": witnesses,
        "checks": [{"element": mask, "equation": equation, "holds": True} for mask in cover],
    }


def test_compute_and_relative_certificates(tmp_path, capsys):
    """The whole JSON object for secat of a point into the pseudocircle, sec
    of TWO_ARMS, sec of the identity of the empty space, and the lift route
    of TWO_ARMS along the identity of V."""
    inputs = {
        "C.finsp": PSEUDOCIRCLE,
        "point.fmap": "space P 1\n" + PSEUDOCIRCLE + "map c P C\nsend 0 0\n",
        "V.finsp": V_SHAPE,
        "f.fmap": TWO_ARMS,
        "g.fmap": V_SHAPE + "map g V V\nsend 0 0\nsend 1 1\nsend 2 2\n",
        "E.finsp": "space E 0\n",
        "e.fmap": "space E 0\nmap e E E\n",
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    path = {name: str(tmp_path / name) for name in inputs}
    section = "compose(f, witness) == inclusion"
    cases = [
        (["compute", "--input", path["C.finsp"], "--map", path["point.fmap"], "--invariant", "secat"],
         {"invariant": "secat", "value": 2, "degenerate": False, "uncovered_point": None,
          "certificate": _certificate("homotopy-section", "compose(f, witness) homotopic to inclusion",
                                      4, [7, 11], [[0, 0, 0], [0, 0, 0]])}),
        (["compute", "--input", path["V.finsp"], "--map", path["f.fmap"], "--invariant", "sec"],
         {"invariant": "sec", "value": 2, "degenerate": False, "uncovered_point": None,
          "certificate": _certificate("section", section, 3, [3, 5], [[0, 1], [2, 3]])}),
        (["compute", "--input", path["E.finsp"], "--map", path["e.fmap"], "--invariant", "sec"],
         {"invariant": "sec", "value": 1, "degenerate": True, "uncovered_point": None,
          "certificate": _certificate("section", section, 0, [], [])}),
        (["relative", "--p", path["f.fmap"], "--g", path["g.fmap"], "--invariant", "sec",
          "--route", "lift"],
         {"invariant": "relative-sec", "route": "lift", "value": 2, "degenerate": False,
          "uncovered_point": None,
          "certificate": _certificate("lift", "compose(p, witness) == restriction of g",
                                      3, [3, 5], [[0, 1], [2, 3]])}),
    ]
    for argv, expected in cases:
        code, data = run_json(capsys, argv)
        assert code == 0
        assert data == expected


def test_compute_sec_and_secat(files, capsys):
    code, data = run_json(capsys, [
        "compute", "--input", files["S.finsp"], "--map", files["pi.fmap"],
        "--invariant", "sec",
    ])
    assert code == 0
    assert data["value"] == "infinite" and data["uncovered_point"] == 1
    # S is contractible, so a constant section works up to homotopy
    code, data = run_json(capsys, [
        "compute", "--input", files["S.finsp"], "--map", files["pi.fmap"],
        "--invariant", "secat",
    ])
    assert code == 0
    assert data["value"] == 1


def test_compute_requires_map_for_sec(files, capsys):
    code = main(["compute", "--input", files["S.finsp"], "--invariant", "sec"])
    assert code == 4


def test_compute_missing_file_is_input_error(files, capsys):
    code = main(["compute", "--input", str(files["dir"] / "nope.finsp"), "--invariant", "cat"])
    assert code == 4


def test_relative_routes_and_tc(files, capsys):
    for route in ("pullback", "lift", "both"):
        code, data = run_json(capsys, [
            "relative", "--p", files["pi.fmap"], "--g", files["g.fmap"],
            "--invariant", "sec", "--route", route,
        ])
        assert code == 0
        assert data["value"] == "infinite"
    code, data = run_json(capsys, [
        "relative", "--p", files["pi.fmap"], "--g", files["g.fmap"],
        "--invariant", "secat",
    ])
    assert code == 0
    code, data = run_json(capsys, [
        "relative", "--p", files["g.fmap"], "--g", files["g.fmap"], "--invariant", "sec",
    ])
    assert code == 0
    assert data["route"] == "both" and data["certificate"]["mode"] == "lift"
    code, data = run_json(capsys, [
        "relative", "--p", files["g.fmap"], "--g", files["g.fmap"],
        "--invariant", "tc-bounds",
    ])
    assert code == 0
    assert data["exact"] is True and data["lower"] == data["upper"] == 1


@pytest.mark.parametrize("invariant, route", [("secat", "lift"), ("tc-bounds", "pullback")])
def test_relative_route_is_for_sec_only(files, capsys, invariant, route):
    # secat and tc-bounds have one route each, so a --route would be ignored
    code = main([
        "relative", "--p", files["pi.fmap"], "--g", files["g.fmap"],
        "--invariant", invariant, "--route", route,
    ])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_check_claims(files, capsys):
    for claim in ("remark", "cp-implies-fpp"):
        code, data = run_json(capsys, [
            "check", "--claim", claim,
            "--x", files["S.finsp"], "--y", files["S.finsp"], "--g", files["g.fmap"],
        ])
        assert code == 0
        assert data["conclusions"][0]["status"] == "verified"
    code, data = run_json(capsys, [
        "check", "--claim", "main-theorem",
        "--x", files["S.finsp"], "--y", files["S.finsp"], "--g", files["g.fmap"],
    ])
    assert code == 0
    assert data["conclusions"][0]["status"] == "hypothesis-not-met"
    code, data = run_json(capsys, [
        "check", "--claim", "key-lemma", "--k", "2",
        "--x", files["S.finsp"], "--y", files["S.finsp"], "--g", files["g.fmap"],
    ])
    assert code == 0


@pytest.mark.parametrize("claim, k", [
    ("remark", "2"), ("main-theorem", "9"), ("cp-implies-fpp", "1"),
])
def test_check_k_is_for_key_lemma_only(files, capsys, claim, k):
    # the other claims take no k, so a --k would be ignored
    code = main([
        "check", "--claim", claim, "--k", k,
        "--x", files["S.finsp"], "--y", files["S.finsp"], "--g", files["g.fmap"],
    ])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == f"error: --k applies to --claim key-lemma only, not {claim}\n"


def test_check_key_lemma_takes_k_two_by_default(files, capsys):
    argv = ["check", "--claim", "key-lemma",
            "--x", files["S.finsp"], "--y", files["S.finsp"], "--g", files["g.fmap"]]
    code, data = run_json(capsys, argv)
    assert code == 0
    assert data["quantities"]["k"] == 2
    assert (code, data) == run_json(capsys, argv + ["--k", "2"])


def test_check_mismatched_spaces(files, tmp_path, capsys):
    other = tmp_path / "D.finsp"
    other.write_text("space D 2\n")
    code = main([
        "check", "--claim", "remark",
        "--x", str(other), "--y", files["S.finsp"], "--g", files["g.fmap"],
    ])
    assert code == 4


def test_census_output(capsys):
    code = main(["census", "--max-points", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# spaces on 1 points up to isomorphism: 1" in out
    assert "# spaces on 2 points up to isomorphism: 3" in out
    assert "# total: 4" in out
    code = main(["census", "--max-points", "3", "--posets-only"])
    out = capsys.readouterr().out
    assert "# posets on 3 points up to isomorphism: 5" in out


def test_census_over_cap_is_input_error(capsys):
    # rejected before the censuses under the cap are printed
    assert main(["census", "--max-points", "8"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-points must be <= 7, got 8\n"


@pytest.mark.parametrize("count", ["0", "-3"])
def test_census_count_below_one_is_input_error(capsys, count):
    assert main(["census", "--max-points", count]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-points must be >= 1\n"


def test_suite_cli_roundtrip(tmp_path, capsys):
    config = {
        "schema": "secnum.suite-config/1",
        "max_points": 2,
        "census_max_points": 2,
        "hausdorff_target_max": 2,
        "key_lemma_target_max": 2,
        "k_values": [2],
        "contractibility_census_max": 2,
        "instances_per_property": 4,
        "tc_instances": 1,
        "seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["suite", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["suite", "--config", str(config_path), "--seed", "5", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = json.loads(out_a.read_text())
    assert report["schema"] == "secnum.suite-report/1"


def test_suite_budget_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SECNUM_BUDGET", "1")
    config = {
        "max_points": 2,
        "census_max_points": 2,
        "hausdorff_target_max": 2,
        "key_lemma_target_max": 2,
        "k_values": [2],
        "contractibility_census_max": 2,
        "instances_per_property": 2,
        "tc_instances": 1,
        "seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    assert main(["suite", "--config", str(config_path), "--out", str(out)]) == 3


@pytest.mark.parametrize("command", [
    ["compute", "--input", "S.finsp", "--invariant", "fpp"],
    ["suite", "--seed", "1"],
])
@pytest.mark.parametrize("value", ["abc", "-3"])
def test_bad_budget_env_is_input_error(command, value, files, capsys, monkeypatch):
    monkeypatch.setenv("SECNUM_BUDGET", value)
    argv = [files.get(arg, arg) for arg in command]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SECNUM_BUDGET ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_suite_bad_config_is_input_error(tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"max_points": 50}))
    assert main(["suite", "--config", str(config_path)]) == 4


@pytest.mark.parametrize("config", [
    {"instances_per_property": 2.5, "census_max_points": 1,
     "contractibility_census_max": 1, "tc_instances": 1},
    [1],
    {"schema": "secnum.suite-config/2"},
])
def test_suite_config_of_wrong_type_is_input_error(config, tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(config))
    assert main(["suite", "--config", str(config_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_suite_config_repeating_a_k_is_input_error(tmp_path, capsys):
    # a repeated k would build and tally every key-lemma instance twice
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"census_max_points": 2, "k_values": [2, 2]}))
    assert main(["suite", "--config", str(config_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "repeat" in err


def test_suite_seed_override_out_of_range_is_input_error(capsys):
    # the override is checked when the config is rebuilt, before any search
    assert main(["suite", "--seed", "-1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "seed" in captured.err
    assert "Traceback" not in captured.err


def test_suite_unwritable_out_is_input_error(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "max_points": 2, "census_max_points": 2, "hausdorff_target_max": 2,
        "key_lemma_target_max": 2, "k_values": [2], "contractibility_census_max": 2,
        "instances_per_property": 2, "tc_instances": 1, "seed": 5,
    }))
    missing_dir = tmp_path / "no" / "such" / "dir" / "r.json"
    assert main(["suite", "--config", str(config_path), "--out", str(missing_dir)]) == 4


def test_check_k_below_two_is_input_error(files):
    assert main([
        "check", "--claim", "key-lemma", "--k", "1",
        "--x", files["S.finsp"], "--y", files["S.finsp"], "--g", files["g.fmap"],
    ]) == 4


def _key_lemma_past_the_target(tmp_path, capsys, n, k):
    """Run the key-lemma check with k > |Y| on the discrete n-point Y, with
    X = Y and g = id.  F(Y, k) is empty, so the answer comes at once: no lift
    exists over a nonempty X, and the empty X is reported as 1 by convention."""
    space = tmp_path / "D.finsp"
    space.write_text(f"space D {n}\n")
    g = tmp_path / "g.fmap"
    g.write_text(f"space D {n}\nmap g D D\n" + "".join(f"send {x} {x}\n" for x in range(n)))
    started = time.perf_counter()
    code = main([
        "check", "--claim", "key-lemma", "--k", str(k),
        "--x", str(space), "--y", str(space), "--g", str(g),
    ])
    assert time.perf_counter() - started < 1
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quantities"]["k"] == k
    assert report["quantities"]["sec_relative_pik1"] == ("infinite" if n else 1)
    (conclusion,) = report["conclusions"]
    assert conclusion["status"] == "hypothesis-not-met"
    assert conclusion["bound_holds"] is (n == 0)


def test_check_k_above_the_target_size_is_hypothesis_not_met(tmp_path, capsys):
    for k in (5, 100, 10_000):
        _key_lemma_past_the_target(tmp_path, capsys, 3, k)


@pytest.mark.parametrize("n", [0, 1])
def test_check_large_k_on_a_tiny_target_is_quick(tmp_path, capsys, n):
    _key_lemma_past_the_target(tmp_path, capsys, n, 100)


def test_check_huge_k_on_a_one_point_target_is_hypothesis_not_met(tmp_path, capsys):
    _key_lemma_past_the_target(tmp_path, capsys, 1, 100_000)


def test_check_k_one_past_a_seven_point_target_builds_nothing(tmp_path, capsys):
    """k = 8 on the discrete 7-point Y: no F(Y, 7) of 5,040 points is built,
    which would pass the construction cap."""
    _key_lemma_past_the_target(tmp_path, capsys, 7, 8)


def test_check_main_theorem_on_a_target_past_the_cap_of_its_configurations(tmp_path, capsys):
    """On the discrete 65-point Y with X = Y and g = id, F(Y, 2) would have
    4,160 points, past the 4,096-point cap.  The main theorem's relsec takes
    the bridge route, which builds no F(Y, 2), and answers; the remark lifts
    through F(Y, 2) and exits 4."""
    n = 65
    space = tmp_path / "D.finsp"
    space.write_text(f"space D {n}\n")
    g = tmp_path / "g.fmap"
    g.write_text(f"space D {n}\nmap g D D\n" + "".join(f"send {x} {x}\n" for x in range(n)))
    files = ["--x", str(space), "--y", str(space), "--g", str(g)]
    assert main(["check", "--claim", "main-theorem", *files]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quantities"]["sec_relative_pi21"] == 1
    assert report["quantities"]["cp_holds"] is False
    assert report["conclusions"][0]["status"] == "verified"
    assert main(["check", "--claim", "remark", *files]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "construction would have 4160 points" in captured.err


def test_python_dash_m_runs_the_command_line():
    """`python -m secnum` works without an installed `secnum` script."""
    src = str(Path(secnum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "secnum", "census", "--max-points", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "# total: 4"
