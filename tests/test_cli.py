import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import golod_lab
from golod_lab import cli, taylor_dga
from golod_lab.cli import main
from golod_lab.monomial_core import counterexample_ideal, parse_ideal, polarize
from golod_lab.simplicial import complex_of, parse_complex, skeleton


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_betti_text_and_json_agree(capsys):
    code, payload, _ = run_json(capsys, "betti", "--example", "paper")
    assert code == 0
    assert payload["totals"] == [1, 8, 14, 8, 1]
    assert payload["regularity"] == 5
    assert payload["projective_dimension"] == 4
    code2, text, _ = run(capsys, "betti", "--example", "paper")
    assert code2 == 0
    assert "tot:     1     8    14     8     1" in text


def test_products_exit_codes(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "products", "--example", "paper")
    assert code == 0 and payload["trivial"] is True
    ci = tmp_path / "ci.ideal"
    ci.write_text("vars: x y\nx^2\ny^2\n")
    code, payload, _ = run_json(capsys, "products", "--ideal", str(ci))
    assert code == 1 and payload["trivial"] is False
    assert payload["witness"]["alpha"]["homological_degree"] == 1


def test_massey3_counterexample(capsys):
    code, payload, _ = run_json(
        capsys, "massey3", "--example", "paper", "--gens", "m_a,m_b,m_c"
    )
    assert code == 1  # nonzero class is the mathematically negative outcome
    m = payload["massey"]
    assert m["defined"] and m["unique"] and m["zero"] is False
    assert m["multidegree"] == [1, 2, 1, 2, 3]
    assert m["homological_degree"] == 4
    assert payload["routes_agree"] is True
    reps = {tuple(t["subset"]) for t in m["representative"]}
    assert reps == {(0, 1, 3, 6), (0, 3, 4, 6)}


def test_massey3_numeric_indices(capsys):
    code, payload, _ = run_json(
        capsys, "massey3", "--example", "paper", "--gens", "0,3,6"
    )
    assert code == 1
    assert payload["massey"]["zero"] is False


def test_massey3_all_flag(capsys):
    code, payload, _ = run_json(capsys, "massey3", "--example", "paper", "--all")
    assert code == 1
    assert payload["all_zero"] is False
    assert payload["witness"]["kind"] == "ternary"


def test_massey3_requires_gens_or_all(capsys):
    code, _, err = run(capsys, "massey3", "--example", "paper")
    assert code == 2 and "gens" in err


def test_massey3_gens_with_all_is_a_usage_error(capsys):
    # --all used to win silently over --gens
    with pytest.raises(SystemExit) as exc:
        main(["massey3", "--example", "paper", "--gens", "m_a,m_b,m_c", "--all"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_golod_exit_codes(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "golod", "--example", "paper")
    assert code == 1
    assert payload["status"] == "NotGolod"
    assert "μ3" in payload["reason"] or "Massey" in payload["reason"]
    xy = tmp_path / "xy.ideal"
    xy.write_text("vars: x y\nx*y\n")
    code, payload, _ = run_json(capsys, "golod", "--ideal", str(xy))
    assert code == 0 and payload["status"] == "Golod"


def test_golod_field_flag(capsys):
    code, payload, _ = run_json(capsys, "golod", "--example", "paper", "--field", "fp:2")
    assert code == 1 and payload["status"] == "NotGolod"


def test_field_fp0_is_a_usage_error(capsys):
    # fp:<n> must name a prime; fp:0 used to run silently over Q
    code, out, err = run(capsys, "betti", "--example", "paper", "--field", "fp:0")
    assert code == 2 and out == ""
    assert "names no prime field" in err


def test_field_characteristic_below_2_31(capsys):
    # primality is trial division: fp:<2^61 - 1> used to run for minutes
    code, payload, _ = run_json(capsys, "betti", "--example", "paper", "--field", "fp:2147483647")
    assert code == 0 and payload["field"] == "F_2147483647"
    start = time.perf_counter()
    code, out, err = run(
        capsys, "betti", "--example", "paper", "--field", "fp:2305843009213693951"
    )
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "2^31" in err


def test_series_command(capsys):
    code, payload, _ = run_json(capsys, "series", "--example", "paper", "--trunc", "5")
    assert code == 1  # divergence signals the negative answer
    assert payload["p"] == [1, 5, 18, 64, 227, 805]
    assert payload["q"] == [1, 5, 18, 64, 227, 806]
    assert payload["first_divergence"] == 5
    code2, text, _ = run(capsys, "series", "--example", "paper", "--trunc", "5")
    assert "first divergence at index 5 (P < Q)" in text


def test_series_agreement_exit_zero(capsys, tmp_path):
    m2 = tmp_path / "m2.ideal"
    m2.write_text("vars: x y\nx^2\nx*y\ny^2\n")
    code, payload, _ = run_json(capsys, "series", "--ideal", str(m2), "--trunc", "4")
    assert code == 0
    assert payload["p"] == payload["q"] == [1, 2, 4, 8, 16]
    assert payload["first_divergence"] is None


def test_negative_trunc_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--example", "paper", "--trunc", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "truncation order must be non-negative" in err
    with pytest.raises(SystemExit) as exc:
        main(["series", "--example", "paper", "--trunc", "five"])
    assert exc.value.code == 2
    assert "invalid int value: 'five'" in capsys.readouterr().err
    code, payload, _ = run_json(capsys, "series", "--example", "paper", "--trunc", "0")
    assert code == 0 and payload["p"] == payload["q"] == [1]


def test_golod_takes_no_trunc(capsys):
    # the lcm box decides Golod exactly, so there is no truncation to set
    for order in ("5", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["golod", "--example", "paper", "--trunc", order])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: --trunc" in err


def test_golod_box_agree_exits_zero(capsys, tmp_path):
    # the boundary of a 7-simplex plus an isolated vertex: arity bound 4,
    # decided on the lcm box; the payload carries no series
    sphere = tmp_path / "sphere.ideal"
    sphere.write_text(
        "vars: " + " ".join(f"x{i}" for i in range(1, 10)) + "\n"
        + "*".join(f"x{i}" for i in range(1, 9)) + "\n"
        + "".join(f"x9*x{i}\n" for i in range(1, 9))
    )
    code, payload, _ = run_json(capsys, "golod", "--ideal", str(sphere), "--field", "fp:2")
    assert code == 0
    assert payload == {"field": "F_2", "status": "Golod", "route": "box-agree",
                       "reason": "b_R = D on the lcm box, so P = Q"}


def test_polarize_roundtrip(capsys):
    code, payload, _ = run_json(capsys, "polarize", "--example", "paper")
    assert code == 0
    reparsed = parse_ideal(payload["ideal"])
    direct, _ = polarize(counterexample_ideal())
    assert reparsed == direct
    assert payload["variable_map"]["x2_1"] == "x2"


def test_fiber_command(capsys, monkeypatch):
    """The legend comes from the fiber complex's own vertex labels: the
    generators below u are found once, by fiber_complex."""
    calls = []
    real = taylor_dga.generators_below

    def counted(ideal, u):
        calls.append(tuple(u))
        return real(ideal, u)

    for module in (taylor_dga, cli):
        monkeypatch.setattr(module, "generators_below", counted, raising=False)
    code, payload, _ = run_json(
        capsys, "fiber", "--example", "paper", "--mdeg", "1,2,1,2,3"
    )
    assert code == 0
    assert calls == [(1, 2, 1, 2, 3)]
    cx = parse_complex(payload["complex"])
    assert "g6" in cx.ghost_vertices
    assert payload["vertex_legend"] == {
        "g0": "x1*x2^2", "g1": "x1*x2*y1*y2", "g2": "x1*y1*z", "g3": "y1*y2^2",
        "g4": "y2^2*z^2", "g5": "x2^2*y2^2*z", "g6": "z^3", "g7": "x2^2*z^2",
    }
    calls.clear()
    code, text, _ = run(capsys, "fiber", "--example", "paper", "--mdeg", "1,2,1,2,3")
    assert code == 0 and len(calls) == 1
    assert text.startswith(
        "# vertices: g0=x1*x2^2, g1=x1*x2*y1*y2, g2=x1*y1*z, g3=y1*y2^2, "
        "g4=y2^2*z^2, g5=x2^2*y2^2*z, g6=z^3, g7=x2^2*z^2\nvertices: g0 g1 g2 g3 g4 g5 g7\n"
    )
    code2, _, err = run(capsys, "fiber", "--example", "paper", "--mdeg", "9,9,9,9,9")
    assert code2 == 2 and "lattice" in err


def _skeleton_pipeline(capsys, tmp_path):
    """The 4-skeleton ideal built through the CLI (polarize, complex,
    skeleton --dim 4, sr): returns the polarized ideal's file and its own."""
    code, payload, _ = run_json(capsys, "polarize", "--example", "paper")
    pol_file = tmp_path / "pol.ideal"
    pol_file.write_text(payload["ideal"])
    code, payload, _ = run_json(capsys, "complex", "--ideal", str(pol_file))
    assert code == 0
    cx_file = tmp_path / "delta.cx"
    cx_file.write_text(payload["complex"])
    code, payload, _ = run_json(capsys, "skeleton", "--complex", str(cx_file), "--dim", "4")
    assert code == 0
    sk_file = tmp_path / "gamma.cx"
    sk_file.write_text(payload["complex"])
    code, payload, _ = run_json(capsys, "sr", "--complex", str(sk_file))
    assert code == 0
    gamma_file = tmp_path / "gamma.ideal"
    gamma_file.write_text(payload["ideal"])
    return pol_file, gamma_file


def test_complex_sr_skeleton_pipeline(capsys, tmp_path):
    pol_file, gamma_file = _skeleton_pipeline(capsys, tmp_path)
    gamma = parse_ideal(gamma_file.read_text())
    pol = parse_ideal(pol_file.read_text())
    direct = complex_of(pol)
    assert gamma.n_gens == 20
    # round trip agrees with the in-library computation
    from golod_lab.simplicial import stanley_reisner_ideal

    assert gamma == stanley_reisner_ideal(skeleton(direct, 4))


def test_past_the_strand_cap_exits_3(capsys, tmp_path):
    """The 4-skeleton ideal's top strand has 20 generators below it, so its
    middle degrees are past the strand bound: every command that needs every
    degree of it, and its fiber complex, ends in exit 3 with the error on
    stderr and nothing on stdout, while
    ``massey3 --all``, which asks the strand only for boundaries and
    classes, finds the ternary witness there (exit 1)."""
    _, gamma_file = _skeleton_pipeline(capsys, tmp_path)
    for argv, message in (
        (["betti"], "has 20 generators below it"),
        (["golod"], "has 20 generators below it"),
        (["series"], "has 20 generators below it"),
        (["fiber", "--mdeg", ",".join(["1"] * 9)], "would have 20 vertices"),
    ):
        code, out, err = run(capsys, *argv, "--ideal", str(gamma_file))
        assert (code, out) == (3, ""), argv
        assert message in err, argv
    code, payload, err = run_json(capsys, "massey3", "--all", "--ideal", str(gamma_file))
    assert (code, err) == (1, "") and payload["all_zero"] is False
    witness = payload["witness"]
    assert witness["kind"] == "ternary"
    assert witness["massey"]["multidegree"] == [1] * 9
    assert witness["massey"]["zero"] is False


def test_too_large_complex_and_sr_exit_3(capsys, tmp_path):
    """A 23-variable squarefree ideal has too many supports to enumerate its
    faces, and a 23-vertex complex too many subsets to find its non-faces:
    ``complex`` and ``sr`` exit 3 with nothing on stdout, like a strand past
    its bound."""
    names = [f"x{i}" for i in range(23)]
    ideal_file = tmp_path / "wide.ideal"
    ideal_file.write_text("vars: " + " ".join(names) + "\nx0*x1\n")
    cx_file = tmp_path / "wide.cx"
    cx_file.write_text("vertices: " + " ".join(names) + "\nx0 x1\n")
    for argv, message in ((["complex", "--ideal", str(ideal_file)], "too many variables (23)"),
                          (["sr", "--complex", str(cx_file)], "too many vertices (23)")):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, out) == (3, ""), argv
            assert message in err, argv


def test_pattern_check_command(capsys):
    code, payload, _ = run_json(capsys, "pattern-check", "--example", "paper")
    assert code == 0
    assert payload["all_ok"] is True


def test_pattern_check_roles_flag(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "polarize", "--example", "paper")
    f = tmp_path / "pol.ideal"
    f.write_text(payload["ideal"])
    roles = "a=0,b=3,c=6,ab=1,bc=4,ca=7,ab#c=2,bc#a=5,ca#b=5"
    code, payload, _ = run_json(capsys, "pattern-check", "--ideal", str(f), "--roles", roles)
    assert code == 0 and payload["all_ok"] is True


def test_pattern_check_roles_out_of_range(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "polarize", "--example", "paper")
    f = tmp_path / "pol.ideal"
    f.write_text(payload["ideal"])
    for roles, bad in (
        ("a=0,b=99,c=6,ab=1,bc=4,ca=7,ab#c=2,bc#a=5,ca#b=5", "b=99"),
        ("a=-8,b=3,c=6,ab=1,bc=4,ca=7,ab#c=2,bc#a=5,ca#b=5", "a=-8"),
    ):
        code, out, err = run(capsys, "pattern-check", "--ideal", str(f), "--roles", roles)
        assert code == 2 and out == "", bad
        assert f"role {bad}: generator index out of range 0..7" in err


def test_pattern_check_example_takes_roles(capsys):
    code, out, err = run(capsys, "pattern-check", "--example", "paper", "--roles", "a=99")
    assert code == 2 and out == ""
    assert "role a=99: generator index out of range 0..7" in err
    seed_roles = "a=0,b=3,c=6,ab=1,bc=4,ca=7,ab#c=2,bc#a=5,ca#b=5"
    for fmt in ("text", "json"):
        plain = run(capsys, "pattern-check", "--example", "paper", "--format", fmt)
        assert plain[0] == 0
        assert run(capsys, "pattern-check", "--example", "paper", "--format", fmt,
                   "--roles", seed_roles) == plain


def test_pattern_check_roles_without_ca_are_a_usage_error(capsys):
    # every role is required; without ca and ca#b the check could never pass
    roles = "a=0,b=3,c=6,ab=1,bc=4,ab#c=2,bc#a=5"
    code, out, err = run(capsys, "pattern-check", "--example", "paper", "--roles", roles)
    assert code == 2 and out == ""
    assert "bad role set" in err and "'ca'" in err and "'ca_sharp_b'" in err


@pytest.mark.parametrize("argv", [
    ["polarize", "--example", "paper"],
    ["fiber", "--example", "paper", "--mdeg", "1,2,1,2,3"],
    ["complex", "--example", "paper"],
    ["sr", "--complex", "delta.cx"],
    ["skeleton", "--complex", "delta.cx", "--dim", "1"],
    ["pattern-check", "--example", "paper"],
])
def test_field_is_rejected_where_it_is_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--field", "garbage"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --field garbage" in capsys.readouterr().err


def test_search_command_negative_control(capsys):
    code, out, _ = run(capsys, "search", "--vars", "4", "--max-gens", "8", "--budget", "100")
    assert code == 0
    assert "0 survivors" in out


def test_search_command_seeded(capsys):
    code, out, _ = run(
        capsys, "search", "--vars", "9", "--max-gens", "8", "--budget", "1", "--format", "json"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert any(rec.get("counterexample") for rec in lines if "serial" in rec)


def test_search_seconds_zero_stops_before_the_enumeration(capsys):
    code, out, _ = run(capsys, "search", "--vars", "7", "--max-gens", "9", "--seconds", "0",
                       "--format", "json")
    assert code == 3
    summary = {"budget_exhausted": True, "candidates": 0, "survivors": 0}
    assert json.loads(out) == {"summary": summary}


def test_search_seconds_zero_skips_the_seeds(capsys):
    # 9 variables and 8 generators admit the seeded polarized example
    code, out, _ = run(capsys, "search", "--vars", "9", "--max-gens", "8", "--seconds", "0",
                       "--format", "json")
    assert code == 3
    summary = json.loads(out)["summary"]
    assert summary["candidates"] == 0
    assert summary["budget_exhausted"] is True


@pytest.mark.parametrize("flag, value, message", [
    ("--seconds", "-1", "seconds must be non-negative"),
    ("--budget", "-5", "budget must be non-negative"),
])
def test_search_negative_budget_is_a_usage_error(capsys, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--vars", "7", "--max-gens", "9", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and message in err


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "betti", "--example", "nope")
    assert code == 2
    code, _, err = run(capsys, "betti")
    assert code == 2
    bad = tmp_path / "bad.ideal"
    bad.write_text("x^2\n")
    code, _, err = run(capsys, "betti", "--ideal", str(bad))
    assert code == 2
    code, _, err = run(capsys, "betti", "--ideal", str(tmp_path / "missing.ideal"))
    assert code == 2


def test_complex_with_unknown_vertex_is_a_parse_error(tmp_path):
    # run as a process, so an uncaught exception would show as a traceback
    cx = tmp_path / "bad.cx"
    cx.write_text("vertices: a b\na c\n")
    env = {**os.environ, "PYTHONPATH": str(Path(golod_lab.__file__).parents[1])}
    for argv in (["sr"], ["skeleton", "--dim", "1"]):
        proc = subprocess.run(
            [sys.executable, "-m", "golod_lab.cli", *argv, "--complex", str(cx)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2, argv
        assert "facet ['a', 'c'] uses unknown vertices" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_nonminimal_ideal_file_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "redundant.ideal"
    f.write_text("vars: x y\nx\nx*y\n")
    code, _, err = run(capsys, "betti", "--ideal", str(f))
    assert code == 2 and "minimal" in err
