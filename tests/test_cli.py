import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import golod_lab
from golod_lab import cli, taylor_dga
from golod_lab import massey_golod as mg
from golod_lab import series_engine as se
from golod_lab.cli import main
from golod_lab.homology_engine import BettiData
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
    code3, out, err = run(capsys, "fiber", "--example", "paper", "--mdeg", "1,1")
    assert (code3, out, err) == (2, "", "error: multidegree needs 5 components\n")


def test_json_output_builds_no_text(capsys, monkeypatch):
    """The text of a command is built only when it is printed: with the Betti
    table unbuildable, betti in JSON still answers, and in text it fails."""
    def unbuildable(self):
        raise AssertionError("table_str called")

    monkeypatch.setattr(BettiData, "table_str", unbuildable)
    code, payload, _ = run_json(capsys, "betti", "--example", "paper")
    assert code == 0 and payload["totals"] == [1, 8, 14, 8, 1]
    assert run(capsys, "betti", "--example", "paper")[0] == 4


def test_exponents_of_10_to_the_12_answer_at_once(capsys, tmp_path):
    """The order tests read only the order of the exponents, so an ideal with
    exponents of 10^12 answers products, golod, massey3 and betti in JSON
    as one with small exponents does."""
    wide = tmp_path / "wide.ideal"
    wide.write_text("vars: x y\nx^1000000000000\nx*y\ny^1000000000000\n")
    code, payload, _ = run_json(capsys, "products", "--ideal", str(wide))
    assert code == 0 and payload["trivial"] is True
    code, payload, _ = run_json(capsys, "golod", "--ideal", str(wide))
    assert (code, payload["status"], payload["route"]) == (0, "Golod", "massey-arity-2")
    assert run(capsys, "massey3", "--all", "--ideal", str(wide))[0] == 0
    code, payload, _ = run_json(capsys, "betti", "--ideal", str(wide))
    assert code == 0 and payload["totals"] == [1, 3, 2]


def test_wide_boxes_and_tables_exit_3(capsys, tmp_path):
    """``series`` on a box of 2 * 10^12 multidegrees and ``betti`` in text on
    a table of 10^12 rows end in exit 3 at once, with nothing on stdout;
    ``betti`` in JSON still answers on the second."""
    box = tmp_path / "box.ideal"
    box.write_text("vars: x y z\nx^1000000\nx*y\ny^3*z^7\nx^3*z^500000\n")
    rows = tmp_path / "rows.ideal"
    rows.write_text("vars: x y\nx^1000000000000\nx*y\ny^1000000000000\n")
    for argv, message in ((["series", "--trunc", "2", "--ideal", str(box)],
                           "has 2,000,006,000,004 multidegrees, past 262,144"),
                          (["betti", "--ideal", str(rows)],
                           "would have 1,000,000,000,000 rows, past 4,194,304")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert message in err, argv
    code, payload, _ = run_json(capsys, "betti", "--ideal", str(rows))
    assert code == 0 and payload["regularity"] == 999999999999


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


def test_pattern_check_reads_the_named_sharps(capsys):
    # a core generator named as every sharp fails the three sharp conditions,
    # although other generators divide each lcm(bridge, corner)
    roles = "a=0,b=3,c=6,ab=1,bc=4,ca=7,ab#c=0,bc#a=0,ca#b=0"
    code, payload, _ = run_json(capsys, "pattern-check", "--example", "paper", "--roles", roles)
    assert code == 1 and payload["all_ok"] is False
    assert [k for k, v in payload.items() if v is False] == [
        "ab_sharp_c_exists", "all_ok", "bc_sharp_a_exists", "ca_sharp_b_exists"]
    code, out, _ = run(capsys, "pattern-check", "--example", "paper", "--roles", roles)
    assert code == 1 and out.endswith("all conditions hold: False\n")


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
    ("--vars", "-3", "variable count must be non-negative"),
    ("--max-gens", "-1", "generator count must be non-negative"),
])
def test_search_negative_budget_is_a_usage_error(capsys, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--vars", "7", "--max-gens", "9", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and message in err


def test_search_keeps_its_time_budget_at_eight_generators():
    """With 8 generators bc#a and ca#b are one support, drawn once, so no
    loop between two budget tests scans choices it must reject: a one-second
    search on 30 variables ends with its summary, well inside the timeout."""
    env = {**os.environ, "PYTHONPATH": str(Path(golod_lab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "golod_lab.cli", "search", "--vars", "30", "--max-gens", "8",
         "--seconds", "1", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])["summary"]
    assert summary["budget_exhausted"] is True


def _run_child(script, *flags):
    """Run ``script`` in a fresh interpreter, so that the collector's state
    (frozen objects, automatic collection) and its imports are its own, not
    pytest's."""
    env = {**os.environ, "PYTHONPATH": str(Path(golod_lab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


PRODUCTS = '["products", "--example", "paper", "--format", "json"]'
UNLOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "golod_lab.counterexample_search")


def test_imports_load_neither_dataclasses_nor_the_search():
    """Importing the package, and then its CLI, loads no ``dataclasses`` and
    nothing it pulls in, nor the search module no ``paper`` command runs.
    The interpreter runs without ``site``, whose start-up files are not ours."""
    _run_child(f"""
import sys
def loaded():
    return sorted(sys.modules.keys() & set({UNLOADED!r}))
import golod_lab
assert not loaded(), loaded()
import golod_lab.cli
assert not loaded(), loaded()
""", "-S")


@pytest.mark.parametrize("argv, code", [
    (["pattern-check", "--example", "paper"], 0),
    (["search", "--vars", "7", "--max-gens", "9", "--budget", "3"], 3),
    (["search", "--vars", "3", "--max-gens", "3", "--budget", "5"], 0),
])
def test_search_commands_load_the_search_module_on_demand(argv, code):
    _run_child(f"""
import contextlib, io, sys
from golod_lab import cli
assert "golod_lab.counterexample_search" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
assert code == {code}, code
assert "golod_lab.counterexample_search" in sys.modules
""", "-S")


def test_main_freezes_the_import_graph_once():
    """The first call freezes what exists, so the exit collection skips the
    import graph; a second call freezes nothing more.  Both get one argv
    list and both counts are read inside the redirection, so that no object
    the first call froze dies between the two counts."""
    _run_child(f"""
import contextlib, gc, io
from golod_lab import cli
argv = {PRODUCTS}
assert gc.get_freeze_count() == 0
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(argv)
    frozen = gc.get_freeze_count()
    assert frozen > 0
    cli.main(argv)
    assert gc.get_freeze_count() == frozen
""")


def test_main_leaves_a_previous_call_collectable():
    """The ideal of one call, kept alive only by its own cycles (its derived
    strands), is freed by a collection after a later call: the later call
    does not freeze it."""
    _run_child(f"""
import contextlib, gc, io, weakref
from golod_lab import cli
gc.disable()
refs = []
build = cli.counterexample_ideal
def recording():
    ideal = build()
    refs.append(weakref.ref(ideal))
    return ideal
cli.counterexample_ideal = recording
with contextlib.redirect_stdout(io.StringIO()):
    cli.main({PRODUCTS})
    cli.main({PRODUCTS})
gc.collect()
assert refs[0]() is None
""")


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


ALL_COMMANDS = "{betti,products,massey3,golod,series,polarize,fiber,complex,sr,skeleton,pattern-check,search}"


def _parse_exit(capsys, parse, argv):
    """Exit code, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("flag, code", [("--help", 0), ("--no-such-flag", 2)])
@pytest.mark.parametrize("command", [c[0] for c in cli.COMMANDS])
def test_narrowed_parser_prints_what_the_full_parser_does(capsys, monkeypatch, command, flag, code):
    """``main`` builds only the named subcommand's parser; its help, and its
    usage error with the usage line that lists every subcommand, are the
    full parser's, byte for byte."""
    built = []
    build = cli.build_parser

    def recording(*args):
        ap = build(*args)
        built.append(sorted(ap._subparsers._group_actions[0].choices))
        return ap

    monkeypatch.setattr(cli, "build_parser", recording)
    narrowed = _parse_exit(capsys, main, [command, flag])
    assert built == [[command]]
    assert narrowed == _parse_exit(capsys, build().parse_args, [command, flag])
    assert narrowed[0] == code
    if flag != "--help":  # unless a required option is missing first
        assert ALL_COMMANDS in narrowed[2] or "arguments are required: --" in narrowed[2]


@pytest.mark.parametrize("argv, stream, line", [
    ([], 2, "golod-lab: error: the following arguments are required: command"),
    (["--help"], 1, "pattern search for trivial-product non-Golod ideals"),
    (["nosuch"], 2, "golod-lab: error: argument command: invalid choice: 'nosuch' (choose from 'betti',"),
])
def test_top_level_usage_builds_every_subcommand(capsys, argv, stream, line):
    """With no command, ``--help`` or an unknown command, ``main`` prints
    what the full parser prints, naming the action ``command``."""
    got = _parse_exit(capsys, main, argv)
    assert got == _parse_exit(capsys, cli.build_parser().parse_args, argv)
    assert got[0] == (0 if argv == ["--help"] else 2)
    assert ALL_COMMANDS in got[stream] and line in got[stream]


# valid values of each option that takes one
VALUES = {
    "--format": ["text", "json"], "--example": ["paper", "nope"], "--ideal": ["in.ideal", ""],
    "--field": ["q", "fp:2", "fp:0"], "--gens": ["m_a,m_b,m_c", "0,3,6"],
    "--trunc": ["0", "5", "007"], "--mdeg": ["1,2,1,2,3"], "--complex": ["in.cx"],
    "--dim": ["4", "0"], "--roles": ["a=0,b=3", "ab#c=2"], "--vars": ["7", "0"],
    "--max-gens": ["9"], "--budget": ["150", "0"], "--seconds": ["0.5", "1e-3", "inf"],
}


def _argv_forms(command):
    """(argv, plain) pairs for ``command``: plain command lines in several
    orders, and forms only argparse reads, each made from a plain one.  The
    options, and which are required, store_true or exclusive, are argparse's."""
    sub = cli.build_parser(command)._subparsers._group_actions[0].choices[command]
    actions = [a for a in sub._actions if a.option_strings and a.dest != "help"]
    exclusive = [a.option_strings[0] for g in sub._mutually_exclusive_groups
                 for a in g._group_actions]
    rng = random.Random(command)

    def pair(a):
        return [a.option_strings[0]] + ([] if a.nargs == 0 else [rng.choice(VALUES[a.option_strings[0]])])

    forms = []
    for k in range(6):  # the required options alone, every option, then random sets
        chosen = actions if k == 1 else [a for a in actions if a.required or (k and rng.random() < 0.6)]
        mutex = [a for a in chosen if a.option_strings[0] in exclusive]
        chosen = [a for a in chosen if a not in mutex[1:]]
        rng.shuffle(chosen)
        forms.append(([command] + [t for a in chosen for t in pair(a)], True))
    full = forms[1][0]  # every option that takes a value, and no store_true flag

    def replaced(flag, value):
        i = full.index(flag)
        return full[:i + 1] + [value] + full[i + 2:]

    declined = [
        [command, f"{full[1]}={full[2]}", *full[3:]],
        [command] + [t[:-1] if t.startswith("--") else t for t in full[1:]],
        full + full[1:3],
        full + ["--"],
        [command, "--"] + full[1:],
        full + ["-h"],
        full + ["--help"],
        replaced("--format", "xml"),
        full + ["extra"],
    ]
    for a in actions:
        flag = a.option_strings[0]
        if a.required:
            declined.append([t for i, t in enumerate(full) if flag not in full[i - 1:i + 1]])
        if a.nargs == 0:  # full + [flag] gives both of massey3's exclusive options
            declined += [full + [flag], [command, flag, flag], [command, flag, "x"]]
        else:
            declined.append(replaced(flag, "-" + VALUES[flag][0]))
            if a.type is not None:
                declined += [replaced(flag, bad) for bad in ("-1", "x", "nan", "")]
    return forms + [(argv, False) for argv in declined]


@pytest.mark.parametrize("command", [c[0] for c in cli.COMMANDS])
def test_plain_parse_matches_argparse(capsys, monkeypatch, command):
    """``main`` reads a plain argv without argparse into the namespace
    argparse returns, and passes every other form to argparse, which
    parses it or prints what the full parser prints."""
    seen, built = [], []
    build = cli.build_parser

    def recorder(name):
        def record(args):
            seen.append((name, vars(args)))
            return 0
        return record

    def recording(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "COMMANDS", tuple(
        (name, help_text, recorder(name), options)
        for name, help_text, run, options in cli.COMMANDS))
    monkeypatch.setattr(cli, "build_parser", recording)
    forms = _argv_forms(command)
    for argv, plain in forms:
        built.clear()
        try:
            want = vars(build().parse_args(argv))
        except SystemExit as exc:
            want = (exc.code, *capsys.readouterr())
            assert _parse_exit(capsys, main, argv) == want, argv
        else:
            assert main(argv) == 0
            assert seen.pop() == (command, want), argv
        assert built == ([] if plain else [(command,)]), argv
    assert 0 < sum(plain for _, plain in forms) < len(forms)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("field", ["q", "fp:2"])
def test_benchmark_commands_never_build_the_parser(capsys, monkeypatch, tmp_path, field, seed):
    """Every command of the paper benchmark's passes is plain: with
    ``build_parser`` made to raise, it prints what it prints through
    argparse, with the same exit code."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    def refuse(*args):
        raise RuntimeError(f"argparse built for {args}")

    for name, argv, code, check in workloads.paper_commands(field, seed, str(tmp_path / "in.ideal")):
        with monkeypatch.context() as m:
            m.setattr(cli, "_plain_args", lambda argv: None)
            through_argparse = run(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", refuse)
            assert run(capsys, *argv) == through_argparse
        assert through_argparse[0] == code and not check(json.loads(through_argparse[1])), name


def test_plain_command_imports_no_argparse():
    """A plain command imports neither argparse nor what its first use
    imports; a usage error does, through the argparse path."""
    _run_child("""
import contextlib, io, sys
from golod_lab import cli
def loaded():
    return sorted(sys.modules.keys() & {"argparse", "gettext", "locale"})
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["betti", "--example", "paper", "--format", "json"]) == 0
assert not loaded(), loaded()
with contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(["betti", "--no-such-flag"])
    except SystemExit as exc:
        code = exc.code
assert code == 2 and loaded() == ["argparse", "gettext", "locale"], loaded()
""", "-S")


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


@pytest.mark.parametrize("module, name, argv", [
    (mg, "golod_decide", ["golod", "--example", "paper"]),
    (se, "p_series", ["series", "--example", "paper", "--trunc", "2"]),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_internal_invariant_failure_exits_4(capsys, monkeypatch, module, name, argv, fmt):
    """A failed internal invariant is neither a negative answer (exit 1) nor
    a usage error (exit 2): it exits 4 with one line on standard error,
    nothing on standard output and no traceback."""
    def broken(*args):
        raise AssertionError("P > Q at (2, 0), t^2")

    monkeypatch.setattr(module, name, broken)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (4, "")
    assert err == "error: internal invariant failed: P > Q at (2, 0), t^2\n"
    assert "Traceback" not in err


def test_nonminimal_ideal_file_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "redundant.ideal"
    f.write_text("vars: x y\nx\nx*y\n")
    code, _, err = run(capsys, "betti", "--ideal", str(f))
    assert code == 2 and "minimal" in err
