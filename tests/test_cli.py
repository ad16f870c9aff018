import json
import sys

import pytest

from tamehall import hall as hall_mod
from tamehall.cli import _styled, main


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *args):
    rc, out, err = run(capsys, *args, "--format", "json")
    return rc, json.loads(out), err


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "Usage" in out


def test_quiver_info_text(capsys):
    rc, out, _ = run(capsys, "quiver-info", "--preset", "dtilde:4")
    assert rc == 0
    lines = out.splitlines()
    assert "symbol: D~4" in lines
    assert "vertices: 5" in lines
    assert "delta: 1 1 2 1 1" in lines
    assert "simple defects: 1 1 -2 1 1" in lines


def test_quiver_info_json_dynkin(capsys):
    rc, doc, _ = run_json(capsys, "quiver-info", "--preset", "e:6")
    assert rc == 0
    assert doc["schema"] == 1
    assert doc["symbol"] == "E6"
    assert doc["affine"] is False
    assert doc["delta"] is None


def test_quiver_info_sink_reorients(capsys):
    rc, out, _ = run(capsys, "quiver-info", "--preset", "dtilde:4",
                     "--sink", "1")
    assert rc == 0
    assert "3->1" in out


def test_quiver_info_from_file(tmp_path, capsys):
    path = tmp_path / "kron.quiver"
    path.write_text("# double arrow\nvertices 2\narrow 1 2\narrow 1 2\n")
    rc, out, _ = run(capsys, "quiver-info", "--quiver-file", str(path))
    assert rc == 0
    assert "symbol: A~1" in out


def test_quiver_source_required(capsys):
    rc, _, err = run(capsys, "quiver-info")
    assert rc == 3
    rc2, _, _ = run(capsys, "quiver-info", "--preset", "a:2",
                    "--quiver-file", "x")
    assert rc2 == 3


def test_bad_quiver_file_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "bad.quiver"
    path.write_text("vertices 2\narrow 1 5\n")
    rc, _, err = run(capsys, "quiver-info", "--quiver-file", str(path))
    assert rc == 3
    assert "error" in err
    rc2, _, _ = run(capsys, "quiver-info", "--quiver-file",
                    str(tmp_path / "absent.quiver"))
    assert rc2 == 3


@pytest.mark.parametrize("arrows", [((1, 2), (2, 3), (1, 3)),
                                    ((1, 2), (2, 3), (3, 4), (1, 4))],
                         ids=["3-cycle", "4-cycle"])
def test_cycles_have_no_one_sink_reorientation(tmp_path, capsys, arrows):
    n = len(arrows)
    path = tmp_path / "cycle.quiver"
    path.write_text(f"vertices {n}\n" + "".join(f"arrow {s} {t}\n" for s, t in arrows))
    root = ",".join("1" if j == n - 1 else "0" for j in range(n))
    for args in (("hall-table",), ("hall-poly", "--root", root)):
        rc, out, err = run(capsys, *args, "--quiver-file", str(path))
        assert rc == 3 and "PASS" not in out
        assert "reorientation requires a tree (or the 2-vertex double edge)" in err


def test_sink_with_file_rejected(tmp_path, capsys):
    path = tmp_path / "k.quiver"
    path.write_text("vertices 2\narrow 1 2\narrow 1 2\n")
    rc, _, _ = run(capsys, "quiver-info", "--quiver-file", str(path),
                   "--sink", "1")
    assert rc == 3


def test_sink_out_of_range(capsys):
    rc, _, _ = run(capsys, "quiver-info", "--preset", "dtilde:4", "--sink", "9")
    assert rc == 3


def test_unknown_command_exits_three(capsys):
    rc, _, err = run(capsys, "nonsense")
    assert rc == 3
    assert "error" in err


def test_roots_text(capsys):
    rc, out, _ = run(capsys, "roots", "--bound", "1", "--preset", "a:3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "total: 6"
    assert lines[0] == "0,0,1  length=1"


def test_roots_json_affine_has_defects(capsys):
    rc, doc, _ = run_json(capsys, "roots", "--bound", "2", "--preset",
                          "kronecker")
    assert rc == 0
    by_dims = {tuple(r["dims"]): r for r in doc["roots"]}
    assert by_dims[(1, 2)]["defect"] == -1
    assert by_dims[(2, 1)]["defect"] == 1


def test_roots_budget_overflow_exits_two(capsys):
    rc, _, err = run(capsys, "roots", "--bound", "9", "--preset", "e8tilde")
    assert rc == 2


def test_build_json(capsys):
    rc, doc, _ = run_json(capsys, "build", "prep:1,2", "--preset", "kronecker",
                          "--field", "3")
    assert rc == 0
    assert doc["dims"] == [1, 2]
    assert doc["defect"] == -1
    assert doc["end_dim"] == 1
    assert len(doc["mats"]) == 2


def test_build_homogeneous_index_range(capsys):
    rc, doc, _ = run_json(capsys, "build", "homog:2", "--preset", "dtilde:4",
                          "--field", "4")
    assert rc == 0
    assert doc["dims"] == [1, 1, 2, 1, 1]
    rc2, _, _ = run(capsys, "build", "homog:2", "--preset", "dtilde:4",
                    "--field", "3")
    assert rc2 == 3


def test_build_rejections(capsys):
    assert run(capsys, "build", "simple:9", "--preset", "kronecker",
               "--field", "3")[0] == 3
    assert run(capsys, "build", "simple:1", "--preset", "kronecker",
               "--field", "6")[0] == 3
    assert run(capsys, "build", "simple", "--preset", "kronecker",
               "--field", "3")[0] == 3
    assert run(capsys, "build", "weird:1", "--preset", "kronecker",
               "--field", "3")[0] == 3
    assert run(capsys, "build", "prep:1", "--preset", "dtilde:4",
               "--field", "3")[0] == 3


def test_reflect_kills_sink_simple(capsys):
    rc, doc, _ = run_json(capsys, "reflect", "simple:3", "--vertex", "3",
                          "--preset", "dtilde:4", "--field", "3")
    assert rc == 0
    assert doc["dims"] == [0, 0, 0, 0, 0]
    assert [3, 1] in doc["arrows"]


def test_reflect_non_sink_rejected(capsys):
    rc, _, _ = run(capsys, "reflect", "simple:1", "--vertex", "1",
                   "--preset", "dtilde:4", "--field", "3")
    assert rc == 3


@pytest.mark.parametrize("vertex, minus, message", [
    ("2", True, "error: vertex 2 is not a source\n"),
    ("1", False, "error: vertex 1 is not a sink\n"),
], ids=["minus", "plus"])
def test_reflect_names_the_vertex_as_typed(capsys, vertex, minus, message):
    args = ["reflect", "simple:1", "--vertex", vertex, "--preset", "kronecker", "--field", "3"]
    rc, out, err = run(capsys, *args, *(["--minus"] if minus else []))
    assert (rc, out, err) == (3, "", message)


def test_reflect_minus_at_source(capsys):
    rc, doc, _ = run_json(capsys, "reflect", "simple:1", "--vertex", "1",
                          "--minus", "--preset", "dtilde:4", "--field", "3")
    assert rc == 0
    assert doc["dims"] == [0, 0, 0, 0, 0]


def test_tau_round_trip(capsys):
    rc, doc, _ = run_json(capsys, "tau", "prep:1,1,2,1,0", "--preset",
                          "dtilde:4", "--field", "3")
    assert rc == 0
    assert doc["dims"] == [0, 0, 1, 0, 1]
    rc2, doc2, _ = run_json(capsys, "tau", "prep:0,0,1,0,1", "--minus",
                            "--preset", "dtilde:4", "--field", "3")
    assert rc2 == 0
    assert doc2["dims"] == [1, 1, 2, 1, 0]


def test_hall_number_text_and_json(capsys):
    args = ("hall-number", "homog:1", "simple:5", "prep:1,1,2,1,0",
            "--preset", "dtilde:4", "--field", "5")
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    assert out == "1\n"
    rc2, doc, _ = run_json(capsys, *args)
    assert rc2 == 0
    assert doc["value"] == 1
    assert doc["field"] == 5


def test_hall_number_budget_overflow_exits_two(capsys):
    rc, _, _ = run(capsys, "hall-number", "homog:1", "prei:1,1,1,1,1",
                   "simple:3", "--preset", "dtilde:4", "--field", "5",
                   "--budget", "1")
    assert rc == 2


def test_hall_poly_center_root(capsys):
    rc, doc, err = run_json(capsys, "hall-poly", "--root", "0,0,1,0,0",
                            "--preset", "dtilde:4")
    assert rc == 0
    assert doc["coeffs"] == [-3, 1]
    assert doc["poly"] == "q - 3"
    assert doc["verified_at"] == [11, 13]
    assert "sampling" in err


def test_hall_poly_bad_root_rejected(capsys):
    rc, _, _ = run(capsys, "hall-poly", "--root", "1,1,1,1,1",
                   "--preset", "dtilde:4")
    assert rc == 3
    rc2, _, _ = run(capsys, "hall-poly", "--root", "1,0,0,0,0",
                    "--preset", "dtilde:4")
    assert rc2 == 3


def test_hall_table_json_passes_pinned(capsys):
    rc, doc, err = run_json(capsys, "hall-table", "--preset", "dtilde:4")
    assert rc == 0
    assert doc["pinned_check"] == "pass"
    assert [r["coeffs"] for r in doc["rows"]] == [[1], [-3, 1]]
    assert "row m=" in err


def test_hall_table_text_keeps_stdout_clean(capsys):
    rc, out, err = run(capsys, "hall-table", "--preset", "dtilde:4")
    assert rc == 0
    assert "row m=" not in out
    assert "table check: PASS" in out


def test_hall_table_mismatch_exits_four(monkeypatch, capsys):
    monkeypatch.setitem(hall_mod.PINNED_SINK_POLYNOMIALS, 1, (2,))
    rc, doc, err = run_json(capsys, "hall-table", "--preset", "dtilde:4")
    assert rc == 4
    assert doc["pinned_check"] == "fail"
    assert doc["mismatches"]
    assert "error" in err


def test_gr_measure_regular(capsys):
    rc, out, _ = run(capsys, "gr-measure", "homog:1", "--preset", "dtilde:4",
                     "--field", "3")
    assert rc == 0
    assert out == "measure: 1 2 5 6\n"


@pytest.mark.parametrize("budget, code", [("48", 2), ("81", 0)])
def test_gr_measure_budget_reaches_the_indecomposability_test(capsys, budget, code):
    # 48 subrepresentations fit the budget, but the submodule (0,0,2,0,0)
    # has 3^4 = 81 endomorphisms
    rc, out, err = run(capsys, "gr-measure", "--preset", "dtilde:4", "--sink", "5",
                       "--field", "3", "--budget", budget, "prei:1,1,2,1,0")
    assert rc == code
    if code:
        assert "3^4 endomorphisms exceed budget" in err
    else:
        assert out == "measure: 1 2 5\n"


def test_gr_check_json_report(capsys):
    rc, doc, _ = run_json(capsys, "gr-check", "--preset", "dtilde:4",
                          "--field", "3")
    assert rc == 0
    assert doc["check"] == "pass"
    assert doc["gr_submodule"]["defect"] == -1
    assert doc["quotient"]["defect"] == 1
    assert doc["kronecker_pair"] == {"hom_qp": 0, "hom_pq": 0,
                                     "ext_pq": 0, "ext_qp": 2}


GR_CHECK_PINNED = {
    "e7tilde": ([1, 2, 3, 4, 7, 8, 12, 17, 18], [0, 2, 3, 4, 3, 2, 1, 2],
                [1, 0, 0, 0, 0, 0, 0, 0]),
    "e8tilde": ([1, 2, 3, 4, 5, 6, 9, 10, 15, 20, 26, 30], [1, 2, 3, 4, 5, 5, 3, 1, 2],
                [0, 0, 0, 0, 0, 1, 1, 1, 1]),
}


@pytest.mark.parametrize("preset", sorted(GR_CHECK_PINNED))
def test_gr_check_e7_e8_same_over_every_field(capsys, preset):
    """The paper's headline case: on E~7 and E~8 the GR submodule of a
    homogeneous simple is a preprojective of defect -1, and the report
    does not depend on the field."""
    measure, sub, quotient = GR_CHECK_PINNED[preset]
    reports = []
    for q in (3, 4, 5):
        rc, doc, _ = run_json(capsys, "gr-check", "--preset", preset, "--field", str(q))
        assert (rc, doc["check"], doc["field"]) == (0, "pass", q)
        reports.append({k: v for k, v in doc.items() if k != "field"})
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["measure"] == measure
    assert reports[0]["gr_submodule"] == {"dims": sub, "defect": -1}
    assert reports[0]["quotient"] == {"dims": quotient, "defect": 1}
    assert reports[0]["kronecker_pair"] == {"hom_qp": 0, "hom_pq": 0, "ext_pq": 0, "ext_qp": 2}


def test_gr_check_needs_affine(capsys):
    rc, _, _ = run(capsys, "gr-check", "--preset", "d:4", "--field", "3")
    assert rc == 3


def test_necklace_values(capsys):
    rc, out, _ = run(capsys, "necklace", "--q", "3", "--l", "2")
    assert rc == 0
    assert out == "3\n"
    rc2, doc, _ = run_json(capsys, "necklace", "--q", "2", "--l", "4")
    assert rc2 == 0
    assert doc["value"] == 3


@pytest.mark.parametrize("q", ["6", "1", "0", "-3"])
def test_necklace_rejects_non_prime_power(capsys, q):
    rc, out, err = run(capsys, "necklace", "--q", q, "--l", "2")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ")


def test_oracle_dynkin_single_field(capsys):
    rc, out, err = run(capsys, "oracle-dynkin", "--field", "2")
    assert rc == 0
    assert "0 failures" in out
    assert "FAIL" not in out
    assert "oracle checks over GF(2)" in err


def test_oracle_dynkin_json_default_fields(capsys):
    rc, doc, _ = run_json(capsys, "oracle-dynkin")
    assert rc == 0
    assert doc["fields"] == [2, 3, 4]
    assert doc["failures"] == 0
    assert all(c["ok"] for c in doc["checks"])


def test_config_supplies_defaults_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": 4, "format": "json"}))
    rc, out, _ = run(capsys, "build", "simple:1", "--preset", "kronecker",
                     "--config", str(cfg))
    assert rc == 0
    assert json.loads(out)["field"] == 4
    rc2, out2, _ = run(capsys, "build", "simple:1", "--preset", "kronecker",
                       "--config", str(cfg), "--field", "2")
    assert rc2 == 0
    assert json.loads(out2)["field"] == 2


def test_config_rejections(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"no-such-flag": 1}))
    assert run(capsys, "necklace", "--q", "2", "--l", "2", "--config",
               str(bad_key))[0] == 3
    not_obj = tmp_path / "not_obj.json"
    not_obj.write_text("[1, 2]")
    assert run(capsys, "necklace", "--q", "2", "--l", "2", "--config",
               str(not_obj))[0] == 3
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert run(capsys, "necklace", "--q", "2", "--l", "2", "--config",
               str(broken))[0] == 3


def test_missing_option_after_config_merge(capsys):
    rc, _, err = run(capsys, "build", "simple:1", "--preset", "kronecker")
    assert rc == 3
    assert "--field" in err


@pytest.mark.parametrize("args, key", [
    (("gr-measure", "homog:1", "--preset", "dtilde:4", "--field", "3"), "budget"),
    (("oracle-dynkin",), "field"),
    (("necklace", "--q", "3", "--l", "2"), "format"),
    (("build", "simple:1", "--preset", "kronecker", "--field", "3"), "sink"),
])
def test_config_null_keeps_default(tmp_path, capsys, args, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}))
    assert run(capsys, *args, "--config", str(cfg)) == run(capsys, *args)


@pytest.mark.parametrize("value", [[1], {"a": 1}, [None]])
def test_config_value_of_wrong_type_exits_three(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": value}))
    rc, _, err = run(capsys, "gr-measure", "homog:1", "--preset", "dtilde:4",
                     "--field", "3", "--config", str(cfg))
    assert rc == 3
    assert "budget" in err
    cfg.write_text(json.dumps({"field": value}))
    assert run(capsys, "oracle-dynkin", "--config", str(cfg))[0] == 3


KRONECKER_FILE = "vertices 2\narrow 1 2\narrow 1 2\n"

# Every subcommand with every option it takes except --format and --config.
CONFIG_CASES = [
    ("quiver-info", (), {"quiver-file": None}),
    ("roots", (), {"bound": 2, "preset": "dtilde:4", "sink": 1}),
    ("build", ("prep:1,1,2,1,0",), {"field": 3, "preset": "dtilde:4", "sink": 3}),
    ("reflect", ("simple:1",), {"vertex": 1, "minus": True, "field": 3,
                                "preset": "dtilde:4", "sink": 3}),
    ("tau", ("prep:0,0,1,0,1",), {"minus": True, "field": 3,
                                  "preset": "dtilde:4", "sink": 3}),
    ("hall-number", ("homog:1", "simple:5", "prep:1,1,2,1,0"),
     {"field": 5, "budget": 1000, "preset": "dtilde:4", "sink": 3}),
    ("hall-poly", (), {"root": "0,0,1,0,0", "preset": "dtilde:4", "sink": 3}),
    ("hall-table", (), {"preset": "dtilde:4", "sink": 3}),
    ("gr-measure", ("homog:1",), {"field": 3, "budget": 1000,
                                  "preset": "dtilde:4", "sink": 3}),
    ("gr-check", (), {"field": 3, "preset": "dtilde:4", "sink": 3}),
    ("necklace", (), {"q": 4, "l": 3}),
    ("oracle-dynkin", (), {"field": [2, 3]}),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, arguments, options", CONFIG_CASES,
                         ids=[c[0] for c in CONFIG_CASES])
def test_config_file_matches_flags(tmp_path, capsys, command, arguments,
                                   options, fmt):
    quiver_file = tmp_path / "kron.quiver"
    quiver_file.write_text(KRONECKER_FILE)
    options = {k: str(quiver_file) if k == "quiver-file" else v
               for k, v in options.items()}
    flags = []
    for key, value in options.items():
        if value is True:
            flags.append(f"--{key}")
        else:
            for item in value if isinstance(value, list) else [value]:
                flags += [f"--{key}", str(item)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(options))
    rc, out, _ = run(capsys, command, *arguments, *flags, "--format", fmt)
    rc2, out2, _ = run(capsys, command, *arguments, "--config", str(cfg),
                       "--format", fmt)
    assert rc == 0
    assert (rc2, out2) == (rc, out)


def test_byte_identical_reruns(capsys):
    first = run(capsys, "gr-check", "--preset", "dtilde:4", "--field", "3",
                "--format", "json")
    second = run(capsys, "gr-check", "--preset", "dtilde:4", "--field", "3",
                 "--format", "json")
    assert first == second
    a = run(capsys, "roots", "--bound", "2", "--preset", "dtilde:4")
    b = run(capsys, "roots", "--bound", "2", "--preset", "dtilde:4")
    assert a == b


def test_styled_respects_no_color(monkeypatch):
    class FakeTty:
        def isatty(self):
            return True

    monkeypatch.setattr(sys, "stdout", FakeTty())
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert "\x1b[" in _styled("PASS", True)
    monkeypatch.setenv("NO_COLOR", "1")
    assert _styled("PASS", True) == "PASS"
