import json
import time

import pytest

from qwalk.cli import main, parse_time
from qwalk.errors import QwalkError
import math


def test_parse_time_symbolic():
    assert parse_time("pi/2") == math.pi / 2
    assert parse_time("pi/sqrt2") == math.pi / math.sqrt(2)
    assert parse_time("pi/(2*sqrt2)") == math.pi / (2 * math.sqrt(2))
    assert parse_time("1.25") == 1.25
    assert parse_time("1e4") == 1e4
    assert parse_time("-pi/2") == -math.pi / 2
    assert parse_time("sqrt(3)*pi") == math.sqrt(3) * math.pi
    assert parse_time("2**-1 + 3*pi") == 0.5 + 3 * math.pi


def test_parse_time_rejects_non_arithmetic():
    for text in ("(1).__class__.__name__.__len__()", "1e999", "__import__('os')",
                 "sqrt(-1)", "1/0", "(-8)**(1/3)", "e", ""):
        with pytest.raises(QwalkError):
            parse_time(text)


def test_construct_and_check_pst(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    assert main(["construct", "flyswatter", "--n", "4",
                 "-o", str(gfile)]) == 0
    doc = json.loads(gfile.read_text())
    assert doc["format"] == "qwalk/1" and doc["n"] == 13

    code = main(["check", "pst", str(gfile), "--pair", "0,6",
                 "--pair-dst", "2,4", "--tau", "pi/sqrt2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out

    code = main(["check", "pst", str(gfile), "--pair", "0,6",
                 "--pair-dst", "2,4", "--tau", "pi/2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_check_periodic_tau_zero(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    main(["construct", "path", "--n", "4", "-o", str(gfile)])
    capsys.readouterr()
    code = main(["check", "pst", str(gfile), "--pair", "0,1",
                 "--pair-dst", "0,1", "--tau", "0"])
    assert code == 0
    assert "periodic" in capsys.readouterr().out


def test_check_search_and_sedentary(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    main(["construct", "path", "--n", "2", "-o", str(gfile)])
    capsys.readouterr()
    code = main(["check", "search", str(gfile), "--vertex", "0",
                 "--vertex-dst", "1", "--t-max", "4"])
    out = capsys.readouterr().out
    assert code == 0 and "t=1.5707963" in out

    main(["construct", "complete", "--n", "5", "-o", str(gfile)])
    capsys.readouterr()
    code = main(["check", "sedentary", str(gfile), "--vertex", "0",
                 "--horizon", "auto"])
    out = capsys.readouterr().out
    assert code == 0 and "grid_min=0.6" in out


def test_construct_cayley(capsys):
    code = main(["construct", "cayley", "--group", "6",
                 "--conn", "(1),(5)"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["n"] == 6 and len(doc["edges"]) == 6


@pytest.mark.parametrize("conn", ["(1),(3)", "(1,0,2),(3,0,2)"])
def test_construct_cayley_rejects_elements_of_the_wrong_length(capsys, conn):
    assert main(["construct", "cayley", "--group", "4,4", "--conn", conn]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "coordinates" in captured.err


def test_construct_blowup(capsys):
    code = main(["construct", "blowup", "--base", "p3", "--copies", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["n"] == 6


def test_bad_inputs_exit_2(tmp_path, capsys):
    assert main(["check", "pst", str(tmp_path / "missing.json"),
                 "--pair", "0,1", "--pair-dst", "2,3", "--tau", "1"]) == 2
    capsys.readouterr()
    assert main(["construct", "gadget", "--name", "nonsense"]) == 2
    capsys.readouterr()
    gfile = tmp_path / "g.json"
    main(["construct", "path", "--n", "3", "-o", str(gfile)])
    capsys.readouterr()
    # missing dst state
    assert main(["check", "pst", str(gfile), "--pair", "0,1",
                 "--tau", "1"]) == 2


def test_non_finite_and_unsafe_inputs_exit_2(tmp_path, capsys):
    gfile = tmp_path / "nan.json"
    gfile.write_text('{"n": 2, "edges": [[0, 1, NaN]]}')
    assert main(["check", "pst", str(gfile), "--vertex", "0",
                 "--vertex-dst", "1", "--tau", "1"]) == 2
    main(["construct", "path", "--n", "2", "-o", str(gfile)])
    sfile = tmp_path / "state.json"
    sfile.write_text('{"amplitudes": [[0, NaN, 0]]}')
    assert main(["check", "pst", str(gfile), "--state", str(sfile),
                 "--vertex-dst", "1", "--tau", "pi/2"]) == 2
    assert main(["check", "pst", str(gfile), "--vertex", "0",
                 "--vertex-dst", "1",
                 "--tau", "(1).__class__.__name__.__len__()"]) == 2
    assert "PASS" not in capsys.readouterr().out


def test_bad_parameters_exit_2(tmp_path, capsys):
    gfile = tmp_path / "p2.json"
    main(["construct", "path", "--n", "2", "-o", str(gfile)])
    pair = ["--vertex", "0", "--vertex-dst", "1"]
    assert main(["check", "pgst", str(gfile), *pair, "--target", "nan"]) == 2
    assert main(["check", "search", str(gfile), *pair, "--t-max", "0"]) == 2
    assert main(["check", "sedentary", str(gfile), "--vertex", "0",
                 "--horizon", "0"]) == 2
    assert "PASS" not in capsys.readouterr().out


def test_horizon_without_a_finite_grid_exits_2(tmp_path, capsys):
    gfile = tmp_path / "p2.json"
    main(["construct", "path", "--n", "2", "-o", str(gfile)])
    pair = ["--vertex", "0", "--vertex-dst", "1"]
    start = time.monotonic()
    # 64 * 1e200 grid points are finite, but are refused at once, not
    # scanned for ever
    for horizon in ("1e308", "1e200"):
        assert main(["check", "search", str(gfile), *pair, "--t-max", horizon]) == 2
        assert main(["check", "pgst", str(gfile), *pair, "--t-cap", horizon]) == 2
    assert time.monotonic() - start < 5
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "Traceback" not in captured.err
    assert captured.err.count("grid points") == 4


def test_sedentary_horizon_without_a_finite_grid_exits_2(tmp_path, capsys):
    # P_4 is not periodic, so the horizon is not snapped: 64 M * 1e200 grid
    # points are refused, as for search and pgst
    gfile = tmp_path / "p4.json"
    main(["construct", "path", "--n", "4", "-o", str(gfile)])
    capsys.readouterr()
    assert main(["check", "sedentary", str(gfile), "--vertex", "0",
                 "--horizon", "1e200"]) == 2
    captured = capsys.readouterr()
    assert "grid_min" not in captured.out and "grid points" in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["check", "pst", "{g}", "--pair", "0,x", "--pair-dst", "1,2", "--tau", "1"],
     "--pair"),
    (["check", "pst", "{g}", "--vertex", "0", "--plus-dst", "1,2,0", "--tau", "1"],
     "--plus-dst"),
    (["construct", "cayley", "--group", "6", "--conn", "(1),(x)"], "--conn"),
    (["construct", "cayley", "--group", "6,y", "--conn", "(1,0)"], "--group"),
    (["construct", "cayley", "--conn", "(1),(5)"], "--group"),
    (["construct", "cycle"], "--n"),
    (["construct", "blowup"], "--base"),
], ids=["pair-not-int", "plus-dst-three", "conn-not-int", "group-not-int",
        "cayley-without-group", "cycle-without-n", "blowup-without-base"])
def test_bad_flag_exits_2_naming_it(tmp_path, capsys, argv, flag):
    gfile = tmp_path / "p3.json"
    main(["construct", "path", "--n", "3", "-o", str(gfile)])
    capsys.readouterr()
    assert main([a.format(g=gfile) for a in argv]) == 2
    assert flag in capsys.readouterr().err


def test_tailed_graph_rejects_off_core_state(tmp_path, capsys):
    gfile = tmp_path / "fly.json"
    main(["construct", "flyswatter", "--n", "0", "-o", str(gfile)])
    assert json.loads(gfile.read_text())["n"] == 9
    # vertex 12 would be a tail vertex, whose index depends on the truncation
    assert main(["check", "pst", str(gfile), "--vertex", "12",
                 "--vertex-dst", "0", "--tau", "1"]) == 2
    assert main(["check", "search", str(gfile), "--vertex", "0",
                 "--vertex-dst", "9", "--t-max", "2"]) == 2
    assert "FAIL" not in capsys.readouterr().out


def test_uncertifiable_horizon_exits_2_at_once(tmp_path, capsys):
    gfile = tmp_path / "fly.json"
    main(["construct", "flyswatter", "--n", "0", "-o", str(gfile)])
    # the attach vertex leaks into the tail, so only a truncation can answer,
    # and none within the cap certifies t = 1e4
    t0 = time.perf_counter()
    assert main(["check", "pgst", str(gfile), "--vertex", "3",
                 "--vertex-dst", "3", "--t-cap", "1e4"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "truncation beyond" in capsys.readouterr().err


def test_decoupled_state_answers_at_long_horizon(tmp_path, capsys):
    gfile = tmp_path / "fly.json"
    main(["construct", "flyswatter", "--n", "0", "-o", str(gfile)])
    # the pair state never reaches the tail: its Krylov space lies in the
    # core
    assert main(["check", "pgst", str(gfile), "--pair", "0,6",
                 "--pair-dst", "2,4", "--t-cap", "1e4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    t = float(out.split("t=")[1])
    assert abs(t - math.pi / math.sqrt(2)) < 1e-6
    assert main(["check", "pst", str(gfile), "--pair", "0,6",
                 "--pair-dst", "2,4", "--tau", "pi/sqrt2"]) == 0
    assert "krylov dim=3 " in capsys.readouterr().out


def test_reproduce_subset(tmp_path, capsys):
    jout = tmp_path / "matrix.json"
    code = main(["reproduce", "--set", "quotient", "--json-out", str(jout)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4
    doc = json.loads(jout.read_text())
    ids = [row["id"] for row in doc["claims"]]
    assert len(ids) == len(set(ids))
    assert all(row["pass"] for row in doc["claims"])


@pytest.mark.parametrize("state", [
    '{"amplitudes": [[1.5, 1, 0]]}',   # a fractional vertex, once read as 1
    '{"amplitudes": [[true, 1, 0]]}',  # a bool is not an index
    '{"amplitudes": [[0, 1]]}',        # an entry without its imaginary part
    '[[0, 1, 0]]',                     # not an object
], ids=["fractional-vertex", "bool-vertex", "short-entry", "array-document"])
def test_malformed_state_document_exits_2(tmp_path, capsys, state):
    gfile, sfile = tmp_path / "p3.json", tmp_path / "state.json"
    main(["construct", "path", "--n", "3", "-o", str(gfile)])
    sfile.write_text(state)
    assert main(["check", "pst", str(gfile), "--state", str(sfile),
                 "--vertex-dst", "2", "--tau", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("graph", [
    b'{"n": 3, "edges": [[0, 1]], "tails": [{"prefix": [1.0]}]}',
    b'{"n": 3, "edges": [[0, 1, "x"]]}',
    b'{"n": 3, "edges": [[0, 1, true]]}',
    b'[[0, 1, 1.0]]',
    b'\xff\xfe{"n": 2}',
    b'[' * 100_000 + b']' * 100_000,
], ids=["tail-without-attach", "string-weight", "bool-weight", "array-document",
        "not-utf8", "nested-too-deep"])
def test_malformed_graph_document_exits_2(tmp_path, capsys, graph):
    gfile = tmp_path / "g.json"
    gfile.write_bytes(graph)
    assert main(["check", "pst", str(gfile), "--vertex", "0",
                 "--vertex-dst", "1", "--tau", "1"]) == 2
    assert "error:" in capsys.readouterr().err
