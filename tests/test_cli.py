import json


from loopforge.cli import main
from loopforge.loops import loop_to_cayley


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_round_trip(tmp_path, capsys):
    path = tmp_path / "c6.json"
    code = main(["construct", "--kind", "cyclic:6", "-o", str(path)])
    assert code == 0
    first = path.read_bytes()
    doc = json.loads(first)
    assert doc["order"] == 6
    assert doc["elements"][0] == "e"
    assert doc["table"][0] == list(range(6))
    # load -> re-serialise must be byte identical
    code, out = run(capsys, "check", "--loop", str(path), "--property", "associative")
    assert code == 0
    path2 = tmp_path / "again.json"
    main(["construct", "--kind", "cyclic:6", "-o", str(path2)])
    assert path2.read_bytes() == first


def test_construct_paige2(tmp_path):
    path = tmp_path / "m2.json"
    assert main(["construct", "--kind", "paige:2", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["order"] == 120


def test_check_violation_exit_code(tmp_path, capsys):
    path = tmp_path / "m2.json"
    main(["construct", "--kind", "paige:2", "-o", str(path)])
    code, out = run(capsys, "check", "--loop", str(path), "--property", "associative")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["witness"] is not None and len(doc["witness"]) == 3


def test_check_pass_exit_code(capsys):
    code, out = run(capsys, "check", "--loop", "cml81", "--property", "moufang")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["mode"] == "exhaustive"


def test_check_identity44(capsys):
    code, out = run(capsys, "check", "--loop", "cml81", "--property", "identity44",
                    "--samples", "25", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["seed"] == 7 and doc["samples"] == 25


def test_bol8_is_not_moufang(tmp_path, capsys, bol8):
    """A left Bol loop fails the Moufang check, and embed refuses it in one line."""
    path = tmp_path / "bol8.json"
    path.write_text(json.dumps(loop_to_cayley(bol8)))
    code, out = run(capsys, "check", "--loop", str(path), "--property", "moufang")
    assert code == 1 and json.loads(out)["witness"] == [2, 1, 0]
    assert main(["embed", "--loop", str(path), "--field", "gf:2"]) == 2
    assert capsys.readouterr().err == "error: bol8 is not Moufang: witness (2, 1, 0)\n"


def test_series_json(capsys):
    code, out = run(capsys, "series", "--loop", "cml81", "--kind", "lower")
    assert code == 0
    doc = json.loads(out)
    assert doc["orders"] == [81, 3, 1]
    assert doc["nilpotency_class"] == 2


def test_algebra_report_schema(capsys):
    code, out = run(capsys, "algebra", "--loop", "chein12", "--field", "gf:7",
                    "--samples", "500")
    assert code == 0
    doc = json.loads(out)
    for key in ("dim", "ideal_dim", "unit_in_ideal", "nilpotency_index", "alternative"):
        assert key in doc
    assert doc["dim"] == 4 and doc["ideal_dim"] == 8
    assert doc["unit_in_ideal"] is False
    assert doc["alternative"]["ok"] is True
    assert doc["alternative"]["mode"] == "sampled"
    assert doc["alternative"]["seed"] is not None


def test_embed_verdict_schema(capsys):
    code, out = run(capsys, "embed", "--loop", "cml81", "--field", "gf:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "embeds"
    assert set(doc["checks"]) >= {"r1", "r2", "r3"}
    assert doc["seed"] == 0xA17E41


def test_radical_json(capsys):
    code, out = run(capsys, "radical", "--loop", "chein12", "--field", "gf:7")
    assert code == 0
    doc = json.loads(out)
    assert doc["in_class_S"] is True
    assert doc["radical_order"] == 12


def test_report_json(capsys):
    code, out = run(capsys, "report", "--loop", "s3", "--field", "gf:7")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["dim_cross_check"] is True
    assert doc["quotient_dim"] == 1


def test_usage_errors(capsys, tmp_path):
    assert main(["frobnicate"]) == 2
    assert main(["check", "--loop", "cml81", "--property", "qwerty"]) == 2
    assert main(["check", "--loop", "nonexistent_loop_name", "--property", "moufang"]) == 2
    assert main(["embed", "--loop", "cml81", "--field", "gf:6"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"order": 2, "elements": ["a","b"], "table": [[1,0],[0,1]]}')
    assert main(["check", "--loop", str(bad), "--property", "moufang"]) == 2
    assert main(["embed", "--loop", "cml81", "--field", "gf:2147483647"]) == 2
    c2 = {"order": 2, "elements": ["e", "a"], "table": [[0, 1], [1, 0]]}
    for name, doc in (("no_elements", {"order": 2, "table": c2["table"]}),
                      ("top_level_list", c2["table"]),
                      ("wrong_order", dict(c2, order=3))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--loop", str(path), "--property", "moufang"]) == 2
    # malformed tables exit 2 with a plain message instead of being truncated
    # (0.5 -> 0), read as integers (true -> 1) or accepted with repeated names
    capsys.readouterr()
    for name, doc, message in (
            ("half", dict(c2, table=[[0, 1], [1, 0.5]]), "table entry 0.5 is not an integer"),
            ("bool", dict(c2, table=[[0, 1], [1, True]]), "table entry true is not an integer"),
            ("bool_order", dict(c2, order=True, elements=["e"], table=[[0]]),
             "order true disagrees with a table of 1 rows"),
            ("same_names", dict(c2, elements=["e", "e"]), "element names are not distinct"),
            ("out_of_range", dict(c2, table=[[0, 1], [1, 2]]), "table entry out of range 0..1"),
            ("huge", dict(c2, table=[[0, 1], [1, 10**30]]), "table entry out of range 0..1"),
            ("ragged", dict(c2, table=[[0, 1], [1]]), "table is not square"),
            ("empty", {"elements": [], "table": []}, "empty table")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--loop", str(path), "--property", "moufang"]) == 2, name
        assert capsys.readouterr().err == f"error: {message}\n"
    # a sample count below 1 would check nothing and report a pass
    for argv in (["check", "--loop", "cml81", "--property", "identity44"],
                 ["algebra", "--loop", "s3", "--field", "gf:7"]):
        for samples in ("0", "-1", "-3", "x"):
            assert main(argv + ["--samples", samples]) == 2, (argv, samples)
            assert capsys.readouterr().err.endswith(
                f"error: argument --samples: expected a positive integer, got '{samples}'\n")
    for spec in ("gf:x", "gf:"):
        assert main(["algebra", "--loop", "s3", "--field", spec]) == 2
        assert capsys.readouterr().err == f"error: field spec '{spec}': p must be an integer\n"
    # a loop spec with a bad integer, or a missing file, gets a plain one-line message
    for argv, message in (
            (["construct", "--kind", "paige:x"], "loop spec 'paige:x': q must be an integer"),
            (["construct", "--kind", "paige:"], "loop spec 'paige:': q must be an integer"),
            (["construct", "--kind", "cyclic:x"], "loop spec 'cyclic:x': n must be an integer"),
            (["check", "--loop", "cyclic:1.5", "--property", "moufang"],
             "loop spec 'cyclic:1.5': n must be an integer"),
            (["check", "--loop", "nofile.json", "--property", "moufang"],
             "no such file: 'nofile.json'"),
            (["embed", "--loop", str(tmp_path / "missing"), "--field", "gf:3"],
             f"no such file: {str(tmp_path / 'missing')!r}")):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"


def test_options_only_where_read(capsys):
    # --samples is read by check and algebra only, --seed by every command but series
    for argv in (["embed", "--loop", "s3", "--field", "gf:7", "--samples", "5"],
                 ["radical", "--loop", "s3", "--field", "gf:7", "--samples", "5"],
                 ["report", "--loop", "s3", "--field", "gf:7", "--samples", "5"],
                 ["series", "--loop", "cml81", "--samples", "5"],
                 ["series", "--loop", "cml81", "--seed", "3"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"), argv
    # the commands that take --seed record it
    for command in ("radical", "embed", "report"):
        code, out = run(capsys, command, "--loop", "s3", "--field", "gf:7", "--seed", "3")
        assert code == 0 and json.loads(out)["seed"] == 3, command


def test_byte_stable_reports(capsys):
    code, first = run(capsys, "embed", "--loop", "cml81", "--field", "gf:3")
    code, second = run(capsys, "embed", "--loop", "cml81", "--field", "gf:3")
    assert first == second
