import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

import roelab as rl
from roelab import bulkedge, operators
from roelab.cli import load_model, main, save_model


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassifyKgroup:
    def test_classify_examples(self, capsys):
        assert run(["classify", "--T", "-1"], capsys)[1].strip() == "AII"
        assert run(["classify"], capsys)[1].strip() == "A"
        assert run(["classify", "--T", "-1", "--C", "1"], capsys)[1].strip() == "DIII"
        assert run(["classify", "--P"], capsys)[1].strip() == "AIII"

    def test_kgroup_examples(self, capsys):
        assert run(["kgroup", "--label", "AII", "--d", "2"], capsys)[1].strip() == "Z2"
        assert run(["kgroup", "--label", "A", "--d", "1"], capsys)[1].strip() == "0"
        assert run(["kgroup", "--label", "A", "--d", "2", "--rotation", "3"],
                   capsys)[1].strip() == "Z^3"

    def test_kgroup_reflection_flags(self, capsys):
        code, out, _ = run(["kgroup", "--label", "BDI", "--d", "1", "--reflection",
                            "--pr-sign", "-1", "--tr-sign", "1"], capsys)
        assert code == 0 and out.strip() == "Z^2"

    @pytest.mark.parametrize("flags, line", [
        (["--label", "BDI", "--reflection", "--cr-sign", "1", "--tr-sign", "1",
          "--pr-sign", "-1"], "usage error: unrecognized arguments: --cr-sign 1"),
        (["--label", "AIII", "--reflection", "--cr-sign", "1", "--tr-sign", "-1"],
         "usage error: unrecognized arguments: --cr-sign 1"),
        (["--label", "AIII", "--reflection", "--pr-sign", "1", "--tr-sign", "-1"],
         "error: class AIII has no T, so it takes no TR sign"),
        (["--label", "BDI", "--reflection", "--pr-sign", "1"],
         "error: class BDI has T, so it needs a TR sign of +1 or -1, not None"),
        (["--label", "BDI", "--reflection", "--tr-sign", "1"],
         "error: PR sign None is not +1 or -1"),
        (["--label", "BDI", "--pr-sign", "-1", "--tr-sign", "1"],
         "usage error: --pr-sign and --tr-sign go with --reflection"),
        (["--label", "A", "--rotation", "3", "--reflection", "--pr-sign", "1"],
         "usage error: argument --reflection: not allowed with argument --rotation"),
    ], ids=["cr_sign_bdi", "cr_sign_aiii", "tr_sign_without_T", "tr_sign_missing",
            "pr_sign_missing", "signs_without_reflection", "rotation_and_reflection"])
    def test_kgroup_contradictory_signs_are_one_line(self, capsys, flags, line):
        """Before, an explicit PR sign silently won over CR * TR (BDI printed
        Z^2 where CR * TR = +1 gives Z2), and AIII took a TR sign it has no T
        for; a sign is now given once and only where the class has it."""
        code, out, err = run(["kgroup", "--d", "1", *flags], capsys)
        assert (code, out, err) == (2 if line.startswith("usage") else 1, "", line + "\n")

    @pytest.mark.parametrize("argv, doc", [
        (["classify", "--T", "-1"], {"label": "AII"}),
        (["kgroup", "--label", "AII", "--d", "2"],
         {"label": "AII", "d": 2, "group": "Z2", "provenance": "point table (AII, d=2)"}),
    ])
    def test_out_writes_the_json_document(self, tmp_path, capsys, argv, doc):
        """--out writes the JSON document without --json, as every other
        subcommand's --out does."""
        out = tmp_path / "out.json"
        assert run([*argv, "--out", str(out)], capsys) == (0, "", "")
        got = json.loads(out.read_text())
        assert got.pop("generated_at") and got == doc

    def test_bad_sign(self, capsys):
        code, _, err = run(["classify", "--T", "2"], capsys)
        assert code == 2


class TestBuildIndex:
    def test_build_writes_model_file(self, tmp_path, capsys):
        out = tmp_path / "qwz.json"
        code, _, _ = run(["build", "--model", "qwz", "--size", "8", "--m", "1.0",
                          "--out", str(out)], capsys)
        assert code == 0
        H, spec, meta = load_model(str(out))
        assert H.module.dim == 8 * 8 * 2
        assert meta["name"] == "qwz"
        assert meta["params"] == {"m": 1.0, "cutoff": 1, "decay": 1.0}
        assert (meta["size"], meta["disorder"], meta["seed"]) == (8.0, 0.0, 0)

    def test_build_embeds_chiral_spec(self, tmp_path, capsys):
        out = tmp_path / "ssh.json"
        code, _, _ = run(["build", "--model", "ssh", "--t1", "1", "--t2", "0.5",
                          "--n", "60", "--out", str(out)], capsys)
        assert code == 0
        H, spec, _ = load_model(str(out))
        assert spec.has_P
        import roelab as rl
        assert rl.verify_symmetry(H, spec).violations["P"] == 0.0

    def test_unknown_model_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["build", "--model", "nope", "--out",
                          str(tmp_path / "x.json")], capsys)
        assert code == 2

    def test_index_roundtrip(self, tmp_path, capsys):
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "0.5", "--t2", "1.0", "--n", "120",
             "--out", str(model)], capsys)
        rep = tmp_path / "rep.json"
        csvp = tmp_path / "rep.csv"
        code, _, _ = run(["index", "--model-file", str(model), "--windows", "30,40,50",
                          "--out", str(rep), "--csv", str(csvp)], capsys)
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["snapped"] == 1 and doc["group"] == "Z"
        assert csvp.read_text().splitlines()[0].startswith("model,")

    def test_index_failure_exits_1(self, tmp_path, capsys):
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "1.0", "--t2", "1.0", "--n", "120",
             "--out", str(model)], capsys)
        code, _, err = run(["index", "--model-file", str(model), "--windows", "30,40"],
                           capsys)
        assert code == 1 and "gap" in err

    def test_deterministic_modulo_timestamp(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        run(["build", "--model", "ssh", "--n", "60", "--out", str(model)], capsys)
        docs = []
        for name in ("a.json", "b.json"):
            rep = tmp_path / name
            run(["index", "--model-file", str(model), "--windows", "10,20",
                 "--out", str(rep)], capsys)
            doc = json.loads(rep.read_text())
            doc.pop("generated_at")
            docs.append(doc)
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("model, build, cut, windows, formula", [
        ("kane_mele", ["--lso", "0.06", "--lv", "0.1", "--size", "10"],
         ["--normal", "1,0", "--offset", "4.6", "--edge-windows", "2,3,4"],
         "1.8,2.4,3", "kane_mele_spin_chern"),
        ("kitaev", ["--mu", "1", "--n", "120"], ["--normal", "1", "--offset", "59.6"],
         "30,40,50", "winding_mod2"),
    ], ids=["kane_mele", "kitaev"])
    def test_index_follows_the_route(self, tmp_path, capsys, model, build, cut,
                                     windows, formula):
        """index reports verify-bec's bulk side: the class-AII spin-resolved
        Z2 and the class-D winding mod 2."""
        path = tmp_path / "m.json"
        run(["build", "--model", model, *build, "--out", str(path)], capsys)
        index, bec = tmp_path / "index.json", tmp_path / "bec.json"
        code, _, _ = run(["index", "--model-file", str(path), "--windows", windows,
                          "--out", str(index)], capsys)
        assert code == 0
        run(["verify-bec", "--model-file", str(path), *cut, "--windows", windows,
             "--out", str(bec)], capsys)
        got, want = json.loads(index.read_text()), json.loads(bec.read_text())["bulk"]
        assert got["raw"] == want["raw"]
        assert got["snapped"] == want["snapped"] == "Z2:1"
        assert got["group"] == want["group"] == "Z2"
        assert got["formula"] == want["formula"] == formula

    def test_index_formula_other_than_trace_exits_2(self, tmp_path, capsys):
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--n", "60", "--out", str(model)], capsys)
        code, _, _ = run(["index", "--model-file", str(model), "--formula", "chern_odd"],
                         capsys)
        assert code == 2

    @pytest.mark.parametrize("windows, named", [("8,10,12", "8.0"),
                                                ("5.5,5.8,6", "5.5")])
    def test_oversize_windows_exit_1(self, tmp_path, capsys, windows, named):
        """Bulk windows whose box plus the propagation leaves the 12x12 sample
        are refused, not snapped (the full box traces a commutator to 0)."""
        model = tmp_path / "qwz.json"
        run(["build", "--model", "qwz", "--size", "12", "--m", "1", "--out", str(model)],
            capsys)
        code, out, err = run(["index", "--model-file", str(model), "--windows", windows],
                             capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: window radius {named} ")
        assert len(err.strip().splitlines()) == 1 and "exceeds the sample" in err
        assert "Traceback" not in err
        code, out, _ = run(["index", "--model-file", str(model), "--windows", "2,3,4"],
                           capsys)
        assert code == 0 and json.loads(out)["snapped"] == -1

    def test_default_windows_fit_the_sample(self, tmp_path, capsys):
        """Without windows, index, its trace and a sweep derive them from the
        sample, as verify-bec does, so any sample size has a default."""
        model = tmp_path / "qwz.json"
        run(["build", "--model", "qwz", "--size", "12", "--m", "1", "--out", str(model)],
            capsys)
        code, out, _ = run(["index", "--model-file", str(model)], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["snapped"] == -1 and doc["windows"] == [2.4, 3.2, 4.0]
        code, out, _ = run(["index", "--model-file", str(model), "--formula", "trace"],
                           capsys)
        assert code == 0 and json.loads(out)["windows"] == [3.0, 4.0, 5.0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "qwz", "params": {"m": 1}, "size": 12,
                                   "seeds": [0]}))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)], capsys)[0] == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["snapped"] == "-1"


class TestEdgeAndBEC:
    def test_edge_index_ssh(self, tmp_path, capsys):
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "0.5", "--t2", "1.0", "--n", "160",
             "--out", str(model)], capsys)
        rep = tmp_path / "edge.json"
        code, _, _ = run(["edge-index", "--model-file", str(model),
                          "--normal", "1", "--offset", "79.6",
                          "--out", str(rep)], capsys)
        assert code == 0
        assert json.loads(rep.read_text())["snapped"] == 1

    def test_verify_bec_pass_and_fail_exit(self, tmp_path, capsys):
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "0.5", "--t2", "1.0", "--n", "160",
             "--out", str(model)], capsys)
        rep = tmp_path / "bec.json"
        code, out, _ = run(["verify-bec", "--model-file", str(model),
                            "--normal", "1", "--offset", "79.6",
                            "--windows", "30,45,60", "--out", str(rep)], capsys)
        assert code == 0 and "PASS" in out
        doc = json.loads(rep.read_text())
        assert doc["pass"] and doc["bulk"]["snapped"] == doc["edge"]["snapped"] == 1
        assert doc["reasons"] == []

    def test_failed_sweep_entry_fails_report_and_exit(self, tmp_path, capsys,
                                                      monkeypatch):
        """One failing sweep entry fails the library verdict and the CLI exit."""
        route = bulkedge.ROUTES["AIII", 1]
        points = []

        def edge(work, H_hat, cfg):
            rep, plateau = route.edge(work, H_hat, cfg)
            points.append(rep)
            # the clean point keeps its edge; every sweep point is off by one
            return (rep if len(points) == 1 else replace(rep, raw=rep.raw + 1.0)), plateau

        monkeypatch.setitem(bulkedge.ROUTES, ("AIII", 1), replace(route, edge=edge))
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "0.5", "--t2", "1.0", "--n", "160",
             "--out", str(model)], capsys)
        H, spec, _ = load_model(str(model))
        part = rl.partition_halfspace(H.module.pointset, [1.0], 79.6)
        rep = rl.verify_bec(rl.make_bulk(H.module, H, spec), part,
                            {"windows": (30, 45, 60), "truncation_radii": (1.5,)})
        assert rep.bulk.snapped == rep.edge.snapped == 1
        assert not rep.sweeps[0]["pass"] and not rep.passed
        assert rep.reasons == ("truncation radius 1.5: bulk 1 != edge 2",)
        points.clear()
        out_file = tmp_path / "bec.json"
        code, out, _ = run(["verify-bec", "--model-file", str(model),
                            "--normal", "1", "--offset", "79.6", "--windows", "30,45,60",
                            "--truncation-radii", "1.5", "--out", str(out_file)], capsys)
        assert code == 1 and "FAIL (truncation radius 1.5: bulk 1 != edge 2)" in out
        assert json.loads(out_file.read_text())["pass"] is False

    def test_edge_index_follows_the_route(self, tmp_path, capsys):
        """On a class-AII file edge-index reports verify-bec's spin-resolved edge."""
        model = tmp_path / "km.json"
        run(["build", "--model", "kane_mele", "--lso", "0.06", "--lv", "0.1",
             "--size", "10", "--out", str(model)], capsys)
        cut = ["--normal", "1,0", "--offset", "4.6"]
        edge, bec = tmp_path / "edge.json", tmp_path / "bec.json"
        code, _, _ = run(["edge-index", "--model-file", str(model), *cut,
                          "--windows", "2,3,4", "--out", str(edge)], capsys)
        assert code == 0
        run(["verify-bec", "--model-file", str(model), *cut, "--edge-windows", "2,3,4",
             "--out", str(bec)], capsys)
        got, want = json.loads(edge.read_text()), json.loads(bec.read_text())["edge"]
        assert got["group"] == want["group"] == "Z2"
        assert got["snapped"] == want["snapped"] == "Z2:1"
        assert got["raw"] == want["raw"]
        assert got["formula"] == want["formula"] == "spin_edge_conductance_mod2"


    def test_verify_bec_fail_names_its_reason(self, tmp_path, capsys):
        """Both sides snap to Z2:1; the plateau is what fails, and it is named."""
        model = tmp_path / "km.json"
        run(["build", "--model", "kane_mele", "--lso", "0.06", "--lv", "0.1",
             "--size", "10", "--out", str(model)], capsys)
        bec = tmp_path / "bec.json"
        code, out, _ = run(["verify-bec", "--model-file", str(model), "--normal", "1,0",
                            "--offset", "4.6", "--edge-windows", "2,3,4",
                            "--out", str(bec)], capsys)
        doc = json.loads(bec.read_text())
        assert code == 1 and doc["pass"] is False
        assert doc["bulk"]["snapped"] == doc["edge"]["snapped"] == "Z2:1"
        assert doc["plateau_deviation"] > 0.05
        reason = (f"plateau deviation {doc['plateau_deviation']:.4g} "
                  "above plateau_tol 0.05")
        assert doc["reasons"] == [reason]
        assert out.strip() == f"bulk 1 vs edge 1: FAIL ({reason})"


class TestWindowRule:
    """One window rule on both sides: sorted, no repeats, inside what it
    averages over; derived windows pass it."""

    @pytest.fixture(scope="class")
    def qwz12(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("qwz12") / "qwz.json"
        assert main(["build", "--model", "qwz", "--size", "12", "--m", "1",
                     "--out", str(path)]) == 0
        return str(path)

    def _bec(self, capsys, model, *flags):
        code, out, err = run(["verify-bec", "--model-file", model, "--normal", "1,0",
                              "--offset", "5.6", *flags], capsys)
        return code, out, err

    def test_unsorted_edge_windows_are_sorted(self, tmp_path, capsys, qwz12):
        docs = []
        for windows in ("4,3,2", "2,3,4"):
            out = tmp_path / f"{windows}.json"
            self._bec(capsys, qwz12, "--edge-windows", windows, "--out", str(out))
            docs.append(json.loads(out.read_text())["edge"])
        assert docs[0]["windows"] == docs[1]["windows"] == [2.0, 3.0, 4.0]
        assert docs[0]["raw"] == docs[1]["raw"]

    @pytest.mark.parametrize("side", ["index", "edge"])
    def test_repeated_windows_exit_1(self, capsys, qwz12, side):
        if side == "index":
            code, out, err = run(["index", "--model-file", qwz12, "--windows", "2,2"],
                                 capsys)
            named = "2.0"
        else:
            code, out, err = self._bec(capsys, qwz12, "--edge-windows", "3,3")
            named = "3.0"
        assert code == 1 and out == ""
        assert err == f"error: window radius {named} is repeated\n"

    def test_edge_windows_longer_than_the_edge_exit_1(self, capsys, qwz12):
        code, out, err = run(["edge-index", "--model-file", qwz12, "--normal", "1,0",
                              "--offset", "5.6", "--windows", "6,8,10"], capsys)
        assert code == 1 and out == ""
        assert err == "error: window radius 6.0 exceeds the interface half-length 5.5\n"

    def test_edge_index_derives_verify_becs_windows(self, tmp_path, capsys):
        model = tmp_path / "qwz.json"
        run(["build", "--model", "qwz", "--m", "1", "--out", str(model)], capsys)
        cut = ["--model-file", str(model), "--normal", "1,0", "--offset", "9.6"]
        edge, bec = tmp_path / "edge.json", tmp_path / "bec.json"
        assert run(["edge-index", *cut, "--out", str(edge)], capsys)[0] == 0
        run(["verify-bec", *cut, "--out", str(bec)], capsys)    # its plateau fails
        got, want = json.loads(edge.read_text()), json.loads(bec.read_text())["edge"]
        assert got["windows"] == [5.4, 7.2, 9.0]
        got.pop("generated_at"), got.pop("model")
        assert got == want

    @pytest.mark.parametrize("model, build, flags", [
        ("kane_mele", ["--lso", "0.06", "--lv", "0.1", "--size", "12"],
         ["--formula", "trace"]),
        ("qwz", ["--m", "1", "--cutoff", "3", "--size", "16"], []),
    ], ids=["kane_mele_trace", "qwz_cutoff3_index"])
    def test_derived_windows_pass_the_check(self, tmp_path, capsys, model, build, flags):
        path = tmp_path / "m.json"
        run(["build", "--model", model, *build, "--out", str(path)], capsys)
        code, out, err = run(["index", "--model-file", str(path), *flags], capsys)
        assert code == 0, err
        windows = json.loads(out)["windows"]
        H, _, _ = load_model(str(path))
        size = float(build[-1])
        assert windows == sorted(set(windows)) and len(windows) == 3
        assert windows[-1] + H.declared_propagation <= size / 2

    @pytest.mark.parametrize("argv", [
        ["index", "--windows", "a,b"],
        ["edge-index", "--normal", "a", "--offset", "5.6"],
        ["verify-bec", "--normal", "1,0", "--offset", "5.6", "--seeds", "x"],
    ], ids=["windows", "normal", "seeds"])
    def test_malformed_list_is_a_usage_error(self, capsys, qwz12, argv):
        code, out, err = run([argv[0], "--model-file", qwz12, *argv[1:]], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and len(err.strip().splitlines()) == 1


def _break_model(kind, path):
    """Damage a model file in one way; returns the path to load."""
    doc = json.loads(path.read_text())
    blocks = doc["operator"]["blocks"]
    if kind == "not_json":
        path.write_text("{\"format\": \"roelab-model\",")
        return path
    if kind == "missing_file":
        return path.with_name("absent.json")
    if kind == "no_operator":
        del doc["operator"]
    elif kind == "no_module":
        del doc["operator"]["module"]
    elif kind == "negative_index":
        blocks[0][0] = -1
    elif kind == "index_past_end":
        blocks[0][1] = len(doc["operator"]["module"]["pointset"]["points"])
    elif kind in ("short_label", "nan_label"):
        doc["operator"]["module"]["labels"] = {"spin_z": [1]} if kind == "short_label" \
            else {"x": [float("nan"), 1]}
    elif kind == "one_by_one_block":
        blocks[0][2] = [[[1.0, 0.0]]]
    elif kind == "not_hermitian":
        next(b for b in blocks if b[0] != b[1])[2][0][0][0] += 1.0
    elif kind in ("nan_entry", "inf_entry"):
        blocks[0][2][0][0][0] = float(kind[:3])
    elif kind in ("has_T_not_bool", "has_C_not_bool", "has_P_not_bool"):
        doc["symmetry"][kind[:5]] = "no"
    elif kind == "hermitian_not_bool":
        doc["operator"]["hermitian"] = "false"
    elif kind == "fractional_orbitals":
        doc["operator"]["module"]["orbitals_per_site"] = 2.5
    elif kind in ("null_symmetry", "list_model", "list_labels"):
        parent = doc["operator"]["module"] if kind == "list_labels" else doc
        parent[kind.split("_")[1]] = None if kind == "null_symmetry" else [1]
    elif kind == "unknown_key":
        doc["operater"] = doc["operator"]
    elif kind.startswith("bogus_in_"):
        parent = {"symmetry": doc["symmetry"], "operator": doc["operator"],
                  "module": doc["operator"]["module"],
                  "pointset": doc["operator"]["module"]["pointset"]}[kind[9:]]
        parent["bogus"] = 1
    elif kind in ("dim_bool", "dim_mismatch"):
        doc["operator"]["module"]["pointset"]["dim"] = True if kind == "dim_bool" else 2
    elif kind in ("density_string", "density_negative", "density_nan"):
        doc["operator"]["module"]["pointset"]["density"] = {
            "string": "1", "negative": -1.0, "nan": float("nan")}[kind.split("_")[1]]
    elif kind in ("CR_sign_two", "TR_sign_string", "PR_sign_bool", "T_sq_float"):
        doc["symmetry"][kind.rsplit("_", 1)[0]] = {
            "two": 2, "string": "1", "bool": True, "float": 1.0}[kind.rsplit("_", 1)[1]]
    elif kind in ("nan_propagation", "inf_propagation", "negative_propagation",
                  "propagation_below_reach"):
        doc["operator"]["propagation"] = {"nan": float("nan"), "inf": float("inf"),
                                          "negative": -1.0,
                                          "propagation": 0.5}[kind.split("_")[0]]
    path.write_text(json.dumps(doc))
    return path


class TestMalformedModelFile:
    @pytest.mark.parametrize("kind", ["missing_file", "not_json", "no_operator",
                                      "no_module", "negative_index", "index_past_end",
                                      "short_label", "nan_label", "one_by_one_block",
                                      "not_hermitian", "nan_entry", "inf_entry",
                                      "nan_propagation", "inf_propagation",
                                      "negative_propagation",
                                      "propagation_below_reach", "has_T_not_bool",
                                      "has_C_not_bool", "has_P_not_bool",
                                      "hermitian_not_bool", "fractional_orbitals",
                                      "null_symmetry", "list_model", "list_labels",
                                      "unknown_key", "dim_bool", "dim_mismatch",
                                      "density_string", "density_negative",
                                      "density_nan", "CR_sign_two", "TR_sign_string",
                                      "PR_sign_bool", "T_sq_float", "bogus_in_symmetry",
                                      "bogus_in_operator", "bogus_in_module",
                                      "bogus_in_pointset"])
    def test_named_error_not_traceback(self, tmp_path, capsys, kind):
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--n", "6", "--out", str(model)], capsys)
        code, out, err = run(["spectrum", "--model-file", str(_break_model(kind, model))],
                             capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, line", [
        ("CR_sign_two", "error: CR_sign 2 is not null: reflection signs are arguments of "
         "kgroup_reflection, not symmetry data"),
        ("bogus_in_symmetry", "error: unknown symmetry key 'bogus'; known: has_T, has_C, "
         "has_P, T_sq, C_sq, T_unitary, C_unitary, P_unitary, CR_sign, TR_sign, PR_sign"),
        ("bogus_in_operator", "error: unknown operator key 'bogus'; known: module, "
         "hermitian, propagation, blocks"),
        ("bogus_in_module", "error: unknown module key 'bogus'; known: pointset, "
         "orbitals_per_site, grading, labels"),
        ("bogus_in_pointset", "error: unknown point-set key 'bogus'; known: dim, window, "
         "points, density, kind"),
    ])
    def test_nested_keys_are_declared(self, tmp_path, capsys, kind, line):
        """Every decoder refuses a key it does not declare, so a misspelt
        nested key is not silently ignored; a reflection sign is refused by
        name."""
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--n", "6", "--out", str(model)], capsys)
        assert run(["spectrum", "--model-file", str(_break_model(kind, model))], capsys) == \
            (1, "", line + "\n")

    def test_file_with_null_reflection_signs_reads_the_same(self, tmp_path, capsys):
        """A model file written while specs carried reflection signs holds
        null under CR_sign, TR_sign and PR_sign; it loads, and verify-bec
        reports the same as on the file without them.  New files carry no
        sign keys."""
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "0.5", "--t2", "1.0", "--n", "40",
             "--out", str(model)], capsys)
        doc = json.loads(model.read_text())
        assert not {"CR_sign", "TR_sign", "PR_sign"} & set(doc["symmetry"])
        old = tmp_path / "old.json"
        doc["symmetry"].update(CR_sign=None, TR_sign=None, PR_sign=None)
        old.write_text(json.dumps(doc))
        reports = []
        for path in (model, old):
            out = tmp_path / f"{path.stem}.out.json"
            assert run(["verify-bec", "--model-file", str(path), "--normal", "1",
                        "--offset", "19.6", "--seeds", "1", "--disorder-strength", "0.1",
                        "--truncation-radii", "1.5",
                        "--out", str(out)], capsys)[0] == 0
            reports.append({k: v for k, v in json.loads(out.read_text()).items()
                            if k != "generated_at"})
        assert reports[0] == reports[1]

    def test_file_with_a_grading_reads_the_same(self, tmp_path, capsys):
        """A model file written while modules carried a grading holds a +-1
        vector under `grading`; it loads, and verify-bec writes the same
        report, byte for byte apart from generated_at, as on the file
        without it."""
        model = tmp_path / "km.json"
        run(["build", "--model", "kane_mele", "--lso", "0.06", "--lv", "0.1", "--size", "14",
             "--out", str(model)], capsys)
        doc = json.loads(model.read_text())
        old = tmp_path / "old.json"
        doc["operator"]["module"]["grading"] = [1, -1, 1, -1]
        old.write_text(json.dumps(doc))
        reports = []
        for path in (model, old):
            out = tmp_path / f"{path.stem}.out.json"
            assert run(["verify-bec", "--model-file", str(path), "--normal", "1,0",
                        "--offset", "6.6", "--edge-windows", "3,4,5", "--out", str(out)],
                       capsys)[0] == 0
            reports.append([line for line in out.read_text().splitlines(keepends=True)
                            if not line.startswith('  "generated_at": ')])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("name", sorted(rl.MODELS))
    def test_saved_modules_carry_no_grading(self, tmp_path, name):
        _, H, spec = rl.build_model(name, {}, rl.default_pointset(name, 3.0))
        save_model(str(tmp_path / "m.json"), H, spec)
        module = json.loads((tmp_path / "m.json").read_text())["operator"]["module"]
        assert "grading" not in module and set(module) <= {"pointset", "orbitals_per_site",
                                                           "labels"}

    def test_model_block_keys_are_optional(self, tmp_path, capsys):
        """A file whose `model` block holds only a name and parameters, or
        that has no `model` block at all, loads."""
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--n", "6", "--out", str(model)], capsys)
        doc = json.loads(model.read_text())
        for block in ({"name": "ssh", "params": {"t1": 0.5}}, None):
            if block is None:
                del doc["model"]
            else:
                doc["model"] = block
            model.write_text(json.dumps(doc))
            assert load_model(str(model))[2] == (block or {})


class TestSweep:
    def test_seed_sweep_identical_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "ssh", "params": {"t1": 0.5, "t2": 1.0}, "size": 100,
            "disorder": 0.2, "windows": [25, 35, 45],
            "seeds": list(range(5))}))
        out = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6
        snapped = {line.split(",")[3] for line in lines[1:]}
        assert snapped == {"1"}

    def test_empty_sweep_header_only(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "ssh", "seeds": [],
                                   "windows": [10, 20], "size": 40}))
        out = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("model,")

    def test_pairing_formula_is_a_config_error(self, tmp_path, capsys):
        """The route picks the pairing; a sweep config may only ask for the trace."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "ssh", "size": 60, "formula": "chern_odd",
                                   "windows": [15, 25], "seeds": [0]}))
        code, _, err = run(["sweep", "--config", str(cfg), "--out",
                            str(tmp_path / "o.csv")], capsys)
        assert code == 2 and "config error" in err

    def test_trace_rows_carry_the_windowed_trace(self, tmp_path, capsys):
        """A "trace" row's raw is `index --formula trace`'s extrapolated real
        part on the same model; a trace is not snapped."""
        model = tmp_path / "qwz.json"
        run(["build", "--model", "qwz", "--size", "8", "--disorder", "0.5",
             "--out", str(model)], capsys)
        index = tmp_path / "index.json"
        assert run(["index", "--model-file", str(model), "--formula", "trace",
                    "--windows", "1,2", "--out", str(index)], capsys)[0] == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "qwz", "size": 8, "disorder": 0.5,
                                   "windows": [1, 2], "seeds": [0], "formula": "trace"}))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)], capsys)[0] == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        want = json.loads(index.read_text())["extrapolated"][0]
        assert want != 0.0 and float(row["raw"]) == want
        assert row["snapped"] == ""

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"params": {}}))
        code, _, err = run(["sweep", "--config", str(cfg), "--out",
                            str(tmp_path / "o.csv")], capsys)
        assert code == 2 and "config error" in err

    def test_jobs_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ROELAB_JOBS", "2")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "ssh", "params": {"t1": 0.5, "t2": 1.0}, "size": 60,
            "windows": [15, 25], "seeds": [0, 1]}))
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)], capsys)[0] == 0
        assert len(out.read_text().strip().splitlines()) == 3


    @pytest.mark.parametrize("env, flags, line", [
        ("x", [], "usage error: ROELAB_JOBS 'x' is not a positive integer"),
        ("0", [], "usage error: ROELAB_JOBS '0' is not a positive integer"),
        ("2", ["--jobs", "0"], "usage error: --jobs '0' is not a positive integer"),
        (None, ["--jobs", "-1"], "usage error: --jobs '-1' is not a positive integer"),
        (None, ["--jobs", "1.5"], "usage error: --jobs '1.5' is not a positive integer"),
    ], ids=["env_x", "env_0", "flag_0", "flag_negative", "flag_fraction"])
    def test_jobs_not_a_positive_integer_exit_2(self, tmp_path, capsys, monkeypatch,
                                                env, flags, line):
        """Before, ROELAB_JOBS=x ended in a ValueError traceback and --jobs 0
        fell back to the environment."""
        if env is None:
            monkeypatch.delenv("ROELAB_JOBS", raising=False)
        else:
            monkeypatch.setenv("ROELAB_JOBS", env)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "ssh", "size": 40, "windows": [5, 10],
                                   "seeds": [0]}))
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(out), *flags], capsys) == \
            (2, "", line + "\n")
        assert not out.exists()


class TestSpectrum:
    def test_spectrum_and_plot_data(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        run(["build", "--model", "kitaev", "--mu", "1.0", "--n", "40",
             "--out", str(model)], capsys)
        rep = tmp_path / "spec.json"
        plot = tmp_path / "spec.csv"
        code, _, _ = run(["spectrum", "--model-file", str(model), "--out", str(rep),
                          "--emit-plot-data", str(plot)], capsys)
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["dim"] == 80 and len(doc["eigenvalues"]) == 80
        assert plot.read_text().splitlines()[0] == "index,energy"
        # particle-hole symmetric spectrum
        w = np.array(doc["eigenvalues"])
        assert np.allclose(np.sort(w), -np.sort(-w)[::-1], atol=1e-10)


def _one_line(err, prefix):
    return err.startswith(prefix) and len(err.strip().splitlines()) == 1


class TestNamedErrors:
    """Bad input ends in one named error line, never a traceback."""

    def test_argparse_errors_are_one_usage_line(self, tmp_path, capsys):
        model = str(tmp_path / "absent.json")
        for argv in (["index", "--model-file", model, "--bogus", "1"],
                     ["index", "--model-file", model, "--windows", "-1,2"],
                     ["index"], ["nope"], []):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == "" and _one_line(err, "usage error: "), argv

    def test_help_exits_0(self, capsys):
        code, out, _ = run(["-h"], capsys)
        assert code == 0 and out.startswith("usage: roelab")
        assert run(["index", "-h"], capsys)[0] == 0
        code, out, _ = run(["build", "-h"], capsys)
        text = " ".join(out.split())
        assert code == 0 and "ssh {'t1': 1.0, 't2': 0.5}" in text
        assert "qwz {'m': 1.0, 'cutoff': 1, 'decay': 1.0}" in text

    def test_kgroup_d_outside_0_to_3_exits_1(self, capsys):
        for flags in (["--rotation", "3"], ["--reflection", "--pr-sign", "1"], []):
            code, out, err = run(["kgroup", "--label", "AIII", "--d", "9", *flags], capsys)
            assert code == 1 and out == "" and _one_line(err, "error: d must be 0..3")

    def test_normal_of_the_wrong_length_exits_1(self, tmp_path, capsys):
        model = tmp_path / "qwz.json"
        run(["build", "--model", "qwz", "--size", "8", "--out", str(model)], capsys)
        for normal in ("1", "1,0,0"):
            code, out, err = run(["edge-index", "--model-file", str(model), "--normal",
                                  normal, "--offset", "3.6"], capsys)
            assert code == 1 and out == "" and _one_line(err, "error: cut normal has shape")

    def test_non_hermitian_chiral_unitary_exits_1(self, tmp_path, capsys):
        """P = i sigma_z is unitary and anticommutes with an ssh chain, but it
        has no chirality split into +-1 eigenspaces."""
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "0.5", "--t2", "1.0", "--n", "60",
             "--out", str(model)], capsys)
        doc = json.loads(model.read_text())
        doc["symmetry"]["P_unitary"] = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]
        model.write_text(json.dumps(doc))
        for argv in (["index", "--model-file", str(model)],
                     ["edge-index", "--model-file", str(model), "--normal", "1",
                      "--offset", "29.6"],
                     ["verify-bec", "--model-file", str(model), "--normal", "1",
                      "--offset", "29.6"]):
            code, out, err = run(argv, capsys)
            assert code == 1 and out == "", argv
            assert _one_line(err, "error: chiral unitary P is not Hermitian"), err

    @pytest.mark.parametrize("windows", [["a"], "3", [None], [True, 2]])
    def test_sweep_windows_not_a_list_of_numbers_exit_2(self, tmp_path, capsys, windows):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "qwz", "size": 8, "windows": windows,
                                   "seeds": [0]}))
        code, _, err = run(["sweep", "--config", str(cfg), "--out",
                            str(tmp_path / "o.csv")], capsys)
        assert code == 2 and _one_line(err, "config error: windows ")

    @pytest.mark.parametrize("bad, key", [
        ({"seeds": ["x"]}, "seeds"), ({"seeds": 3}, "seeds"), ({"seeds": [True]}, "seeds"),
        ({"size": "big"}, "size"), ({"size": True}, "size"),
        ({"vary_param": "t1", "values": 0.5}, "values"), ({"params": [1, 2]}, "params"),
        ({"fermi": "0"}, "fermi"), ({"disorder": None}, "disorder"),
        ({"vary_param": 1, "values": [1.0]}, "vary_param"), ({"sizee": 40}, "sizee"),
        ({"params": {"tt1": 0.2}}, "model"), ({"params": {"t1": "x"}}, "model"),
        ({"vary_param": "tt2", "values": [0.5]}, "model"),
        ({"vary_param": "size", "values": [20]}, "model"),
        ({"vary_param": "t2", "values": ["a"]}, "model"), ({"values": [1.0]}, "vary_param"),
        ({"fermi": float("nan")}, "fermi"), ({"disorder": float("nan")}, "disorder"),
        ({"size": float("inf")}, "size"), ({"windows": [5, float("nan")]}, "windows")])
    def test_sweep_key_of_the_wrong_type_exit_2(self, tmp_path, capsys, bad, key):
        """Every key the sweep reads is checked before any point runs: one
        `config error:` line, not a traceback from the worker thread.  A
        number must be finite (the JSON reader takes NaN and Infinity)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "ssh", "size": 40, "windows": [5, 10],
                                   "seeds": [0], **bad}))
        out = tmp_path / "o.csv"
        code, _, err = run(["sweep", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2 and _one_line(err, f"config error: {key} "), err
        assert not out.exists()

    @pytest.mark.parametrize("flags, code, line", [
        (["--model", "ssh", "--tt1", "0.2"], 1,
         "error: model ssh has no parameter 'tt1'; declared: t1, t2"),
        (["--model", "ssh", "--t1", "x"], 2,
         "usage error: argument --t1: invalid float value: 'x'"),
        (["--model", "qwz", "--cutoff", "1.5"], 1,
         "error: model qwz parameter cutoff = 1.5 is not an integer"),
        (["--model", "ssh", "--seed", "1.7"], 1,
         "error: build parameter seed = 1.7 is not an integer"),
        (["--model", "ssh", "--size", "0"], 1, "error: window must have positive extent"),
    ], ids=["undeclared", "not_a_number", "cutoff", "seed", "size"])
    def test_build_refuses_what_it_would_ignore(self, tmp_path, capsys, flags, code, line):
        """A parameter the model does not declare, or a value it would cast
        or replace, is one named line; no file is written."""
        out = tmp_path / "m.json"
        assert run(["build", *flags, "--out", str(out)], capsys) == (code, "", line + "\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, line", [
        (["index", "--fermi", "nan"], "error: Fermi level nan is not a finite number"),
        (["edge-index", "--normal", "1", "--offset", "19.6", "--fermi=-inf"],
         "error: Fermi level -inf is not a finite number"),
        (["verify-bec", "--normal", "1", "--offset", "19.6", "--disorder-strength", "nan",
          "--seeds", "1"], "error: disorder strength nan is not a finite number"),
    ], ids=["index_fermi", "edge_fermi", "bec_disorder"])
    def test_non_finite_fermi_or_disorder_exits_1(self, tmp_path, capsys, argv, line):
        """Before, a NaN Fermi level ended in a ValueError traceback from
        `certify_gap`, and a NaN disorder strength read as a symmetry
        violation."""
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "0.5", "--t2", "1.0", "--n", "40",
             "--out", str(model)], capsys)
        assert run([argv[0], "--model-file", str(model), *argv[1:]], capsys) == \
            (1, "", line + "\n")

    @pytest.mark.parametrize("argv, line", [
        (["verify-bec", "--normal", "1", "--offset", "19.6", "--truncation-radii", "nan"],
         "error: truncation radius nan is not positive and finite"),
        (["edge-index", "--normal", "1", "--offset", "nan"],
         "error: cut offset nan is not a finite number"),
        (["edge-index", "--normal", "nan", "--offset", "19.6"],
         "error: cut normal [nan] is not finite"),
        (["edge-index", "--normal", "1", "--offset", "19.6", "--thickness", "inf"],
         "error: interface thickness inf is not a finite number"),
    ], ids=["truncation_radius", "offset", "normal", "thickness"])
    def test_non_finite_cut_or_radius_exits_1(self, tmp_path, capsys, argv, line):
        """Before, a NaN truncation radius zeroed the operator and read as no
        certified gap, and a NaN cut read as degenerate edge geometry."""
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "0.5", "--t2", "1.0", "--n", "40",
             "--out", str(model)], capsys)
        assert run([argv[0], "--model-file", str(model), *argv[1:]], capsys) == \
            (1, "", line + "\n")

    @pytest.mark.parametrize("flags, line", [
        (["--truncation-radii", "nan"], "error: truncation radius nan is not positive and finite"),
        (["--truncation-radii", "2,-1"], "error: truncation radius -1.0 is not positive and "
         "finite"),
        (["--disorder-strength", "inf"], "error: disorder strength inf is not a finite number"),
    ], ids=["nan_radius", "negative_radius", "inf_strength"])
    def test_sweep_settings_are_checked_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                         flags, line):
        """Before, the clean point and both disorder seeds were certified (6
        eigensolves) before `truncate` refused the radius."""
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "0.5", "--t2", "1.0", "--n", "40",
             "--out", str(model)], capsys)
        solves, solve = [], operators._solve
        monkeypatch.setattr(operators, "_solve", lambda *a: solves.append(1) or solve(*a))
        argv = ["verify-bec", "--model-file", str(model), "--normal", "1", "--offset", "19.6",
                "--seeds", "1,2", "--disorder-strength", "0.1"]
        assert run([*argv, *flags], capsys) == (1, "", line + "\n")
        assert solves == []
        assert run(argv, capsys)[0] == 0 and len(solves) == 6

    @pytest.mark.parametrize("flags, line", [
        (["--disorder-strength", "0.3"], "error: disorder strength 0.3 without disorder seeds"),
        (["--seeds", "1,2"], "error: disorder seeds without a disorder strength"),
    ], ids=["strength_alone", "seeds_alone"])
    def test_half_a_disorder_sweep_is_refused(self, tmp_path, capsys, monkeypatch, flags, line):
        """Before, a strength alone ran no sweep and exited 0, and seeds alone
        certified the clean system once per seed as a `disorder` entry."""
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "0.5", "--t2", "1.0", "--n", "40",
             "--out", str(model)], capsys)
        solves, solve = [], operators._solve
        monkeypatch.setattr(operators, "_solve", lambda *a: solves.append(1) or solve(*a))
        assert run(["verify-bec", "--model-file", str(model), "--normal", "1", "--offset",
                    "19.6", *flags], capsys) == (1, "", line + "\n")
        assert solves == []

    @pytest.mark.parametrize("n, level", [(30, "-2.29e-05"), (32, "-1.14e-05")])
    def test_split_end_pair_is_refused(self, tmp_path, capsys, n, level):
        """A 15- or 16-cell half chain splits its end modes above the kernel
        tolerance.  Before, edge-index read that as raw 0.0, snapped 0 with no
        warning, and verify-bec failed with `bulk 1 != edge 0`."""
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "0.5", "--t2", "1.0", "--n", str(n),
             "--out", str(model)], capsys)
        line = (f"error: in-gap edge level E = {level} is not in the kernel (|E| < 1e-06): "
                "the end modes split on this half chain; use a larger sample\n")
        for command in ("edge-index", "verify-bec"):
            assert run([command, "--model-file", str(model), "--normal", "1", "--offset",
                        str(n / 2 - 0.4)], capsys) == (1, "", line), command

    def test_separated_end_modes_still_count(self, tmp_path, capsys):
        model = tmp_path / "ssh.json"
        run(["build", "--model", "ssh", "--t1", "0.5", "--t2", "1.0", "--n", "60",
             "--out", str(model)], capsys)
        code, out, err = run(["verify-bec", "--model-file", str(model), "--normal", "1",
                              "--offset", "29.6"], capsys)
        assert (code, err) == (0, "") and out.endswith("bulk 1 vs edge 1: PASS\n")

    def test_one_site_chain_is_a_named_error(self, tmp_path, capsys):
        """A chain of one site has no bulk states once the boundary is
        filtered: index and verify-bec exit 1 with one `error:` line."""
        model = tmp_path / "one.json"
        assert run(["build", "--model", "ssh", "--size", "1", "--out", str(model)],
                   capsys)[0] == 0
        for argv in (["index"], ["verify-bec", "--normal", "1", "--offset", "0.5"]):
            code, out, err = run([*argv, "--model-file", str(model)], capsys)
            assert code == 1 and out == "", argv
            assert _one_line(err, "error: no bulk states left after boundary filtering"), err
