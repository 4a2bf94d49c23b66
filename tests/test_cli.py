import hashlib
import json
import sys

import numpy as np
import pytest

from lowrank import cli, explore
from lowrank.cli import main, parse_layer_spec
from lowrank.ir import (DATASET_INPUTS, DATASET_LABELS, LayerDesc,
                        ModelDesc, WeightStore)

from conftest import small_conv_net


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def saved_net(tmp_path):
    model, weights = small_conv_net()
    model_path = tmp_path / "model.json"
    weight_path = tmp_path / "weights.lrfw"
    model.save(model_path)
    weights.save(weight_path)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((24, 8, 8, 3)).astype(np.float32)
    from lowrank.similarity import forward_model
    labels = forward_model(model, weights, x).argmax(axis=1)
    data_path = tmp_path / "data.lrfw"
    WeightStore({DATASET_INPUTS: x,
                 DATASET_LABELS: labels.astype(np.float32)}).save(data_path)
    return model_path, weight_path, data_path


def one_conv_search_args(tmp_path, weight, rng, fails_on):
    """Search arguments for a one-conv model (3x3, 3 -> 8 channels, relu)
    with ``weight``, eight random inputs and an external evaluator that
    scores 0 for a model whose JSON contains ``fails_on`` and 1 for any
    other."""
    layers = [LayerDesc(name="c1", kind="conv2d", kernel=(3, 3),
                        in_channels=3, out_channels=8, post_ops=("a1",)),
              LayerDesc(name="a1", kind="activation", fn="relu")]
    model = ModelDesc(layers=layers, edges=[("c1", "a1")], input="c1",
                      output="a1")
    paths = {key: tmp_path / key for key in
             ("model.json", "weights.lrfw", "data.lrfw", "eval.py")}
    model.save(paths["model.json"])
    WeightStore({"c1": weight.astype(np.float32)}).save(paths["weights.lrfw"])
    WeightStore({
        DATASET_INPUTS: rng.standard_normal((8, 6, 6, 3)).astype(np.float32),
        DATASET_LABELS: (np.arange(8) % 4).astype(np.float32)},
    ).save(paths["data.lrfw"])
    paths["eval.py"].write_text(
        "import sys\n"
        f"print(0.0 if {fails_on!r} in open(sys.argv[1]).read() else 1.0)\n")
    return ("--model", str(paths["model.json"]),
            "--weights", str(paths["weights.lrfw"]),
            "--dataset", str(paths["data.lrfw"]), "--samples", "4",
            "--target-fraction", "1",
            "--evaluator", sys.executable, str(paths["eval.py"]))


class TestParsing:
    def test_layer_spec_kinds(self):
        assert parse_layer_spec((400, 120)).kind == "fc"
        assert parse_layer_spec((3, 512, 1024)).kind == "conv1d"
        spec = parse_layer_spec((3, 3, 256, 512), (2,), "same")
        assert spec.kind == "conv2d" and spec.stride == (2, 2)
        assert parse_layer_spec((3, 3, 3, 32, 32)).kind == "conv3d"

    def test_usage_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["census"])  # --layer is required
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2
        # flags belong only to the subcommands that read them
        for argv in (["analyze", "--layer", "18,15", "--limit", "5"],
                     ["breakdown", "--model", "m.json", "--seed", "3"],
                     ["census", "--layer", "18,15", "--seed", "1"],
                     ["enumerate", "--layer", "18,15", "--threads", "1"],
                     ["enumerate", "--layer", "18,15", "--limit", "-1"],
                     # decompose takes exactly one of --model and --layer
                     ["decompose", "--method", "svd", "--rank", "3"],
                     ["decompose", "--model", "m.json", "--layer", "18,15",
                      "--method", "svd", "--rank", "3"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, argv

    def test_bad_values_exit_one(self, capsys, tmp_path):
        code, _, errtext = run_cli(capsys, "census", "--layer",
                                   "1,2,3,4,5,6")
        assert code == 1 and "error:" in errtext
        code, _, errtext = run_cli(
            capsys, "decompose", "--layer", "18,15", "--method", "cp",
            "--rank", "0")
        assert code == 1 and "error:" in errtext
        # an fc layer has no window to stride or pad
        for flag in (("--stride", "2"), ("--padding", "valid")):
            code, out, errtext = run_cli(capsys, "analyze", "--layer",
                                         "400,120", *flag)
            assert code == 1 and errtext.startswith("error:"), flag
            assert out == "", flag
        # a malformed model is reported, not raised
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"layers": [{"name": "c", "kind": "conv2d",
                                               "kernel": 3}],
                                   "edges": [], "input": "c", "output": "c"}))
        code, _, errtext = run_cli(capsys, "breakdown", "--model", str(bad))
        assert code == 1 and errtext.startswith("error: layer 'c'")
        # a missing file is reported by the OS message and its path
        missing = str(tmp_path / "no-such-model.json")
        for argv in (("breakdown", "--model", missing),
                     ("decompose", "--model", missing, "--weights", "w.lrfw",
                      "--target", "c2", "--method", "svd", "--rank", "3")):
            code, _, errtext = run_cli(capsys, *argv)
            assert code == 1, argv
            assert errtext == f"error: No such file or directory: {missing}\n"

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_census_rejects_bad_tolerance(self, capsys, tol):
        code, out, errtext = run_cli(capsys, "census", "--layer", "400,120",
                                     "--tol", tol)
        assert code == 1 and out == ""
        assert errtext.startswith("error: tol must be non-negative")

    @pytest.mark.parametrize("ratio", ["inf", "-inf", "nan"])
    def test_census_rejects_non_finite_ratios(self, capsys, ratio):
        code, out, errtext = run_cli(capsys, "census", "--layer", "400,120",
                                     f"--ratios=25,{ratio}")
        assert code == 1 and out == ""
        assert errtext.startswith("error: percent must be a number and "
                                  "finite")

    def test_census_far_ratio_gives_empty_buckets(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--layer", "400,120",
                               "--ratios=1e300,-1e300,60.5")
        assert code == 0
        for entry in json.loads(out).values():
            assert [(b["percent"], b["count"]) for b in entry["buckets"]][:2] \
                == [(1e300, 0), (-1e300, 0)]
            assert entry["buckets"][2]["percent"] == 60.5

    @pytest.mark.parametrize("argv,named", [
        (("analyze", "--layer", "3,3,8,16", "--stride", "0"), "stride"),
        (("census", "--layer", "18,-3"), "out_channels"),
    ], ids=["zero stride", "negative outputs"])
    def test_extents_below_one_exit_one(self, capsys, argv, named):
        code, out, errtext = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert errtext.startswith(f"error: layer: {named} ")
        assert errtext.endswith(" below 1\n")

    @pytest.mark.parametrize("extra", [
        ("--plan-index", "0"),                   # svd has no plans
        ("--out-model", "m.json", "--out-weights", "w.lrfw"),  # no --model
        ("--out-model", "m.json"),               # only one of the pair
        ("--out-weights", "w.lrfw"),
        ("--weights", "w.lrfw"),                 # no --model to read it
        ("--target", "f1"),
    ])
    def test_decompose_rejects_flags_it_would_ignore(self, capsys, tmp_path,
                                                     monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        code, out, errtext = run_cli(
            capsys, "decompose", "--layer", "18,15", "--method", "svd",
            "--rank", "3", *extra)
        assert code == 1 and errtext.startswith("error:"), extra
        assert out == "" and not list(tmp_path.iterdir())

    def test_decompose_model_rejects_missing_and_ignored_flags(
            self, capsys, saved_net):
        model_path, weight_path, _ = saved_net
        given = ("--weights", str(weight_path), "--target", "c2")
        for extra in (given[:2], given[2:],  # each needs the other
                      given + ("--stride", "2"),  # these shape a --layer
                      given + ("--padding", "valid")):
            code, out, errtext = run_cli(
                capsys, "decompose", "--model", str(model_path),
                "--method", "tucker", "--rank", "4,6", *extra)
            assert code == 1 and errtext.startswith("error:"), extra
            assert out == "", extra


class TestCensusCommand:
    def test_known_space_size(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--layer", "3,3,256,512",
                               "--method", "tucker")
        assert code == 0
        payload = json.loads(out)
        report = payload["tucker2"]
        assert report["all"] == 131072
        percents = {b["percent"] for b in report["buckets"]}
        assert percents == {25, 60, 85}
        assert "generation_time" not in report

    def test_timings_flag_adds_time(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--layer", "400,120",
                               "--method", "svd", "--timings")
        payload = json.loads(out)
        assert code == 0
        assert "generation_time" in payload["svd"]


class TestEnumerateCommand:
    def test_row_count_and_limit(self, capsys, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "enumerate", "--layer", "400,120",
                               "--method", "svd", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("method,ranks,params")
        assert len(lines) - 1 == 92

        code, _, _ = run_cli(capsys, "enumerate", "--layer", "400,120",
                             "--method", "svd", "--limit", "10",
                             "--out", str(out_csv))
        assert len(out_csv.read_text().strip().splitlines()) - 1 == 10

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_cli(capsys, "enumerate", "--layer", "3,3,8,12",
                    "--method", "tucker", "--method", "cp",
                    "--out", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    # sha256 of the CSV bytes, pinned so a change to how solutions are
    # enumerated or costed cannot silently change an export
    CSV_PINS = [
        (("--layer", "3,3,8,12", "--method", "tucker"), 91,
         "12d8bda94f107d422fb7caed61b6021a393f87cd5191238aca655e9cb5362142"),
        (("--layer", "3,3,8,12", "--method", "cp"), 33,
         "f68fb90e1d5dd433d034b74a9c3151e5c3084da2e4478a952ec71acaa5ba8695"),
        (("--layer", "3,3,8,12", "--method", "tt"), 1934,
         "13b852729fc2899a2099bf15cbdb953e80f36e9e6fadd2b4748f567dab680f94"),
        (("--layer", "3,3,8,12", "--stride", "2", "--padding", "valid",
          "--input-size", "9,9,8"), 1359,
         "b48ed244be8c8cbed85d2006f36d87f9d368c8e45644fddfbb7a113dadf9ccd1"),
        (("--layer", "400,120", "--method", "svd"), 92,
         "f4ed29f4da1f3945248d961b4c97f5d14b8fa588be4fbe8b9570a26143614aad"),
        (("--layer", "400,120", "--method", "qr"), 92,
         "8431dfac5accbd14d6bfe1e0812094516edd7f04ebe00b8fbfd5e1a9b428e320"),
        (("--layer", "400,120", "--method", "t3f", "--limit", "3000"), 3000,
         "5089c425659dedefa33aebe8626edbf498b7530becae8ce7271838342c2e0b11"),
        # both t3f depths, the whole valid space
        (("--layer", "24,30", "--method", "t3f"), 478,
         "c8de25e5e8534e343fa845ab660590a1833f81d775a5cc5156a363819a44e623"),
        # every slab of a family enumerated in slabs, and a limit that
        # stops inside a later slab of a t3f depth
        (("--layer", "3,3,32,48", "--method", "tt"), 128953,
         "b8275364ab0df9d72e3fbc1d5f88fbc7df2abcc9d800d704bae9f15529127c31"),
        (("--layer", "512,256", "--method", "t3f", "--limit", "20000"), 20000,
         "92a267ce1deeac86f0010c52cc0cb672a78d7bbf3715b19130c0dd7b9d5ff3cb"),
    ]

    @pytest.mark.parametrize("flags, rows, digest", CSV_PINS)
    def test_csv_bytes_are_pinned(self, capsys, tmp_path, flags, rows, digest):
        path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "enumerate", *flags, "--out", str(path))
        assert code == 0 and out == f"{rows} solutions\n"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestRepeatedMethods:
    # a method named twice, or once by an alias, runs once, where the
    # first naming put it
    def test_enumerate_writes_each_method_once(self, capsys):
        once = run_cli(capsys, "enumerate", "--layer", "8,6", "--method",
                       "svd", "--method", "qr")
        for again in (("svd", "svd", "qr"), ("svd", "qr", "svd", "qr")):
            argv = [arg for method in again for arg in ("--method", method)]
            assert run_cli(capsys, "enumerate", "--layer", "8,6",
                           *argv) == once
        assert once[1].count("\nsvd,") == once[1].count("\nqr,") == 3

    def test_score_scores_each_method_once(self, capsys, tmp_path):
        path = tmp_path / "score.json"
        outs = [run_cli(capsys, "score", "--layer", "3,3,4,6", "--out",
                        str(path), *argv)
                for argv in (("--method", "tucker2", "--method", "tt"),
                             ("--method", "tucker", "--method", "tt",
                              "--method", "tucker-2", "--method", "tt"))]
        assert outs[0] == outs[1]
        code, summary, _ = outs[0]
        assert code == 0
        assert [line.split(":")[0] for line in summary.splitlines()] == \
            ["tucker2", "tt"]


class TestAnalyzeCommand:
    def test_extremes_present(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--layer", "512,256")
        assert code == 0
        payload = json.loads(out)
        svd = payload["methods"]["svd"]
        assert svd["valid"] == 170
        assert svd["params"]["best_reduction_percent"] > \
            svd["params"]["worst_reduction_percent"]

    def test_fc_without_t3f_plan_reports_svd_and_qr(self, capsys):
        code, out, errtext = run_cli(capsys, "analyze", "--layer", "256,7")
        assert code == 0 and errtext == ""
        methods = json.loads(out)["methods"]
        assert sorted(methods) == ["qr", "svd"]
        assert methods["svd"]["valid"] == 6

    def test_a_method_without_valid_solutions_reports_valid_0(self, capsys,
                                                                tmp_path):
        # on 2x2 no rank of svd or qr saves a parameter; on 4x4 t3f has a
        # plan but no valid rank, while svd and qr have one each
        path = tmp_path / "analyze.json"
        code, out, errtext = run_cli(capsys, "analyze", "--layer", "2,2",
                                     "--out", str(path))
        assert code == 0 and errtext == ""
        assert out == ("original params=4 flops=8\n"
                       "qr: space=2 valid=0\nsvd: space=2 valid=0\n")
        assert json.loads(path.read_text())["methods"] == {
            "qr": {"all": 2, "valid": 0}, "svd": {"all": 2, "valid": 0}}
        code, out, _ = run_cli(capsys, "analyze", "--layer", "4,4")
        methods = json.loads(out)["methods"]
        assert code == 0 and methods["t3f"] == {"all": 4, "valid": 0}
        assert methods["svd"]["valid"] == methods["qr"]["valid"] == 1
        assert methods["svd"]["params"]["min"] == 8

    @pytest.mark.parametrize("dims", ["3,3,8,12", "4,4", "2,2", "1,1,2,4"])
    def test_builds_each_methods_families_once(self, capsys, monkeypatch,
                                               dims):
        built = []
        build = explore._families

        def families(layer, method, *args, **kwargs):
            built.append(method)
            return build(layer, method, *args, **kwargs)

        monkeypatch.setattr(explore, "_families", families)
        code, out, _ = run_cli(capsys, "analyze", "--layer", dims)
        assert code == 0
        assert sorted(built) == sorted(json.loads(out)["methods"])

    def test_a_space_past_exact_costing_still_raises(self, capsys):
        code, out, errtext = run_cli(capsys, "analyze", "--layer", "3,3,64,64",
                                     "--input-size", "15000000,15000000,64",
                                     "--method", "tt")
        assert code == 1 and out == ""
        assert errtext.startswith("error: layer: tt costs at input shape")


class TestDecomposeCommand:
    def test_synthetic_layer_report(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--layer", "3,3,8,12",
                               "--method", "tucker", "--rank", "4,6")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "tucker2"
        assert payload["ranks"] == [4, 6]
        assert 0 < payload["reduction"]["params"] < 1
        assert payload["relative_error"] < 1.0

    @pytest.mark.parametrize("method,rank", [("tucker", "1,1"), ("cp", "1"),
                                             ("tt", "1,1,1")])
    def test_grouped_conv_is_rejected(self, capsys, tmp_path, method, rank):
        layer = LayerDesc(name="g", kind="conv2d", kernel=(3, 3),
                          in_channels=8, out_channels=8, groups=4)
        ModelDesc(layers=[layer], edges=[], input="g",
                  output="g").save(tmp_path / "g.json")
        WeightStore({"g": np.ones((3, 3, 2, 8))}).save(tmp_path / "g.lrfw")
        code, out, errtext = run_cli(
            capsys, "decompose", "--model", str(tmp_path / "g.json"),
            "--weights", str(tmp_path / "g.lrfw"), "--target", "g",
            "--method", method, "--rank", rank)
        assert code == 1 and out == ""
        assert errtext.startswith("error:") and "groups=4" in errtext

    def test_fc_without_t3f_plan(self, capsys):
        for extra in ([], ["--plan-index", "0"]):
            code, out, errtext = run_cli(capsys, "decompose", "--layer",
                                         "7,11", "--method", "t3f", "--rank",
                                         "1", *extra)
            assert code == 1 and out == ""
            assert errtext == \
                "error: layer: no factorization plan for (7, 11)\n"

    def test_model_splice_roundtrip(self, capsys, saved_net, tmp_path):
        model_path, weight_path, _ = saved_net
        out_model = tmp_path / "fact.json"
        out_weights = tmp_path / "fact.lrfw"
        code, out, _ = run_cli(
            capsys, "decompose", "--model", str(model_path),
            "--weights", str(weight_path), "--target", "c2",
            "--method", "tucker", "--rank", "4,6",
            "--out-model", str(out_model), "--out-weights", str(out_weights))
        assert code == 0
        spliced = ModelDesc.load(out_model)
        spliced.validate()
        names = [l.name for l in spliced.layers]
        assert "c2" not in names and "c2.lrf0" in names
        store = WeightStore.load(out_weights)
        assert "c2.lrf1" in store

    def test_model_splice_needs_both_outputs(self, capsys, saved_net,
                                             tmp_path):
        model_path, weight_path, _ = saved_net
        out_model = tmp_path / "fact.json"
        code, _, errtext = run_cli(
            capsys, "decompose", "--model", str(model_path),
            "--weights", str(weight_path), "--target", "c2",
            "--method", "tucker", "--rank", "4,6",
            "--out-model", str(out_model))
        assert code == 1 and "--out-weights" in errtext
        assert not out_model.exists()


class TestSearchCommands:
    def test_dse_writes_outputs(self, capsys, saved_net, tmp_path):
        model_path, weight_path, data_path = saved_net
        outs = {key: tmp_path / f"dse-{key}" for key in
                ("model.json", "weights.lrfw", "audit.json")}
        code, out, _ = run_cli(
            capsys, "dse", "--model", str(model_path),
            "--weights", str(weight_path), "--dataset", str(data_path),
            "--samples", "16", "--step-size", "25",
            "--drop-limit", "0.5",
            "--out-model", str(outs["model.json"]),
            "--out-weights", str(outs["weights.lrfw"]),
            "--out-audit", str(outs["audit.json"]))
        assert code == 0
        audit = json.loads(outs["audit.json"].read_text())
        assert audit["success"] is True
        assert audit["iterations"][0]["iteration"] == 0
        ModelDesc.load(outs["model.json"]).validate()
        WeightStore.load(outs["weights.lrfw"])

    @pytest.mark.parametrize("flag, message", [
        ("--samples", "sample_count"), ("--max-sol", "max_sol")])
    def test_dse_rejects_zero_samples_and_max_sol(self, capsys, saved_net,
                                                  tmp_path, flag, message):
        model_path, weight_path, data_path = saved_net
        out_a = tmp_path / "audit.json"
        code, out, errtext = run_cli(
            capsys, "dse", "--model", str(model_path),
            "--weights", str(weight_path), "--dataset", str(data_path),
            "--drop-limit", "0.5", flag, "0", "--out-audit", str(out_a))
        assert code == 1 and out == ""
        assert errtext.startswith(f"error: {message} must be")
        assert not out_a.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "nan", "tol"), ("--tol", "-0.1", "tol"),
        ("--drop-limit", "nan", "accuracy_drop_limit"),
        ("--drop-limit", "-0.1", "accuracy_drop_limit")])
    def test_dse_rejects_bad_tolerances(self, capsys, saved_net, tmp_path,
                                        flag, value, message):
        model_path, weight_path, data_path = saved_net
        out_a = tmp_path / "audit.json"
        code, out, errtext = run_cli(
            capsys, "dse", "--model", str(model_path),
            "--weights", str(weight_path), "--dataset", str(data_path),
            flag, value, "--out-audit", str(out_a))
        assert code == 1 and out == ""
        assert errtext.startswith(f"error: {message} must be non-negative")
        assert not out_a.exists()

    def test_dse_unreachable_writes_best_so_far(self, capsys, tmp_path):
        # a rank-one conv: its rank-one start is exact, so the layer freezes
        # at once, and an evaluator failing every factorized model leaves
        # the bound out of reach
        r = np.random.default_rng(2)
        w = np.einsum("ij,c,f->ijcf", r.standard_normal((3, 3)),
                      r.standard_normal(3), r.standard_normal(8))
        paths = {key: tmp_path / key for key in
                 ("best.json", "best.lrfw", "audit.json")}
        code, out, errtext = run_cli(
            capsys, "dse",
            *one_conv_search_args(tmp_path, w, r, fails_on=".lrf"),
            "--out-model", str(paths["best.json"]),
            "--out-weights", str(paths["best.lrfw"]),
            "--out-audit", str(paths["audit.json"]))
        assert code == 1 and out == ""
        assert errtext.startswith("error: accuracy 0.0000 never reached")
        best = ModelDesc.load(paths["best.json"])
        best.validate()
        assert [l.name for l in best.layers][:3] == \
            ["c1.lrf0", "c1.lrf1", "c1.lrf2"]
        assert "c1.lrf1" in WeightStore.load(paths["best.lrfw"])
        audit = json.loads(paths["audit.json"].read_text())
        assert audit["success"] is False and set(audit) == {"success",
                                                            "iterations"}
        assert [it["accuracy"] for it in audit["iterations"]] == [0.0]
        assert audit["iterations"][0]["layers"]["c1"]["ranks"] == [1, 1]

    def test_dse_rerun_byte_identical(self, capsys, saved_net, tmp_path):
        model_path, weight_path, data_path = saved_net
        blobs = []
        for tag in ("x", "y"):
            out_w = tmp_path / f"{tag}.lrfw"
            out_a = tmp_path / f"{tag}.json"
            code, out, _ = run_cli(
                capsys, "dse", "--model", str(model_path),
                "--weights", str(weight_path), "--dataset", str(data_path),
                "--samples", "16", "--step-size", "25",
                "--drop-limit", "0.5", "--seed", "3",
                "--out-weights", str(out_w), "--out-audit", str(out_a))
            assert code == 0
            blobs.append((out_w.read_bytes(), out_a.read_bytes(), out))
        assert blobs[0] == blobs[1]

    def test_hybrid_reports_sources(self, capsys, saved_net):
        model_path, weight_path, data_path = saved_net
        code, out, _ = run_cli(
            capsys, "hybrid", "--model", str(model_path),
            "--weights", str(weight_path), "--dataset", str(data_path),
            "--samples", "16", "--step-size", "25", "--drop-limit", "0.5",
            "--pairs", "tucker2:svd,cp:qr")
        assert code == 0
        payload = json.loads(out)
        runs = payload["runs"]
        assert set(runs) == {"tucker2+svd", "cp+qr"}
        assert payload["hybrid"]["objective_total"] <= \
            min(r["objective_total"] for r in runs.values())
        assert payload["hybrid"]["accuracy"] is not None
        # the dataset's labels are the model's own, so the baseline is 1
        assert payload["hybrid"]["bound"] == 1.0 - 0.5
        assert payload["hybrid"]["within_bound"] is (
            payload["hybrid"]["accuracy"] >= 0.5)
        assert payload["unreachable"] == {}

    def test_hybrid_reports_a_hybrid_below_the_bound(self, capsys, saved_net,
                                                      monkeypatch):
        # every run meets the bound at once; the combined model scores 0.5
        combined = []
        combine = cli.hybrid_combine

        def counted(*args, **kwargs):
            combined.append(True)
            return combine(*args, **kwargs)

        monkeypatch.setattr(cli, "hybrid_combine", counted)
        monkeypatch.setattr(cli, "_evaluator", lambda args, dataset: (
            lambda model, weights: 0.5 if combined else 1.0))
        model_path, weight_path, data_path = saved_net
        code, out, _ = run_cli(
            capsys, "hybrid", "--model", str(model_path),
            "--weights", str(weight_path), "--dataset", str(data_path),
            "--samples", "16", "--pairs", "tucker2:svd,tt:qr")
        assert code == 0
        hybrid = json.loads(out)["hybrid"]
        assert (hybrid["accuracy"], hybrid["bound"],
                hybrid["within_bound"]) == (0.5, 1.0 - 0.015, False)

    def test_hybrid_keeps_the_pairs_that_finish(self, capsys, tmp_path):
        # a rank-one weight: every method's rank-one start is exact; the
        # evaluator fails cp's depthwise chain, whose layer freezes at once
        r = np.random.default_rng(2)
        w = np.einsum("i,j,c,f->ijcf", *(r.standard_normal(n)
                                         for n in (3, 3, 3, 8)))
        search = one_conv_search_args(tmp_path, w, r,
                                      fails_on="depthwise_conv")
        audit = tmp_path / "audit.json"
        code, out, errtext = run_cli(
            capsys, "hybrid", *search, "--pairs", "tucker2:svd,cp:svd,tt:svd",
            "--out-audit", str(audit))
        assert code == 0 and errtext == ""
        payload = json.loads(out)
        assert set(payload["runs"]) == {"tucker2+svd", "tt+svd"}
        assert payload["unreachable"] == {
            "cp+svd": "accuracy 0.0000 never reached baseline 1.0000 - "
                      "0.015; frozen: c1; reverted: none"}
        assert payload["hybrid"]["sources"]["c1"]["source"] in payload["runs"]
        assert payload["hybrid"]["within_bound"] is True
        assert audit.exists()
        # one pair finishing is too few to combine
        code, out, errtext = run_cli(
            capsys, "hybrid", *search, "--pairs", "tucker2:svd,cp:svd")
        assert code == 1 and out == ""
        assert errtext == (
            "error: hybrid needs at least two finished pairs, 1 finished; "
            "cp+svd: accuracy 0.0000 never reached baseline 1.0000 - 0.015; "
            "frozen: c1; reverted: none\n")


class TestScoreAndBreakdown:
    def test_scorecard_shape(self, capsys):
        code, out, _ = run_cli(capsys, "score", "--layer", "3,3,8,12",
                               "--method", "tucker", "--method", "cp")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"tucker2", "cp"}
        card = payload["tucker2"]
        assert card["flexibility"]["level"] == 4
        assert "decomposition_time" not in card
        levels = [m["level"] for m in card.values()]
        assert all(1 <= lv <= 5 for lv in levels)

    def test_scorecard_timings_opt_in(self, capsys):
        code, out, _ = run_cli(capsys, "score", "--layer", "18,15",
                               "--method", "svd", "--timings")
        payload = json.loads(out)
        assert "decomposition_time" in payload["svd"]

    def test_breakdown_totals(self, capsys, saved_net):
        model_path, _, _ = saved_net
        code, out, _ = run_cli(capsys, "breakdown", "--model",
                               str(model_path))
        assert code == 0
        payload = json.loads(out)
        per_layer = sum(e["params"] for e in payload["layers"].values())
        assert per_layer == payload["total"]["params"]
        assert payload["conv"]["params"] + payload["fc"]["params"] + \
            payload["other"]["params"] == payload["total"]["params"]


class TestOutputPolicy:
    def test_out_flag_writes_json_file(self, capsys, tmp_path):
        target = tmp_path / "census.json"
        code, out, _ = run_cli(capsys, "census", "--layer", "400,120",
                               "--method", "svd", "--out", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["svd"]["all"] == 120
        assert "all=120" in out  # stdout keeps a short digest

    def test_json_stdout_reruns_identical(self, capsys):
        outs = [run_cli(capsys, "analyze", "--layer", "3,3,8,12")[1]
                for _ in range(2)]
        assert outs[0] == outs[1]
