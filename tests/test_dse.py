import hashlib
import itertools
import json
import sys
import warnings

import numpy as np
import pytest

from lowrank import dse, explore, linalg
from lowrank.costs import CONV_METHODS, FC_METHODS, cost_chain, cost_original
from lowrank.decompose import decompose_layer
from lowrank.dse import (BuiltinEvaluator, DseConfig, ExternalEvaluator,
                         hybrid_combine, install_solutions, iteration_bound,
                         run_dse, select_target_layers)
from lowrank.errors import (ConstraintUnreachableError, DecompositionError,
                            EvaluatorError, GraphError, RankError, ShapeError)
from lowrank.ir import (DATASET_INPUTS, DATASET_LABELS, LayerDesc, ModelDesc,
                        WeightStore)
from lowrank.similarity import capture_feature_maps, forward_model

from conftest import labeled_dataset

rng = np.random.default_rng(11)

# sha256 of each pair's audit without its similarities, followed by its
# weight archive bytes (TestSearchLoop.test_deterministic_audit). They were
# recorded with the sliding-window forward kernels: a faster kernel may move
# similarity digits (the t3f ones moved by < 1e-16) but no search decision
# or weight.  The tucker2 pins were re-recorded when its bases moved from
# full SVDs to ``linalg.left_basis`` (signed Gram eigenvectors), and the
# tt ones when the TT-SVD and fc SVD bases moved there too, each time with
# AUDIT_DECISION_PINS unchanged.  Candidates are scored on the float32
# weights that ship (``FactorizedLayer.shipped``) while the factors stay
# float64; that moved similarities alone, so these pins held.  The tt
# pins were re-recorded once more when a tall TT-SVD step took its basis
# from its short side (its core the QR of the projection, no SVD), again
# with AUDIT_DECISION_PINS unchanged.
# The weights come from LAPACK, so the pins belong to one numpy/BLAS build.
AUDIT_PINS = {
    ("cp", "qr"):
        "05dd511e0d9174693d48f3a2b75c8210e02ba8749bf3b42d3e7ca263f5d48886",
    ("cp", "svd"):
        "9adad2afe8e660756c6272b15bbc107c91a1a8a8517b26b3f5c69e1006e9d3c2",
    ("cp", "t3f"):
        "7eae5310cc3122efdcae28ed8d5b9731a7d41f6ed6d080b103e032dadb4ed4f7",
    ("tt", "qr"):
        "b87c1f73890b02b61a376b565d0e2ade5a395ea93f8977883700b68ffeae9be8",
    ("tt", "svd"):
        "871f4f6ff15514adbbe56fbaac93e11df33f4f45e2b8d3a14b120e2e91abc018",
    ("tt", "t3f"):
        "1267bbf4a2116c1832a6b6273c59ce61df57dd3335435c8b54c2707b810e15bf",
    ("tucker2", "qr"):
        "838ca54d5ce9dea7949d065e06744aa0c8b89e58068e2c8358a4ef0f5640a92e",
    ("tucker2", "svd"):
        "a7c602419e3f7c16e0406d42768e520e464b6e537c0a844d6b0599e8d9b0da1b",
    ("tucker2", "t3f"):
        "8e9cc7d18bce247340a5e3e912b54561d2e1ffb6ed3837b416ca9aa1022950e5",
}


# sha256 of each pair's audit without its similarities and without the
# weight archive: the search's decisions (ranks, steps, frozen flags,
# objective values, accuracies) apart from the LAPACK bytes that
# AUDIT_PINS also holds.  A faster factorization may move weight bytes
# and so AUDIT_PINS, but never these.
AUDIT_DECISION_PINS = {
    ("cp", "qr"):
        "349ae4034d05913ff5fe57f0b1076e52e31437a4cad6efb266dd1f553b7fc4cd",
    ("cp", "svd"):
        "637b137232e3f15990ac70956de0eff355b5295437719783d867b08716fbf8cb",
    ("cp", "t3f"):
        "577028a50aa6c6dc662051320111c67494c7a5ac3c704550eea5cba2e1644b4c",
    ("tt", "qr"):
        "6401d009d218277143180ac8849e7356a32f2b47365883877ee2363d3b91ecd8",
    ("tt", "svd"):
        "ee80b8f602e6b46abe46ba274181ff15493e5ca13333d8f0d75ce1b323be0236",
    ("tt", "t3f"):
        "8bc33c6886f9681de6f5bafb87f11028614b4a3f6d31c2d6a0a79aabb1cf753c",
    ("tucker2", "qr"):
        "a7237fd6d9ffce10fd7dbf51a968b714c139c81cf462dac59a36b121bdb1521f",
    ("tucker2", "svd"):
        "30863737098490b3512b6b8974dd85db76db89441678af76e29154358c1015d1",
    ("tucker2", "t3f"):
        "3713015c3851c09d74f369a5a4d95e4c3451372c065568ce78c1488f1bd5ef50",
}


def conv_chain_net(rank_one_first=True, seed=3):
    """conv -> relu -> conv -> flatten -> fc on 6x6x3 inputs.

    The first conv weight is an exact separable product, so a channel
    rank (1, 1) factorization reconstructs it to float precision.
    """
    r = np.random.default_rng(seed)
    layers = [
        LayerDesc(name="c1", kind="conv2d", kernel=(3, 3), in_channels=3,
                  out_channels=8, post_ops=("a1",)),
        LayerDesc(name="a1", kind="activation", fn="relu"),
        LayerDesc(name="c2", kind="conv2d", kernel=(3, 3), in_channels=8,
                  out_channels=12),
        LayerDesc(name="fl", kind="flatten"),
        LayerDesc(name="f1", kind="fc", in_channels=432, out_channels=10),
    ]
    edges = [("c1", "a1"), ("a1", "c2"), ("c2", "fl"), ("fl", "f1")]
    model = ModelDesc(layers=layers, edges=edges, input="c1", output="f1",
                      metadata={"input_shape": [6, 6, 3]})
    if rank_one_first:
        g = r.standard_normal((3, 3))
        u = r.standard_normal(3)
        v = r.standard_normal(8)
        w1 = np.einsum("ij,c,f->ijcf", g, u, v)
    else:
        w1 = r.standard_normal((3, 3, 3, 8))
    weights = WeightStore({
        "c1": w1.astype(np.float32),
        "c2": r.standard_normal((3, 3, 8, 12)).astype(np.float32),
        "f1": r.standard_normal((432, 10)).astype(np.float32)})
    return model, weights


def grouped_conv_net(seed=3):
    """grouped conv -> relu -> flatten -> fc on 6x6x4 inputs."""
    r = np.random.default_rng(seed)
    layers = [
        LayerDesc(name="g1", kind="conv2d", kernel=(3, 3), in_channels=4,
                  out_channels=8, groups=2, post_ops=("a1",)),
        LayerDesc(name="a1", kind="activation", fn="relu"),
        LayerDesc(name="fl", kind="flatten"),
        LayerDesc(name="f1", kind="fc", in_channels=288, out_channels=10),
    ]
    edges = [("g1", "a1"), ("a1", "fl"), ("fl", "f1")]
    model = ModelDesc(layers=layers, edges=edges, input="g1", output="f1")
    weights = WeightStore({
        "g1": r.standard_normal((3, 3, 2, 8)).astype(np.float32),
        "f1": r.standard_normal((288, 10)).astype(np.float32)})
    return model, weights


def make_dataset(count=8, seed=5, shape=(6, 6, 3), classes=10):
    r = np.random.default_rng(seed)
    return WeightStore({
        DATASET_INPUTS: r.standard_normal((count,) + shape).astype(np.float32),
        DATASET_LABELS: (np.arange(count) % classes).astype(np.float32)})


class RevertDetector:
    """Scores 1.0 once the named layers carry their original weights."""

    def __init__(self, originals):
        self.originals = {k: np.asarray(v) for k, v in originals.items()}
        self.calls = 0

    def __call__(self, model, weights):
        self.calls += 1
        for name, orig in self.originals.items():
            try:
                if not np.array_equal(np.asarray(weights[name]), orig):
                    return 0.0
            except KeyError:
                return 0.0
        return 1.0


def count_forward_passes(monkeypatch) -> list:
    """A one-item list counting the evaluator's calls of forward_model."""
    passes = [0]

    def counted(*args, **kwargs):
        passes[0] += 1
        return forward_model(*args, **kwargs)

    monkeypatch.setattr(dse, "forward_model", counted)
    return passes


class Scripted:
    def __init__(self, values):
        self.values = list(values)

    def __call__(self, model, weights):
        return self.values.pop(0) if len(self.values) > 1 else self.values[0]


class TestConfigAndBound:
    def test_iteration_bound(self):
        assert iteration_bound(5.0, 3) == 61
        assert iteration_bound(100.0 / 3, 2) == 7
        assert iteration_bound(50.0, 1) == 3

    @pytest.mark.parametrize("kwargs", [
        {"step_size": 0.0}, {"step_size": 100.0},
        {"target_fraction": 0.0}, {"target_fraction": 1.5},
        {"sim_threshold_sequential": 0.0},
        {"sim_threshold_nonsequential": 1.5},
        {"sample_count": 0}, {"sample_count": -1}, {"sample_count": 2.5},
        {"sample_count": "4"},
        {"max_sol": 0}, {"max_sol": -2}, {"max_sol": 2.5},
        {"max_sol": float("nan")},
        {"seed": 2.5}, {"seed": -1}, {"seed": "0"}, {"seed": None},
        {"tol": float("nan")}, {"tol": -0.01}, {"tol": float("inf")},
        {"accuracy_drop_limit": float("nan")},
        {"accuracy_drop_limit": -0.01},
        {"objective": "latency"}])
    def test_config_validation(self, kwargs):
        with pytest.raises(RankError):
            DseConfig(**kwargs)

    def test_config_tol_rule_is_the_census_rule(self):
        with pytest.raises(RankError) as config_err:
            DseConfig(tol=float("inf"))
        layer = LayerDesc(name="f", kind="fc", in_channels=8, out_channels=6)
        with pytest.raises(RankError) as census_err:
            explore.census(layer, "svd", [50], tol=float("inf"))
        assert str(config_err.value) == str(census_err.value)

    def test_config_accepts_numpy_integer_counts(self):
        config = DseConfig(max_sol=np.int64(2), sample_count=np.int32(8))
        assert (config.max_sol, config.sample_count) == (2, 8)

    def test_config_seed_is_a_non_negative_integer(self):
        assert DseConfig(seed=0).seed == 0
        assert DseConfig(seed=np.int64(7)).seed == 7
        with pytest.raises(RankError, match="seed must be an integer of at "
                                            "least 0, got 2.5"):
            DseConfig(seed=2.5)

    @pytest.mark.parametrize("field, bad", [
        ("max_sol", True), ("sample_count", 8.0), ("seed", np.bool_(False)),
        ("seed", "3"), ("max_sol", float("nan"))], ids=repr)
    def test_config_counts_follow_the_one_integer_rule(self, field, bad):
        with pytest.raises(RankError, match=f"{field} must be an integer"):
            DseConfig(**{field: bad})

    @pytest.mark.parametrize("field", [
        "step_size", "tol", "target_fraction", "accuracy_drop_limit",
        "sim_threshold_sequential", "sim_threshold_nonsequential"])
    @pytest.mark.parametrize("bad", ["0.5", None, True, np.bool_(True)],
                             ids=repr)
    def test_config_reals_follow_the_one_real_rule(self, field, bad):
        with pytest.raises(RankError, match=f"{field} must be a real number"):
            DseConfig(**{field: bad})

    def test_config_accepts_numpy_reals(self):
        config = DseConfig(step_size=np.float32(5), tol=np.float64(0.01),
                           target_fraction=np.int64(1))
        assert (config.step_size, config.tol, config.target_fraction) == \
            (5.0, 0.01, 1)

    def test_config_accepts_zero_tol_and_drop_limit(self):
        config = DseConfig(tol=0.0, accuracy_drop_limit=0.0,
                           objective="overall_mem")
        assert (config.tol, config.accuracy_drop_limit) == (0.0, 0.0)


class TestTargetSelection:
    def test_largest_objective_wins(self):
        layers = [
            LayerDesc(name="fa", kind="fc", in_channels=100, out_channels=10),
            LayerDesc(name="fb", kind="fc", in_channels=10, out_channels=200),
        ]
        model = ModelDesc(layers=layers, edges=[("fa", "fb")],
                          input="fa", output="fb")
        assert select_target_layers(model, (100,), "params", 0.5) == ["fb"]
        both = select_target_layers(model, (100,), "params", 1.0)
        assert both == ["fa", "fb"]  # layer order, not size order

    def test_grouped_conv_is_never_a_target(self):
        model, weights = grouped_conv_net()
        assert select_target_layers(model, (6, 6, 4), "params", 1.0) == ["f1"]
        x = rng.standard_normal((2, 6, 6, 4)).astype(np.float32)
        capture = capture_feature_maps(model, weights, x)
        assert list(capture.inputs) == list(capture.references) == ["f1"]

    def test_no_decomposable_layer(self):
        model = ModelDesc(layers=[LayerDesc(name="a", kind="activation",
                                            fn="relu")],
                          edges=[], input="a", output="a")
        with pytest.raises(GraphError):
            select_target_layers(model, (4,))


def rank_one_chains(model, weights, names):
    """Rank-one chains of the named layers: tucker2 on a conv, svd on an
    fc."""
    chains = {}
    for name in names:
        layer = model.layer(name)
        method = "svd" if layer.kind == "fc" else "tucker2"
        chains[name] = decompose_layer(layer, weights[name], method,
                                       explore.min_ranks(layer, method))
    return chains


class TestInstallSolutions:
    def test_middle_layer_rewired(self):
        model, weights = conv_chain_net()
        sols = rank_one_chains(model, weights, ["c2"])
        new_model, new_weights = install_solutions(model, weights, sols)
        names = [l.name for l in new_model.layers]
        assert "c2" not in names
        subs = [n for n in names if n.startswith("c2.lrf")]
        assert subs == ["c2.lrf0", "c2.lrf1", "c2.lrf2"]
        assert ("a1", "c2.lrf0") in new_model.edges
        assert ("c2.lrf2", "fl") in new_model.edges
        assert "c2" not in new_weights
        new_model.validate()

    def test_entry_and_exit_renamed(self):
        model, weights = conv_chain_net()
        sols = rank_one_chains(model, weights, ["c1", "f1"])
        new_model, _ = install_solutions(model, weights, sols)
        assert new_model.input == "c1.lrf0"
        assert new_model.output == "f1.lrf1"
        new_model.validate()

    def test_installs_the_shipped_arrays(self):
        model, weights = conv_chain_net()
        sols = rank_one_chains(model, weights, ["c1", "c2", "f1"])
        _, new_weights = install_solutions(model, weights, sols)
        for fact in sols.values():
            for name, arr in fact.shipped.items():
                assert new_weights[name] is arr, name

    def test_none_keeps_layer(self):
        model, weights = conv_chain_net()
        new_model, new_weights = install_solutions(model, weights,
                                                   {"c2": None})
        assert [l.name for l in new_model.layers] == \
            [l.name for l in model.layers]
        assert np.array_equal(np.asarray(new_weights["c2"]),
                              np.asarray(weights["c2"]))


class TestEvaluators:
    def test_builtin_perfect_on_own_labels(self, toy_net, toy_dataset):
        model, weights = toy_net
        assert BuiltinEvaluator(toy_dataset)(model, weights) == 1.0

    @pytest.mark.parametrize("missing", [DATASET_INPUTS, DATASET_LABELS])
    def test_builtin_names_a_missing_record(self, missing):
        full = make_dataset()
        dataset = WeightStore({name: full[name] for name in full.names()
                               if name != missing})
        with pytest.raises(EvaluatorError,
                           match=f"dataset has no '{missing}' record"):
            BuiltinEvaluator(dataset)

    def test_builtin_rejects_an_empty_dataset(self):
        with pytest.raises(EvaluatorError, match="dataset has no inputs"):
            BuiltinEvaluator(make_dataset(count=0))

    @pytest.mark.parametrize("bad", [-1.0, 0.5, np.nan, np.inf, 10.0])
    def test_builtin_rejects_labels_that_are_not_class_indices(
            self, toy_net, toy_dataset, bad):
        model, weights = toy_net
        labels = np.array(toy_dataset[DATASET_LABELS])
        labels[0] = bad
        evaluator = BuiltinEvaluator(WeightStore({
            DATASET_INPUTS: toy_dataset[DATASET_INPUTS],
            DATASET_LABELS: labels}))
        with warnings.catch_warnings(), pytest.raises(EvaluatorError):
            warnings.simplefilter("error")
            evaluator(model, weights)

    def test_builtin_scores_a_repeated_pair_once(self, toy_net, toy_dataset,
                                                 monkeypatch):
        passes = count_forward_passes(monkeypatch)
        model, weights = toy_net
        evaluator = BuiltinEvaluator(toy_dataset)
        first = evaluator(model, weights)
        # an equal model description and a store of the same arrays
        again = evaluator(ModelDesc.from_json(model.to_json()),
                          weights.replace({}))
        assert passes == [1]
        assert type(again) is float and again == first

    def test_builtin_forwards_a_swapped_record_again(self, toy_net,
                                                     toy_dataset, monkeypatch):
        passes = count_forward_passes(monkeypatch)
        model, weights = toy_net
        evaluator = BuiltinEvaluator(toy_dataset)
        evaluator(model, weights)
        swapped = weights.replace({"c2": np.array(weights["c2"])})
        assert swapped.to_bytes() == weights.to_bytes()
        evaluator(model, swapped)
        assert passes == [2]
        text = model.to_json()
        assert '"relu"' in text
        evaluator(ModelDesc.from_json(text.replace('"relu"', '"tanh"')),
                  weights)
        assert passes == [3]

    def test_builtin_raises_again_on_a_repeated_error(self, toy_net,
                                                      toy_dataset,
                                                      monkeypatch):
        passes = count_forward_passes(monkeypatch)
        model, weights = toy_net
        # the 4-d output of the first conv has no class axis
        conv = LayerDesc(name="c1", kind="conv2d", kernel=(3, 3),
                         in_channels=3, out_channels=8, padding="same")
        head = ModelDesc(layers=[conv], edges=[], input="c1", output="c1",
                         metadata=dict(model.metadata))
        labels = np.array(toy_dataset[DATASET_LABELS])
        labels[0] = 0.5
        bad_labels = BuiltinEvaluator(WeightStore({
            DATASET_INPUTS: toy_dataset[DATASET_INPUTS],
            DATASET_LABELS: labels}))
        for evaluator, m, match in (
                (BuiltinEvaluator(toy_dataset), head, "expected"),
                (bad_labels, model, "whole class indices")):
            for _ in range(2):
                with pytest.raises(EvaluatorError, match=match):
                    evaluator(m, weights)
            assert evaluator.scores == {}
        assert passes == [4]

    def test_external_runs_its_command_on_every_call(self, tmp_path,
                                                     toy_net):
        model, weights = toy_net
        log = tmp_path / "calls.log"
        ev = self._script(tmp_path, f"open({str(log)!r}, 'a').write('x\\n')\n"
                                    "print(0.5)")
        assert ev(model, weights) == ev(model, weights) == 0.5
        assert log.read_text() == "x\nx\n"

    def _script(self, tmp_path, body):
        path = tmp_path / "eval.py"
        path.write_text("import sys\n" + body + "\n")
        return ExternalEvaluator([sys.executable, str(path)])

    def test_external_ok(self, tmp_path, toy_net):
        model, weights = toy_net
        ev = self._script(tmp_path, "print('note'); print(0.75)")
        assert ev(model, weights) == 0.75

    def test_external_failures(self, tmp_path, toy_net):
        model, weights = toy_net
        cases = ["sys.exit(3)", "print('junk')", "print(1.5)"]
        for body in cases:
            with pytest.raises(EvaluatorError):
                self._script(tmp_path, body)(model, weights)


class TestSearchLoop:
    def test_immediate_success_keeps_rank_one(self):
        model, weights = conv_chain_net(rank_one_first=False)
        dataset = make_dataset()
        config = DseConfig(target_fraction=1.0, sample_count=4, seed=0)
        result = run_dse(model, weights, dataset, config, Scripted([1.0]))
        assert result.success
        assert len(result.audit) == 1
        assert result.final_accuracy == 1.0
        for name in ("c1", "c2", "f1"):
            assert result.solutions[name] is not None
        assert result.solutions["c1"].ranks == (1, 1)
        names = [l.name for l in result.model.layers]
        assert "c1.lrf0" in names and "f1.lrf1" in names

    def test_grouped_conv_left_untouched(self):
        model, weights = grouped_conv_net()
        dataset = make_dataset(shape=(6, 6, 4))
        config = DseConfig(target_fraction=1.0, sample_count=4, seed=0)
        result = run_dse(model, weights, dataset, config, Scripted([1.0]))
        assert result.targets == ["f1"]
        assert result.solutions["f1"].ranks == (1,)
        assert result.model.layer("g1") == model.layer("g1")
        assert result.model.predecessors("a1") == ["g1"]
        assert np.array_equal(np.asarray(result.weights["g1"]),
                              np.asarray(weights["g1"]))

    @pytest.mark.parametrize("conv_method,fc_method", [
        ("svd", "tucker2"), ("tucker2", "cp"), ("qr", "svd")])
    def test_rejects_a_bad_method_pair(self, conv_method, fc_method):
        model, weights = grouped_conv_net()  # its one target is an fc
        with pytest.raises(RankError, match="bad method pair"):
            run_dse(model, weights, make_dataset(shape=(6, 6, 4)),
                    DseConfig(), Scripted([1.0]), conv_method=conv_method,
                    fc_method=fc_method)

    def test_empty_dataset_raises_a_shape_error(self):
        model, weights = conv_chain_net()
        with pytest.raises(ShapeError, match="dataset has no inputs"):
            run_dse(model, weights, make_dataset(count=0),
                    DseConfig(sample_count=4), Scripted([1.0]))

    def test_dataset_without_inputs_raises_a_shape_error(self):
        model, weights = conv_chain_net()
        labels = make_dataset()[DATASET_LABELS]
        with pytest.raises(ShapeError, match="dataset has no 'inputs' record"):
            run_dse(model, weights, WeightStore({DATASET_LABELS: labels}),
                    DseConfig(sample_count=4), Scripted([1.0]))

    def test_fc_without_t3f_plan(self):
        layer = LayerDesc(name="f", kind="fc", in_channels=7, out_channels=11)
        model = ModelDesc(layers=[layer], edges=[], input="f", output="f")
        weights = WeightStore({"f": np.ones((7, 11), dtype=np.float32)})
        with pytest.raises(RankError) as err:
            run_dse(model, weights, make_dataset(shape=(7,), classes=11),
                    DseConfig(sample_count=4), Scripted([1.0]),
                    fc_method="t3f")
        assert str(err.value) == "f: no factorization plan for (7, 11)"

    def test_rank_one_decomposition_error_names_its_layer(self,
                                                          monkeypatch):
        best = object()

        def diverging(*args, **kwargs):
            raise DecompositionError("fit decreased", best=best)

        monkeypatch.setattr(dse, "decompose_layer", diverging)
        model, weights = conv_chain_net()
        with pytest.raises(DecompositionError) as err:
            run_dse(model, weights, make_dataset(),
                    DseConfig(target_fraction=1.0, sample_count=4),
                    Scripted([1.0]), conv_method="cp")
        assert str(err.value) == "c1: fit decreased"
        assert err.value.best is best

    def test_candidate_decomposition_error_names_its_layer(self,
                                                           monkeypatch):
        # the three rank-one decompositions succeed; the first candidate,
        # c2's (c1 freezes), diverges
        best = object()
        real = dse.decompose_layer
        calls = []

        def diverging_after_init(*args, **kwargs):
            calls.append(args[0].name)
            if len(calls) > 3:
                raise DecompositionError("fit decreased", best=best)
            return real(*args, **kwargs)

        monkeypatch.setattr(dse, "decompose_layer", diverging_after_init)
        with pytest.raises(DecompositionError) as err:
            self._freeze_then_revert()
        assert calls == ["c1", "c2", "f1", "c2"]
        assert str(err.value) == "c2: fit decreased"
        assert err.value.best is best

    @staticmethod
    def _freeze_then_revert():
        # c1 is exactly recoverable at rank (1, 1): it must freeze there
        # while c2 and f1 walk their budgets down, run out, and revert.
        model, weights = conv_chain_net(rank_one_first=True)
        dataset = make_dataset()
        config = DseConfig(target_fraction=1.0, sample_count=4, seed=0,
                           step_size=20.0,
                           sim_threshold_sequential=0.9999,
                           sim_threshold_nonsequential=0.9999)
        evaluator = RevertDetector({"c2": weights["c2"], "f1": weights["f1"]})
        result = run_dse(model, weights, dataset, config, evaluator)
        return model, weights, config, result

    def test_freeze_then_revert(self):
        model, weights, config, result = self._freeze_then_revert()
        assert result.success
        assert result.final_accuracy == result.baseline_accuracy == 1.0
        bound = iteration_bound(config.step_size, 3)
        assert 1 < len(result.audit) <= bound

        # per-layer steps never increase and flags never flip back
        for name in ("c1", "c2", "f1"):
            steps = [e["layers"][name]["step"] for e in result.audit]
            assert all(a >= b for a, b in zip(steps, steps[1:]))
            for flag in ("frozen", "exhausted"):
                flags = [e["layers"][name][flag] for e in result.audit]
                assert all(not (a and not b)
                           for a, b in zip(flags, flags[1:]))

        final = result.audit[-1]["layers"]
        assert final["c1"]["frozen"] and final["c1"]["ranks"] == [1, 1]
        assert result.audit[1]["layers"]["c1"]["frozen"]
        for name in ("c2", "f1"):
            assert final[name]["exhausted"]
            assert result.solutions[name] is None
        assert result.solutions["c1"] is not None
        # reverted layers carry their original weights in the output
        for name in ("c2", "f1"):
            assert np.array_equal(np.asarray(result.weights[name]),
                                  np.asarray(weights[name]))

    def test_each_solution_scored_once(self, monkeypatch):
        scores = {}  # id -> [solution, calls]; holding it keeps ids unique
        measure = dse.layer_similarity

        def counting(fact, capture):
            scores.setdefault(id(fact), [fact, 0])[1] += 1
            return measure(fact, capture)

        monkeypatch.setattr(dse, "layer_similarity", counting)
        model, _, _, result = self._freeze_then_revert()
        assert scores
        assert all(calls == 1 for _, calls in scores.values())

        shapes = model.input_shapes((6, 6, 3))
        assert result.solutions["c1"] is not None
        assert result.solutions["c2"] is result.solutions["f1"] is None
        for name in result.targets:
            fact = result.solutions[name]
            expect = (cost_chain(fact.sub_layers, shapes[name])
                      if fact is not None else
                      cost_original(model.layer(name), shapes[name]))
            assert result.layer_costs[name] == expect

    @pytest.mark.parametrize("fc_method", ["svd", "qr"])
    def test_each_search_factorizes_a_weight_once(self, fc_method,
                                                  monkeypatch):
        # f1 is decomposed at every step until it reverts; its full
        # factorization is computed once per search, not once per call
        # and not once per process
        # svd factorizes f1's short side, f1.T
        factorize = {"svd": "left_basis", "qr": "qr_pivoted"}[fc_method]
        model, weights = conv_chain_net()
        f1 = np.asarray(weights["f1"], dtype=np.float64)
        if fc_method == "svd":
            f1 = f1.T
        of_f1 = []
        original = getattr(linalg, factorize)

        def counted(a):
            of_f1.append(a.shape == f1.shape and np.array_equal(a, f1))
            return original(a)

        monkeypatch.setattr(linalg, factorize, counted)
        built = []
        build = explore._families

        def families(layer, method, input_shape=None):
            built.append(layer.name)
            return build(layer, method, input_shape)

        monkeypatch.setattr(explore, "_families", families)
        asked = []
        ask = explore.solutions_at_ratio

        def solutions_at_ratio(layer, *args, **kwargs):
            asked.append(layer.name)
            return ask(layer, *args, **kwargs)

        monkeypatch.setattr(explore, "solutions_at_ratio", solutions_at_ratio)
        dataset = make_dataset()
        config = DseConfig(target_fraction=1.0, sample_count=4, seed=0,
                           step_size=20.0,
                           sim_threshold_sequential=0.9999,
                           sim_threshold_nonsequential=0.9999)
        for search in (1, 2):
            evaluator = RevertDetector({"c2": weights["c2"],
                                        "f1": weights["f1"]})
            run_dse(model, weights, dataset, config, evaluator,
                    conv_method="tt", fc_method=fc_method)
            assert of_f1.count(True) == search
            # families are built at a layer's first relaxed target
            assert asked.count("f1") > 1
            assert sorted(built) == sorted([*set(asked)] * search)

    def test_unreachable_when_all_frozen(self):
        layers = [LayerDesc(name="c1", kind="conv2d", kernel=(3, 3),
                            in_channels=3, out_channels=8,
                            post_ops=("a1",)),
                  LayerDesc(name="a1", kind="activation", fn="relu")]
        model = ModelDesc(layers=layers, edges=[("c1", "a1")],
                          input="c1", output="a1")
        r = np.random.default_rng(2)
        w = np.einsum("ij,c,f->ijcf", r.standard_normal((3, 3)),
                      r.standard_normal(3), r.standard_normal(8))
        weights = WeightStore({"c1": w.astype(np.float32)})
        dataset = make_dataset(shape=(6, 6, 3))
        config = DseConfig(target_fraction=1.0, sample_count=4)
        with pytest.raises(ConstraintUnreachableError) as err:
            run_dse(model, weights, dataset, config, Scripted([1.0, 0.0]))
        assert str(err.value).endswith("; frozen: c1; reverted: none")
        best_model, best_weights, audit = err.value.best
        assert len(audit) == 1
        assert audit[0]["layers"]["c1"]["ranks"] == [1, 1]
        assert any(l.name == "c1.lrf0" for l in best_model.layers)
        assert "c1.lrf0" in best_weights

    def test_unreachable_carries_the_first_most_accurate_model(self):
        # c1 freezes while c2 and f1 walk down and revert; the bound is
        # never met, and the second and third evaluations tie as the most
        # accurate
        model, weights = conv_chain_net(rank_one_first=True)
        dataset = make_dataset()
        config = DseConfig(target_fraction=1.0, sample_count=4, seed=0,
                           step_size=20.0,
                           sim_threshold_sequential=0.9999,
                           sim_threshold_nonsequential=0.9999)
        script = [1.0, 0.3, 0.7, 0.7, 0.1]
        results = list(dse.search(model, weights, dataset, config,
                                  Scripted(script)))
        assert len(results) > 3
        assert [r.final_accuracy for r in results[:4]] == script[1:]
        assert results[1].weights.to_bytes() != results[2].weights.to_bytes()
        assert not any(r.success for r in results)
        with pytest.raises(ConstraintUnreachableError) as err:
            run_dse(model, weights, dataset, config, Scripted(script))
        assert str(err.value) == (
            "accuracy 0.1000 never reached baseline 1.0000 - 0.015; "
            "frozen: c1; reverted: c2, f1")
        best_model, best_weights, audit = err.value.best
        assert best_model.to_json() == results[1].model.to_json()
        assert best_weights.to_bytes() == results[1].weights.to_bytes()
        assert audit == results[-1].audit

    @pytest.mark.parametrize("conv_method,fc_method",
                             itertools.product(CONV_METHODS, FC_METHODS))
    def test_deterministic_audit(self, conv_method, fc_method):
        model, weights = conv_chain_net(rank_one_first=True)
        dataset = make_dataset()
        config = DseConfig(target_fraction=1.0, sample_count=4, seed=9,
                           step_size=25.0,
                           sim_threshold_sequential=0.9999,
                           sim_threshold_nonsequential=0.9999)
        runs = []
        for _ in range(2):
            ev = RevertDetector({"c2": weights["c2"], "f1": weights["f1"]})
            runs.append(run_dse(model, weights, dataset, config, ev,
                                conv_method=conv_method, fc_method=fc_method))
        assert runs[0].audit == runs[1].audit
        assert runs[0].weights.to_bytes() == runs[1].weights.to_bytes()
        decisions = [{**entry, "layers": {
            name: {k: v for k, v in layer.items() if k != "similarity"}
            for name, layer in entry["layers"].items()}}
            for entry in runs[0].audit]
        text = json.dumps(decisions, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() \
            == AUDIT_DECISION_PINS[conv_method, fc_method]
        assert hashlib.sha256(text + runs[0].weights.to_bytes()).hexdigest() \
            == AUDIT_PINS[conv_method, fc_method]
        # the search yields one result per evaluation, each audit a prefix
        # of the next; only the last, run_dse's, meets the bound
        ev = RevertDetector({"c2": weights["c2"], "f1": weights["f1"]})
        results = list(dse.search(model, weights, dataset, config, ev,
                                  conv_method=conv_method,
                                  fc_method=fc_method))
        assert len(results) == len(runs[0].audit)
        for i, result in enumerate(results):
            assert result.audit == runs[0].audit[:i + 1]
            assert result.success == (result is results[-1])
        assert results[-1].weights.to_bytes() == runs[0].weights.to_bytes()

    def test_a_shared_evaluator_changes_no_result(self, monkeypatch):
        # both searches score the original model, and each evaluates some
        # unchanged model again within its own run (14 calls, 9 distinct)
        passes = count_forward_passes(monkeypatch)
        model, weights = conv_chain_net(rank_one_first=True)
        dataset = labeled_dataset(model, weights, count=32)
        config = DseConfig(target_fraction=1.0, sample_count=4, seed=0,
                           step_size=20.0, accuracy_drop_limit=0.1)
        shared = BuiltinEvaluator(dataset)
        outcomes = {}
        for label, evaluator in (
                ("shared", shared),
                ("fresh", lambda m, w: BuiltinEvaluator(dataset)(m, w))):
            passes[0] = 0
            runs = [run_dse(model, weights, dataset, config, evaluator,
                            conv_method=conv, fc_method=fc)
                    for conv, fc in (("tucker2", "qr"), ("cp", "svd"))]
            outcomes[label] = passes[0], [
                (r.audit, r.final_accuracy, r.baseline_accuracy,
                 r.model.to_json(), r.weights.to_bytes()) for r in runs]
        assert outcomes["shared"][1] == outcomes["fresh"][1]
        calls = sum(len(r[0]) + 1 for r in outcomes["fresh"][1])
        assert outcomes["fresh"][0] == calls
        assert outcomes["shared"][0] == len(shared.scores) < calls


class TestHybrid:
    def _two_runs(self):
        model, weights = conv_chain_net(rank_one_first=False)
        dataset = make_dataset()
        config = DseConfig(target_fraction=1.0, sample_count=4, seed=0)
        run_a = run_dse(model, weights, dataset, config, Scripted([1.0]),
                        conv_method="tucker2", fc_method="svd")
        run_b = run_dse(model, weights, dataset, config, Scripted([1.0]),
                        conv_method="cp", fc_method="qr")
        return model, dataset, run_a, run_b

    def test_per_layer_minimum_exact(self):
        model, dataset, run_a, run_b = self._two_runs()
        hyb = hybrid_combine({"a": run_a, "b": run_b}, objective="params")
        entry = hyb.audit[0]["hybrid"]
        total = 0
        for name in run_a.targets:
            va = run_a.layer_costs[name].params
            vb = run_b.layer_costs[name].params
            assert entry[name]["objective_value"] == min(va, vb)
            assert entry[name]["source"] == ("a" if va <= vb else "b")
            assert hyb.layer_costs[name].params == min(va, vb)
            total += min(va, vb)
        for run in (run_a, run_b):
            assert total <= sum(run.layer_costs[n].params
                                for n in run.targets)
        # rank-one cp beats rank-one tucker on convs, svd ties qr on fc
        assert entry["c1"]["source"] == "b"
        assert entry["f1"]["source"] == "a"

    def test_combined_model_runs(self):
        model, dataset, run_a, run_b = self._two_runs()
        hyb = hybrid_combine({"a": run_a, "b": run_b})
        assert hyb.final_accuracy is None and hyb.success
        out = forward_model(hyb.model, hyb.weights,
                            dataset[DATASET_INPUTS][:2])
        assert out.shape == (2, 10)

    def test_input_validation(self):
        model, dataset, run_a, run_b = self._two_runs()
        with pytest.raises(RankError):
            hybrid_combine({"a": run_a})
        run_b.targets = ["c1"]
        with pytest.raises(GraphError):
            hybrid_combine({"a": run_a, "b": run_b})
