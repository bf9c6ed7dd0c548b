import json
from pathlib import Path

import numpy as np
import pytest

from latfact import ExponentTriple, MeasureSpace, WeightedLebesgue
from latfact.cli import Scenario, generate_instances, main, run
from latfact.schemas import (InstanceError, SCHEMA_ID, build_measure,
                             build_operator, build_space, build_xi,
                             instance_to_doc, load_instance, parse_instance)


def identity_instance(n=2, s=2.0, p=2.0, q=2.0) -> dict:
    return {
        "schema": SCHEMA_ID,
        "measure": {"weights": [1.0] * n},
        "space": {"family": "lebesgue", "s": s},
        "p": p, "q": q,
        "operator": {"matrix": np.eye(n).tolist(),
                     "codomain": {"family": "lebesgue", "s": s,
                                  "weights": [1.0] * n}},
        "seed": 0, "tol": 1e-6, "budget": 40, "samples": 2000,
    }


def partition(**fields) -> dict:
    """A valid two-block partition section with some fields replaced."""
    return dict({"g": [0.5, 0.5], "blocks": [[0], [1]], "alpha": [0.5, 0.5]},
                **fields)


def field_document() -> dict:
    """A document every command accepts: p-convex domain, operator, mixture."""
    return {"schema": SCHEMA_ID, "measure": {"weights": [1.0, 2.0]},
            "space": {"family": "lebesgue", "s": 2.0}, "p": 1.5, "q": 2.0,
            "operator": {"matrix": [[1.0, 0.5], [0.0, 1.0]]},
            "partition": partition(), "samples": 50, "count": 2,
            "step": 0.1, "budget": 8}


class TestSchemas:
    def test_round_trip_preserves_objects(self):
        ms = MeasureSpace(weights=np.array([0.5, 1.5]))
        X = WeightedLebesgue(space=ms, s=1.5)
        e = ExponentTriple(p=1.0, q=2.0)
        doc = instance_to_doc(measure=ms, space=X, e=e)
        parsed = parse_instance(json.loads(json.dumps(doc)))
        assert build_measure(parsed) == ms
        assert build_space(parsed, build_measure(parsed)) == X

    def test_operator_round_trip(self):
        doc = identity_instance()
        measure = build_measure(doc)
        X = build_space(doc, measure)
        T = build_operator(doc, X)
        doc2 = instance_to_doc(measure=measure, space=X, operator=T)
        T2 = build_operator(doc2, X)
        assert T == T2

    def test_xi_section_builds_certified_measure(self):
        doc = identity_instance(s=1.0, p=1.0, q=2.0)
        doc["xi"] = {"atoms": [{"h": [1.0, 0.0], "mass": 0.5},
                               {"h": [0.0, 1.0], "mass": 0.5}],
                     "normalized": True}
        measure = build_measure(doc)
        X = build_space(doc, measure)
        xi = build_xi(doc, X, ExponentTriple(p=1.0, q=2.0))
        assert xi.normalized and len(xi) == 2

    def test_rejects_malformed_documents(self):
        with pytest.raises(InstanceError):
            parse_instance([1, 2, 3])
        with pytest.raises(InstanceError):
            parse_instance({"schema": "latfact/999"})
        with pytest.raises(InstanceError):
            build_measure({"schema": SCHEMA_ID})
        with pytest.raises(InstanceError):
            build_space({"schema": SCHEMA_ID, "space": {"family": "orlicz"}},
                        MeasureSpace(weights=np.ones(2)))

    def test_unknown_scenario_command_rejected(self):
        with pytest.raises(InstanceError):
            Scenario(command="explode", instance={})


class TestRunners:
    def test_factorize_identity_reports_unit_constant(self, tmp_path):
        scenario = Scenario(command="factorize", instance=identity_instance())
        status, report = run(scenario)
        assert status == 0
        assert report["status"] == "pass"
        assert report["certificate"]["C"] == pytest.approx(1.0, abs=1e-5)
        assert report["certificate"]["converged"]
        assert "collapse_weight" in report

    def test_check_space(self):
        doc = {"schema": SCHEMA_ID, "measure": {"weights": [1.0, 2.0]},
               "space": {"family": "lebesgue", "s": 2.0}, "p": 2.0}
        status, report = run(Scenario(command="check-space", instance=doc))
        assert status == 0
        assert all(c["passed"] for c in report["checks"])

    def test_constants_chain(self):
        doc = identity_instance(n=2, s=1.0, p=1.0, q=2.0)
        doc["budget"] = 8
        status, report = run(Scenario(command="constants", instance=doc))
        assert status == 0
        assert report["chain_report"]["chain_ok"]

    def test_violated_chain_writes_a_failing_report(self, tmp_path):
        # the curved M_pq denominator is a local fixed point here, so the
        # M_pq witness ratio ends above the pi_q estimate (ROADMAP item 1);
        # once that is mended the chain holds and the report passes
        doc = {"schema": SCHEMA_ID,
               "measure": {"weights": [0.540828613577182, 1.9592748308756534]},
               "space": {"family": "lebesgue", "s": 3.0}, "p": 1.0, "q": 2.0,
               "operator": {"matrix": [[0.4649346615936955, -0.1876959239812762],
                                       [0.40171483122061635, -0.7794912023061084]],
                            "codomain": {"family": "euclidean"}},
               "seed": 0, "budget": 3}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "chain.report.json"
        status = main(["constants", "--instance", str(path),
                       "--out", str(out)])
        report = json.loads(out.read_text())
        ok = report["chain_report"]["chain_ok"]
        chain = report["checks"][0]["chain"]
        values = [chain[k] for k in ("operator_norm", "M_q", "M_pq", "pi_q")]
        slack = report["chain_report"]["slack"] * max(values[-1], 1.0)
        assert ok == all(a <= b + slack for a, b in zip(values, values[1:]))
        assert report["checks"][0]["passed"] == ok
        assert report["status"] == ("pass" if ok else "fail")
        assert status == (0 if ok else 1)

    def test_snorm_demo_with_partition(self):
        doc = {"schema": SCHEMA_ID, "measure": {"weights": [1, 1, 1]},
               "space": {"family": "lebesgue", "s": 1.0}, "p": 1.0, "q": 2.0,
               "partition": {"g": [1, 1, 1], "blocks": [[0, 1], [2]],
                             "alpha": [0.5, 0.5]},
               "expect_saturated": True, "samples": 100}
        status, report = run(Scenario(command="snorm-demo", instance=doc))
        assert status == 0
        assert report["saturated"]

    def test_snorm_demo_reports_unsaturated_witness(self):
        doc = {"schema": SCHEMA_ID, "measure": {"weights": [1, 1]},
               "space": {"family": "lebesgue", "s": 1.0}, "p": 1.0, "q": 2.0,
               "xi": {"atoms": [{"h": [1.0, 0.0], "mass": 1.0}]},
               "expect_saturated": False}
        status, report = run(Scenario(command="snorm-demo", instance=doc))
        assert status == 0
        assert report["saturated"] is False
        assert report["saturation_witness_atom"] == 1

    def test_kakutani(self):
        doc = identity_instance(n=2, s=1.0, p=1.0, q=2.0)
        status, report = run(Scenario(command="kakutani", instance=doc))
        assert status == 0
        eq = report["equivalence"]
        assert eq["lower"] == pytest.approx(1.0, abs=1e-4)
        assert eq["upper"] == pytest.approx(1.0, abs=1e-4)

    def test_lemma_verify_small(self):
        doc = {"schema": SCHEMA_ID, "count": 12, "step": 1e-2, "seed": 5}
        status, report = run(Scenario(command="lemma-verify", instance=doc))
        assert status == 0
        assert report["max_relative_gap"] <= 1e-6


class TestMainEntry:
    def test_full_invocation_and_report_file(self, tmp_path):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(identity_instance()))
        out = tmp_path / "report.json"
        code = main(["factorize", "--instance", str(path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "factorize"
        assert report["status"] == "pass"

    def test_reports_are_byte_identical(self, tmp_path):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(identity_instance()))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["factorize", "--instance", str(path), "--out", str(out1)]) == 0
        assert main(["factorize", "--instance", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_instance_file_is_input_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert main(["factorize", "--instance", str(path)]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["factorize", "--instance", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["constants", "--instance", str(path)]) == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--instance", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key, value", [
        ("seed", "abc"), ("seed", 1.5), ("tol", 0.0), ("tol", -1e-6),
        ("tol", float("inf")), ("tol", "small"), ("budget", 0),
        ("budget", -3), ("budget", 2.5), ("samples", 0), ("samples", "many")])
    def test_invalid_knob_is_input_error(self, tmp_path, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(identity_instance(), **{key: value})))
        assert main(["factorize", "--instance", str(path)]) == 2
        assert not (tmp_path / "bad.report.json").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("lemma-verify", "count", "abc"), ("lemma-verify", "count", 0),
        ("lemma-verify", "n_max", 1), ("lemma-verify", "m_max", 0),
        ("lemma-verify", "m_max", 2.5), ("lemma-verify", "step", 0),
        ("lemma-verify", "step", -0.1), ("lemma-verify", "rel_tol", "tight"),
        ("lemma-verify", "rel_tol", 0.0), ("lemma-verify", "pairs", []),
        ("lemma-verify", "pairs", 3), ("lemma-verify", "pairs", [[2.0, 1.0]]),
        ("lemma-verify", "pairs", [[0.5, 1.0]]),
        ("lemma-verify", "pairs", [[1.0]]),
        ("lemma-verify", "pairs", [["a", 2.0]]),
        ("check-space", "p", "abc"), ("check-space", "p", 0.5),
        ("lemma-verify", "step", 1e-4), ("lemma-verify", "m_max", 9),
        ("snorm-demo", "partition", partition(blocks=[[0, 1], [1]])),
        ("snorm-demo", "partition", partition(blocks=[[0]], alpha=[1.0])),
        ("snorm-demo", "partition", partition(blocks=[[0, 1], []])),
        ("snorm-demo", "partition", partition(blocks=[[0], [2]])),
        ("snorm-demo", "partition", partition(blocks=[[0], [-1, 1]])),
        ("snorm-demo", "partition", partition(blocks=[[0], ["a"]])),
        ("snorm-demo", "partition", partition(blocks=[[0], [1.5]])),
        ("snorm-demo", "partition", partition(blocks=3)),
        ("snorm-demo", "partition", partition(alpha=[1.0])),
        ("snorm-demo", "partition", partition(alpha=["x", 1.0])),
        ("snorm-demo", "partition", partition(alpha=[0.0, 1.0])),
        ("snorm-demo", "partition", partition(alpha=[-0.5, 1.0])),
        ("snorm-demo", "partition", partition(g=[0.5])),
        ("snorm-demo", "partition", partition(g=[0.5, 0.0])),
        ("snorm-demo", "partition", [[0], [1]]),
        ("snorm-demo", "partition", {"g": [0.5, 0.5], "blocks": [[0], [1]]}),
        ("snorm-demo", "xi", {"atoms": 3}),
        ("snorm-demo", "xi", {"atoms": [{"h": [0.5], "mass": 1.0}]}),
        ("snorm-demo", "dirac", {"g": [0.5]}),
        ("snorm-demo", "dirac", {"g": [0.5, 0.0]}),
        ("snorm-demo", "space", {"family": "lebesgue", "s": 1.0}),
        ("factorize", "space", {"family": "lebesgue", "s": 1.0}),
        ("kakutani", "space", {"family": "lebesgue", "s": 1.0}),
        ("constants", "space", {"family": "lebesgue", "s": 1.0}),
        ("snorm-demo", "expect_saturated", "false")])
    def test_invalid_command_field_is_input_error(self, tmp_path, command,
                                                  key, value):
        doc = dict(field_document(), **{key: value})
        if key == "dirac":
            del doc["partition"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--instance", str(path)]) == 2
        assert not (tmp_path / "bad.report.json").exists()

    @pytest.mark.parametrize("command", ["check-space", "lemma-verify",
                                         "snorm-demo", "factorize",
                                         "kakutani"])
    def test_field_document_is_valid(self, tmp_path, command):
        # each invalid-field case changes one field of this document
        path = tmp_path / "good.json"
        path.write_text(json.dumps(field_document()))
        assert main([command, "--instance", str(path)]) == 0

    def test_seed_override_changes_report_seed(self, tmp_path):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(identity_instance()))
        out = tmp_path / "r.json"
        assert main(["factorize", "--instance", str(path), "--seed", "7",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 7


class TestGenerate:
    def test_random_operator_files_round_trip(self, tmp_path):
        paths = generate_instances("random-operator", count=2, n=2, seed=7,
                                   out_dir=tmp_path)
        assert len(paths) == 2
        doc = load_instance(paths[0])
        measure = build_measure(doc)
        X = build_space(doc, measure)
        T = build_operator(doc, X)
        assert T.matrix.shape == (2, 2)
        # determinism: regenerating gives identical bytes
        again = generate_instances("random-operator", count=2, n=2, seed=7,
                                   out_dir=tmp_path / "again")
        assert paths[0].read_bytes() == again[0].read_bytes()

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_below_one_is_input_error(self, tmp_path, count):
        with pytest.raises(InstanceError):
            generate_instances("lebesgue-space", count=count, n=3, seed=0,
                               out_dir=tmp_path)
        assert main(["generate", "--kind", "lebesgue-space", "--count",
                     str(count), "--out-dir", str(tmp_path)]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_partition_xi_saturates(self, tmp_path):
        from latfact.cli import _build_snorm
        paths = generate_instances("partition-xi", count=3, n=4, seed=3,
                                   out_dir=tmp_path)
        for p in paths:
            doc = load_instance(p)
            sc = Scenario(command="snorm-demo", instance=doc)
            S = _build_snorm(sc)
            assert S.saturated

    def test_empty_space_is_input_error(self, tmp_path):
        with pytest.raises(InstanceError):
            generate_instances("lebesgue-space", count=1, n=0, seed=0,
                               out_dir=tmp_path)
        assert main(["generate", "--kind", "random-operator", "--n", "0",
                     "--out-dir", str(tmp_path)]) == 2

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(InstanceError):
            generate_instances("mystery", count=1, n=2, seed=0,
                               out_dir=tmp_path)

    def test_cli_generate_entrypoint(self, tmp_path, capsys):
        code = main(["generate", "--kind", "lebesgue-space", "--count", "1",
                     "--n", "3", "--seed", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert Path(printed).exists()
