import json
from pathlib import Path

import numpy as np
import pytest

from latfact import (ExponentTriple, LinearOperator, MeasureSpace,
                     SNormSpace, WeightedLebesgue)
from latfact.cli import Scenario, generate_instances, main, run
from latfact.schemas import (COMMANDS, InstanceError, SCHEMA_ID,
                             instance_to_doc, load_instance, parse_fields)
from latfact.suite import random_operator


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


def chain_document(c: float = 1.0) -> dict:
    """A two-atom L^3 constants document whose matrix is scaled by ``c``."""
    matrix = [[0.4649346615936955, -0.1876959239812762],
              [0.40171483122061635, -0.7794912023061084]]
    return {"schema": SCHEMA_ID,
            "measure": {"weights": [0.540828613577182, 1.9592748308756534]},
            "space": {"family": "lebesgue", "s": 3.0}, "p": 1.0, "q": 2.0,
            "operator": {"matrix": [[c * a for a in row] for row in matrix],
                         "codomain": {"family": "euclidean"}},
            "seed": 0, "budget": 3}


def admitted_mixture_document() -> dict:
    """An L^1 mixture whose one atom sits inside the dual-ball slack."""
    return {"schema": SCHEMA_ID, "measure": {"weights": [1.0, 1.0]},
            "space": {"family": "lebesgue", "s": 1.0}, "p": 1.0, "q": 2.0,
            "xi": {"atoms": [{"h": [1.0000000005, 1.0000000005],
                              "mass": 100.0}]}}


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
        f = parse_fields("kakutani", json.loads(json.dumps(doc)))
        assert f.space.space == ms
        assert f.space == X
        assert f.e == e

    def test_operator_round_trip(self):
        f = parse_fields("constants", identity_instance())
        T = f.operator
        doc2 = instance_to_doc(measure=f.space.space, space=f.space, e=f.e,
                               operator=T)
        T2 = parse_fields("constants", doc2).operator
        assert T == T2

    def test_xi_section_builds_certified_measure(self):
        doc = identity_instance(s=1.0, p=1.0, q=2.0)
        doc["xi"] = {"atoms": [{"h": [1.0, 0.0], "mass": 0.5},
                               {"h": [0.0, 1.0], "mass": 0.5}],
                     "normalized": True}
        # the rows are certified where the measure meets its base space
        S = parse_fields("snorm-demo", doc).mixture
        assert S.xi.normalized and len(S.xi) == 2
        assert S.saturated

    def test_rejects_malformed_documents(self):
        with pytest.raises(InstanceError):
            parse_fields("check-space", [1, 2, 3])
        with pytest.raises(InstanceError):
            parse_fields("check-space", {"schema": "latfact/999"})
        with pytest.raises(InstanceError):
            parse_fields("check-space", {"schema": SCHEMA_ID})
        with pytest.raises(InstanceError):
            parse_fields("check-space",
                         {"schema": SCHEMA_ID, "measure": {"weights": [1, 1]},
                          "space": {"family": "orlicz"}})

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("doc", [
        dict(field_document(), schema="latfact/999"),
        [field_document()], "latfact/1", 3, None],
        ids=["wrong-schema", "list", "string", "number", "null"])
    def test_every_reader_checks_the_document(self, command, doc):
        # the one reader and the scenario it builds see the same checks
        # as the CLI's file path
        with pytest.raises(InstanceError):
            parse_fields(command, doc)
        with pytest.raises(InstanceError):
            Scenario(command=command, instance=doc)

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
        assert report["certificate"]["stop"] == "converged"
        assert "collapse_weight" in report

    @pytest.mark.parametrize("command", ["factorize", "kakutani"])
    def test_closed_route_at_p_equal_q_equal_one(self, command):
        # p = q = 1 on a curved domain: the certificate is the one weight
        # c / C*, C* the Köthe-dual norm of c_j = ‖T e_j‖ / μ_j
        doc = dict(field_document(), p=1.0, q=1.0)
        status, report = run(Scenario(command=command, instance=doc))
        assert status == 0
        assert all(c["passed"] for c in report["checks"])
        X = parse_fields(command, doc).space
        if command == "kakutani":  # the identity into X
            norms = X.norm_rows(np.eye(2))
        else:  # the document's operator into Euclidean space
            norms = np.linalg.norm(doc["operator"]["matrix"], axis=0)
        c = norms / X.space.weights
        C_star = float(np.sum(c ** 2 * X.space.weights) ** 0.5)  # L^2 dual
        cert = report["certificate"]
        assert cert["C"] == pytest.approx(C_star, rel=1e-12)
        assert (cert["iterations"], cert["stop"]) == (1, "converged")
        [atom] = cert["xi"]["atoms"]
        np.testing.assert_allclose(atom["h"], c / C_star, rtol=1e-12)

    def test_check_space(self):
        doc = {"schema": SCHEMA_ID, "measure": {"weights": [1.0, 2.0]},
               "space": {"family": "lebesgue", "s": 2.0}, "p": 2.0}
        status, report = run(Scenario(command="check-space", instance=doc))
        assert status == 0
        assert all(c["passed"] for c in report["checks"])
        # the report holds the domain in the document's own sections
        X = parse_fields("check-space", report).space
        assert X == parse_fields("check-space", doc).space

    def test_constants_chain(self):
        doc = identity_instance(n=2, s=1.0, p=1.0, q=2.0)
        doc["budget"] = 8
        status, report = run(Scenario(command="constants", instance=doc))
        assert status == 0
        assert report["chain_report"]["chain_ok"]

    def test_violated_chain_writes_a_failing_report(self, tmp_path):
        # the curved M_pq denominator is a local fixed point here, so the
        # M_pq witness ratio ends above the pi_q estimate (ROADMAP item 2);
        # once that is mended the chain holds and the report passes
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_document()))
        out = tmp_path / "chain.report.json"
        status = main(["constants", "--instance", str(path),
                       "--out", str(out)])
        report = json.loads(out.read_text())
        ok = report["chain_report"]["chain_ok"]
        chain = report["checks"][0]["chain"]
        values = [chain[k] for k in ("operator_norm", "M_q", "M_pq", "pi_q")]
        slack = report["chain_report"]["slack"] * values[-1]
        assert ok == all(a <= b + slack for a, b in zip(values, values[1:]))
        assert report["checks"][0]["passed"] == ok
        assert report["status"] == ("pass" if ok else "fail")
        assert status == (0 if ok else 1)

    def test_chain_verdict_does_not_depend_on_the_scale(self):
        # the slack is relative to pi_q, so scaling T by c scales every
        # chain value and the slack alike
        verdicts = []
        for c in (1.0, 1e-3):
            status, report = run(Scenario(command="constants",
                                          instance=chain_document(c)))
            verdicts.append((status, report["chain_report"]["chain_ok"]))
        assert verdicts[0] == verdicts[1]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the target norms and the q-th powers of the image norms are "
        "computed unscaled, so they underflow or overflow at extreme "
        "scales (ROADMAP aim 3)"))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e-200, 1e-160, 1e160])
    def test_extreme_scales_scale_every_value(self, c):
        # T -> cT scales C and every chain value by c; at 1e-200 factorize
        # passes with C = 0, at 1e-160 ‖T‖/c is off by 3.4e-5, and at
        # 1e160 the chain reads inf and 0 and the report holds NaN
        T = random_operator(3, 3, [7], s=1.0)

        def reports(scale):
            cT = LinearOperator(matrix=scale * T.matrix, domain=T.domain,
                                codomain=T.codomain)
            doc = instance_to_doc(measure=T.domain.space, space=T.domain,
                                  e=ExponentTriple(p=1.0, q=2.0), operator=cT)
            return [run(Scenario(command=command, instance=doc))[1]
                    for command in ("factorize", "constants")]

        (cert, chain), (cert_c, chain_c) = reports(1.0), reports(c)
        text = json.dumps([cert_c, chain_c])
        assert "NaN" not in text and "Infinity" not in text
        assert cert_c["certificate"]["C"] / c == pytest.approx(
            cert["certificate"]["C"], rel=1e-9)
        for key, value in chain["chain_report"]["chain"].items():
            assert chain_c["chain_report"]["chain"][key] / c == \
                pytest.approx(value, rel=1e-9), key

    def test_snorm_demo_admits_what_the_mixture_admitted(self, tmp_path):
        # the atom's dual norm 1 + 5e-10 is inside the relative slack the
        # mixture space admits it with, so the inclusion bound allows the
        # same slack: s(f) / ‖f‖ reads 10 (1 + 5e-10) against 10
        path = tmp_path / "admitted.json"
        path.write_text(json.dumps(admitted_mixture_document()))
        out = tmp_path / "admitted.report.json"
        assert main(["snorm-demo", "--instance", str(path),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        check = next(c for c in report["checks"]
                     if c["name"] == "inclusion-bound")
        assert check["passed"] and check["bound"] == 10.0
        assert check["ratio"] > check["bound"]

    def test_inclusion_bound_violation_writes_a_failing_report(
            self, tmp_path, monkeypatch):
        seminorm_rows = SNormSpace.seminorm_rows
        monkeypatch.setattr(SNormSpace, "seminorm_rows",
                            lambda S, F: 2.0 * seminorm_rows(S, F))
        path = tmp_path / "admitted.json"
        path.write_text(json.dumps(admitted_mixture_document()))
        out = tmp_path / "admitted.report.json"
        assert main(["snorm-demo", "--instance", str(path),
                     "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        check = next(c for c in report["checks"]
                     if c["name"] == "inclusion-bound")
        assert report["status"] == "fail" and not check["passed"]
        assert check["ratio"] > 2.0 * check["bound"] * (1.0 - 1e-9)

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

    @pytest.mark.parametrize("key, section, builder, wrong", [
        ("dirac", {"g": [0.25, 0.5]}, "dirac_space",
         lambda build, X, e, g: build(X, e, g[::-1])),
        ("partition", partition(alpha=[0.25, 0.75]), "partition_space",
         lambda build, X, e, g, blocks, alpha: build(X, e, g, blocks,
                                                     alpha[::-1]))])
    def test_closed_form_identity_sees_a_mixture_built_wrong(
            self, monkeypatch, key, section, builder, wrong):
        import latfact.schemas
        doc = dict(field_document(), **{key: section})
        if key == "dirac":
            del doc["partition"]

        def closed_form(report):
            return next(c for c in report["checks"]
                        if c["name"] == "closed-form-identity")

        status, report = run(Scenario(command="snorm-demo", instance=doc))
        assert status == 0 and closed_form(report)["passed"]
        build = getattr(latfact.schemas, builder)
        monkeypatch.setattr(latfact.schemas, builder,
                            lambda *args: wrong(build, *args))
        status, report = run(Scenario(command="snorm-demo", instance=doc))
        assert status == 1
        assert not closed_form(report)["passed"]
        assert closed_form(report)["worst"] > 1e-3

    def test_kakutani(self):
        doc = identity_instance(n=2, s=1.0, p=1.0, q=2.0)
        status, report = run(Scenario(command="kakutani", instance=doc))
        assert status == 0
        eq = report["equivalence"]
        assert eq["lower"] == pytest.approx(1.0, abs=1e-4)
        assert eq["upper"] == pytest.approx(1.0, abs=1e-4)

    def test_unconverged_kakutani_reports_no_equivalence(self):
        # a budget of one stops the identity solve unconverged
        doc = dict(field_document(), budget=1)
        status, report = run(Scenario(command="kakutani", instance=doc))
        assert status == 1
        assert report["certificate"]["stop"] == "budget"
        assert [c["name"] for c in report["checks"]] == ["solver-converged"]
        assert not report["checks"][0]["passed"]
        assert "equivalence" not in report

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

    def test_non_utf8_instance_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"schema": "latfact/1", "p": "\xff\xfe"}')
        assert main(["check-space", "--instance", str(path)]) == 2
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "binary.report.json").exists()

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["factorize", "--instance", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["constants", "--instance", str(path)]) == 2

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"schema": "latfact/1", "pairs": '
                        + "[" * depth + "]" * depth + "}")
        assert main(["lemma-verify", "--instance", str(path)]) == 2
        assert "nests too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check-space", "constants",
                                         "snorm-demo", "factorize", "kakutani"])
    def test_thirteen_atoms_exit_two(self, tmp_path, capsys, command):
        doc = identity_instance(n=13, s=1.0, p=1.0, q=2.0)
        doc["operator"]["codomain"] = {"family": "euclidean"}
        doc["dirac"] = {"g": [1.0] * 13}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--instance", str(path)]) == 2
        assert "13 atoms, above the limit of 12" in capsys.readouterr().err
        assert not (tmp_path / "wide.report.json").exists()

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--instance", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key, value", [
        ("seed", "abc"), ("seed", 1.5), ("seed", -1), ("tol", 0.0),
        ("tol", -1e-6), ("tol", float("inf")), ("tol", "small"),
        ("budget", 0), ("budget", -3), ("budget", 2.5), ("samples", 0),
        ("samples", "many"),
        # an integer beyond the float range is no finite number
        pytest.param("seed", 10 ** 400, id="seed-beyond-float"),
        pytest.param("tol", 10 ** 400, id="tol-beyond-float")])
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
        ("snorm-demo", "expect_saturated", "false"),
        ("snorm-demo", "xi", {"atoms": [{"h": [-0.1, 0.1], "mass": 1.0}]}),
        # dual norm 2·3^(1/4) > 1 in the dual of L^(4/3)(1, 2)
        ("snorm-demo", "xi", {"atoms": [{"h": [2.0, 2.0], "mass": 1.0}]}),
        ("check-space", "seed", -1), ("snorm-demo", "seed", -1),
        # numeric fields take JSON numbers only, not booleans or strings
        ("factorize", "p", True), ("factorize", "p", "1.5"),
        ("factorize", "measure", {"weights": ["1", "2"]}),
        ("check-space", "measure", {"weights": [1.0, True]}),
        pytest.param("check-space", "measure", {"weights": [10 ** 400, 1.0]},
                     id="check-space-weight-beyond-float"),
        ("factorize", "space", {"family": "lebesgue", "s": "2"}),
        ("factorize", "operator", {"matrix": [["1", 0.5], [0.0, 1.0]]}),
        ("factorize", "operator", {"matrix": [[1.0, 0.5], [0.0]]}),
        ("factorize", "operator", {"matrix": [[1.0, 0.5], [0.0, 1.0]],
                                   "codomain": {"family": "lebesgue",
                                                "s": True}}),
        ("factorize", "operator", {"matrix": [[1.0, 0.5], [0.0, 1.0]],
                                   "codomain": {"family": "lebesgue", "s": 2,
                                                "weights": ["1", "1"]}}),
        ("snorm-demo", "xi", {"atoms": [{"h": [0.5, 0.5], "mass": "1"}]}),
        ("snorm-demo", "xi", {"atoms": [{"h": ["0.5", 0.5], "mass": 1.0}]}),
        ("snorm-demo", "xi", {"atoms": [{"h": [0.5, 0.5], "mass": 1.0}],
                              "normalized": 1}),
        # normalized is a claim about the masses, checked against them
        ("snorm-demo", "xi", {"atoms": [{"h": [0.5, 0.5], "mass": 1.0}],
                              "normalized": False}),
        ("snorm-demo", "xi", {"atoms": [{"h": [0.5, 0.5], "mass": 0.7}],
                              "normalized": True})])
    def test_invalid_command_field_is_input_error(self, tmp_path, command,
                                                  key, value):
        doc = dict(field_document(), **{key: value})
        if key == "dirac":
            del doc["partition"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--instance", str(path)]) == 2
        assert not (tmp_path / "bad.report.json").exists()

    def test_fields_are_parsed_before_the_solve(self, tmp_path):
        # a budget of one stops the solve unconverged, where the runner
        # used to skip reading samples
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(field_document(), budget=1,
                                        samples="many")))
        assert main(["kakutani", "--instance", str(path)]) == 2
        assert not (tmp_path / "bad.report.json").exists()

    def test_samples_are_checked_before_factorize_solves(self, monkeypatch):
        import latfact.cli
        calls = []
        solve = latfact.cli.find_domination_measure

        def spy(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(latfact.cli, "find_domination_measure", spy)
        with pytest.raises(InstanceError):
            run(Scenario(command="factorize",
                         instance=dict(identity_instance(), samples=0)))
        assert calls == []

    @pytest.mark.parametrize("command", ["check-space", "lemma-verify",
                                         "snorm-demo", "factorize",
                                         "kakutani"])
    def test_field_document_is_valid(self, tmp_path, command):
        # each invalid-field case changes one field of this document
        path = tmp_path / "good.json"
        path.write_text(json.dumps(field_document()))
        assert main([command, "--instance", str(path)]) == 0

    @pytest.mark.parametrize("command", ["check-space", "snorm-demo",
                                         "factorize"])
    def test_negative_seed_flag_is_input_error(self, tmp_path, command):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(field_document()))
        assert main([command, "--instance", str(path), "--seed", "-1"]) == 2
        assert not (tmp_path / "doc.report.json").exists()

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
        T = parse_fields("constants", load_instance(paths[0])).operator
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

    def test_negative_seed_is_input_error(self, tmp_path):
        with pytest.raises(InstanceError):
            generate_instances("random-operator", count=1, n=2, seed=-1,
                               out_dir=tmp_path)
        assert main(["generate", "--kind", "random-operator", "--seed", "-1",
                     "--out-dir", str(tmp_path)]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_partition_xi_saturates(self, tmp_path):
        paths = generate_instances("partition-xi", count=3, n=4, seed=3,
                                   out_dir=tmp_path)
        for p in paths:
            doc = load_instance(p)
            sc = Scenario(command="snorm-demo", instance=doc)
            assert sc.fields.mixture.saturated

    def test_empty_space_is_input_error(self, tmp_path):
        with pytest.raises(InstanceError):
            generate_instances("lebesgue-space", count=1, n=0, seed=0,
                               out_dir=tmp_path)
        assert main(["generate", "--kind", "random-operator", "--n", "0",
                     "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("n", [2.5, True, 13])
    def test_n_that_is_no_atom_count_is_input_error(self, tmp_path, n):
        with pytest.raises(InstanceError):
            generate_instances("lebesgue-space", 1, n, 0, tmp_path)
        assert list(tmp_path.iterdir()) == []

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
