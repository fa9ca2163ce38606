import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modmark
from modmark.cli import main
from modmark.generators import KIND_SPECS, KINDS, GenSpec, build_channel
from modmark.markov import Channel, modular_commutation_residual
from modmark.serialize import (
    dumps_canonical,
    genspec_from_json,
    genspec_to_json,
    instance_to_json,
    matrix_from_json,
    read_instance,
    write_instance,
)
from modmark.verify import EXPECTED_FAIL_BY_KIND, POSITIVE_KINDS
from test_oracles import matrix_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_schur_instance(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        code, out, _ = run(capsys, "gen", "--kind", "schur", "--dims", "2",
                           "--seed", "7", "--params",
                           '{"c":[[1,0.5],[0.5,1]]}', "-o", str(path))
        assert code == 0
        assert "kind=schur" in out and "markov" in out
        ch, metadata = read_instance(path)
        assert metadata["genspec"]["kind"] == "schur"
        assert ch.superop.shape == (4, 4)

    def test_genspec_metadata_is_the_serialized_spec(self, tmp_path, capsys):
        path = tmp_path / "pinch.json"
        code, _, _ = run(capsys, "gen", "--kind", "pinch", "--dims", "2x2",
                         "--seed", "5", "--params", '{"min_gap": 0.1}', "-o", str(path))
        assert code == 0
        _, metadata = read_instance(path)
        spec = GenSpec("pinch", (2, 2), seed=5, params={"min_gap": 0.1})
        assert metadata["genspec"] == genspec_to_json(spec)

    def test_same_spec_same_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(capsys, "gen", "--kind", "schur", "--dims", "4",
                             "--seed", "3", "-o", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_identity_instance(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        code, _, _ = run(capsys, "gen", "--kind", "identity", "--dims", "3",
                         "-o", str(path))
        assert code == 0
        ch, _ = read_instance(path)
        assert np.allclose(ch.superop, np.eye(9))

    def test_missing_output_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "identity", "--dims", "2"])
        assert exc.value.code == 2

    def test_bad_params_json(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--kind", "schur", "--dims", "2",
                           "--params", "{oops", "-o", str(tmp_path / "x.json"))
        assert code == 2 and "params" in err

    def test_multiblock_dims_spellings(self, tmp_path, capsys):
        for text in ("2,2", "2x2"):
            path = tmp_path / f"m{text.replace(',', '_')}.json"
            code, _, _ = run(capsys, "gen", "--kind", "pinch", "--dims", text,
                             "-o", str(path))
            assert code == 0
            ch, _ = read_instance(path)
            assert ch.source.algebra.block_dims == (2, 2)


class TestVerify:
    def test_round_trip_gen_verify(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        run(capsys, "gen", "--kind", "identity", "--dims", "2", "-o", str(path))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "verdict: pass" in out

    def test_round_trip_loads_bit_identical(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        run(capsys, "gen", "--kind", "automorphism", "--dims", "3", "--seed",
            "5", "-o", str(path))
        first = json.loads(path.read_text())
        ch, _ = read_instance(path)
        assert np.array_equal(ch.superop, matrix_from_json(first["channel"]["superop"]))

    def test_negative_instance_exits_one(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        run(capsys, "gen", "--kind", "sp_ucp", "--dims", "2", "--seed", "11",
            "-o", str(path))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "thm_ii" in out and "FAIL" in out

    def test_json_output_schema(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        run(capsys, "gen", "--kind", "identity", "--dims", "2", "-o", str(path))
        code, out, _ = run(capsys, "verify", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"instance", "residuals", "tolerances", "verdicts"}
        assert doc["verdicts"]["thm_ii"] is True

    @pytest.mark.parametrize("kind,dims,seed", [("sp_ucp", "2", "4"), ("sp_ucp", "2x2", "1"),
                                                ("twirl", "3", "2")])
    def test_gen_show_and_verify_print_one_markov_modular(self, tmp_path, capsys,
                                                          kind, dims, seed):
        # membership is one residual whatever verify's t samples are
        path = tmp_path / "inst.json"
        _, gen_out, _ = run(capsys, "gen", "--kind", kind, "--dims", dims, "--seed", seed,
                            "-o", str(path))
        _, show_out, _ = run(capsys, "show", str(path))
        _, verify_out, _ = run(capsys, "verify", str(path))
        _, json_out, _ = run(capsys, "verify", str(path), "--json")

        def printed(out, label):
            return [line.strip()[len(label):].split()[0]
                    for line in out.splitlines() if line.strip().startswith(label)]

        value = f"{json.loads(json_out)['residuals']['markov_modular']:.3e}"
        assert printed(gen_out, "markov modular") == [value]
        assert printed(show_out, "markov modular") == [value]
        assert printed(verify_out, "markov_modular") == [value]

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"version": "1"}')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and "malformed" in err

    @pytest.mark.parametrize("metadata", ['"abc"', "[1, 2]", '{"flags": 5}',
                                          '{"flags": [1]}'])
    @pytest.mark.parametrize("command", ["verify", "show"])
    def test_malformed_metadata_exits_two(self, tmp_path, capsys, command, metadata):
        good = tmp_path / "good.json"
        run(capsys, "gen", "--kind", "identity", "--dims", "2", "-o", str(good))
        doc = json.loads(good.read_text())
        doc["metadata"] = "META"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"META"', metadata))
        code, out, err = run(capsys, command, str(bad))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "error: malformed instance: metadata" in err

    def test_truncated_matrix_data_exits_two(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        run(capsys, "gen", "--kind", "identity", "--dims", "2", "-o", str(path))
        doc = json.loads(path.read_text())
        doc["channel"]["superop"]["data"] = doc["channel"]["superop"]["data"][:-4]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "malformed instance: matrix data holds" in err

    def test_shape_error_exits_four(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        run(capsys, "gen", "--kind", "identity", "--dims", "2", "-o", str(good))
        doc = json.loads(good.read_text())
        doc["channel"]["superop"] = [[[1.0, 0.0]]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 4 and "shape" in err

    def test_tolerance_env_override(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "neg.json"
        run(capsys, "gen", "--kind", "sp_ucp", "--dims", "2", "--seed", "11",
            "-o", str(path))
        monkeypatch.setenv("MODMARK_TOL", "1e3")  # absurdly loose: all pass
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0


    @pytest.mark.parametrize("big", ["1" + "0" * 400, "[1" + "0" * 400 + ", 0]"])
    def test_overflowing_integer_exits_two(self, tmp_path, capsys, big):
        good = tmp_path / "good.json"
        run(capsys, "gen", "--kind", "identity", "--dims", "1", "-o", str(good))
        text = good.read_text()
        doc = json.loads(text)
        doc["channel"]["superop"] = "BIG"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"BIG"', f"[[{big}]]"))
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "malformed instance" in err

    @pytest.mark.parametrize("payload", [b'{"version": "1", "channel": [[' + b"1" * 5000 + b"]]}",
                                         b"\xff\xfe{}"])
    def test_unreadable_text_exits_two(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "cannot read instance file" in err


@pytest.mark.parametrize("raw", ["loose", "0", "-1e-9", "nan"])
class TestBadToleranceEnv:
    def test_gen(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("MODMARK_TOL", raw)
        path = tmp_path / "inst.json"
        code, out, err = run(capsys, "gen", "--kind", "pinch", "--dims", "2",
                             "-o", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert err == f"error: MODMARK_TOL must be a positive number, got {raw!r}\n"

    def test_verify(self, tmp_path, capsys, monkeypatch, raw):
        path = tmp_path / "inst.json"
        run(capsys, "gen", "--kind", "pinch", "--dims", "2", "-o", str(path))
        monkeypatch.setenv("MODMARK_TOL", raw)
        code, out, err = run(capsys, "verify", str(path), "--json")
        assert code == 2 and out == ""
        assert err == f"error: MODMARK_TOL must be a positive number, got {raw!r}\n"

    def test_suite(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("MODMARK_TOL", raw)
        out_dir = tmp_path / "suite"
        code, out, err = run(capsys, "suite", "--trials", "1", "--out", str(out_dir))
        assert code == 2 and out == "" and not out_dir.exists()
        assert err == f"error: MODMARK_TOL must be a positive number, got {raw!r}\n"


class TestGenRefusedPrecondition:
    def test_twirl_at_a_tolerance_below_roundoff(self, tmp_path, capsys, monkeypatch):
        # the twirl's input passes unital and state only to roundoff, ~1e-17:
        # at 1e-20 its gate refuses it, naming both, and gen writes nothing
        monkeypatch.setenv("MODMARK_TOL", "1e-20")
        path = tmp_path / "twirl.json"
        code, out, err = run(capsys, "gen", "--kind", "twirl", "--dims", "3", "-o", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unital residual" in err and "state residual" in err


class TestOverflowingInstance:
    def test_verify_fails_every_markov_key_without_a_warning(self, tmp_path, capsys):
        # a superoperator scaled by 1e200: every markov_* key fails with no
        # RuntimeWarning (pytest makes any warning an error).  The squares
        # of unital, cp and state overflow and read inf; markov_modular's
        # norm is finite (~1e185), and its bounds overflowing, it reads the
        # dense SVD of its masked product
        ch = build_channel(GenSpec("schur", (2,), 1)).channel
        path = tmp_path / "big.json"
        write_instance(path, Channel(ch.source, ch.target, ch.superop * 1e200), {"seed": 1})
        code, out, err = run(capsys, "verify", str(path), "--json")
        assert code == 1 and err == ""
        report = json.loads(out)
        for key in ("markov_unital", "markov_cp", "markov_state", "markov_modular"):
            assert report["verdicts"][key] is False
        for key in ("markov_unital", "markov_cp", "markov_state"):
            assert report["residuals"][key] == float("inf")
        modular = report["residuals"]["markov_modular"]
        assert 1e180 < modular < float("inf")
        assert modular == modular_commutation_residual(read_instance(path)[0])


class TestGenNoConvergence:
    @pytest.fixture
    def refusing(self, monkeypatch):
        import modmark.generators as gens
        from modmark.errors import NoConvergence

        def refuse(source, target, seed, **kwargs):
            raise NoConvergence("eigendecomposition misses its accuracy contract")

        monkeypatch.setattr(gens, "sp_ucp", refuse)

    def test_exit_three_without_file(self, tmp_path, capsys, refusing):
        for kind in ("sp_ucp", "twirl"):
            path = tmp_path / f"{kind}.json"
            code, out, err = run(capsys, "gen", "--kind", kind, "--dims", "2",
                                 "-o", str(path))
            assert code == 3
            assert out == ""
            assert err.count("\n") == 1 and err.startswith("error:")
            assert not path.exists()

    def test_suite_exit_three_without_files(self, tmp_path, capsys, refusing):
        out_dir = tmp_path / "suite"
        code, out, err = run(capsys, "suite", "--trials", "2", "--dims", "2",
                             "--kinds", "identity,sp_ucp", "--out", str(out_dir))
        assert code == 3
        assert out == "" and err.count("\n") == 1
        assert not out_dir.exists()

    def test_verify_exit_three(self, tmp_path, capsys, monkeypatch):
        import modmark.cli as cli
        from modmark.errors import NoConvergence

        path = tmp_path / "id.json"
        run(capsys, "gen", "--kind", "identity", "--dims", "2", "-o", str(path))

        def refuse(*args, **kwargs):
            raise NoConvergence("eigensolver iteration budget exhausted")

        monkeypatch.setattr(cli, "verify_channel", refuse)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 3
        assert out == "" and err.count("\n") == 1


class TestGenRefusals:
    @pytest.mark.parametrize("argv", [
        ("--kind", "schur", "--dims", "2x2"),
        ("--kind", "schur", "--dims", "3", "--params", '{"c": [[1,0],[0,1]]}'),
        ("--kind", "pinch", "--dims", "2", "--params", '{"min_gap": 2}'),
        ("--kind", "state_to_scalar", "--dims", "2", "--params", '{"target_dims": [0]}'),
        # params of the wrong JSON type
        ("--kind", "state_to_scalar", "--dims", "2", "--params", '{"target_dims": 3}'),
        ("--kind", "state_to_scalar", "--dims", "2", "--params", '{"min_gap": null}'),
        ("--kind", "twirl", "--dims", "2", "--params", '{"min_gap": null}'),
        ("--kind", "schur", "--dims", "2", "--params", '{"c": {"a": 1}}'),
        # a key the kind does not read
        ("--kind", "twirl", "--dims", "3", "--params", '{"min-gap": 0.5}'),
    ], ids=["schur-multiblock", "schur-misfit-c", "min-gap", "target-dims",
            "target-dims-int", "min-gap-null", "twirl-min-gap-null", "schur-c-dict",
            "twirl-unknown-key"])
    def test_exit_two_without_file(self, tmp_path, capsys, argv):
        path = tmp_path / "inst.json"
        code, out, err = run(capsys, "gen", *argv, "-o", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize("gap", ["1.5", "1", "-0.1", "nan", "wide"])
    def test_suite_min_gap_outside_unit_interval(self, tmp_path, capsys, gap):
        out_dir = tmp_path / "suite"
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--trials", "1", "--min-gap", gap, "--out", str(out_dir)])
        assert exc.value.code == 2 and not out_dir.exists()
        assert "[0, 1)" in capsys.readouterr().err

    def test_suite_min_gap_zero_accepted(self, capsys):
        code, _, _ = run(capsys, "suite", "--trials", "2", "--dims", "2",
                         "--min-gap", "0", "--seed", "3")
        assert code == 0


class TestSampleCountFlags:
    @pytest.mark.parametrize("flag", ["--t-samples", "--z-samples"])
    @pytest.mark.parametrize("count", ["0", "-1", "-2", "two"])
    def test_non_positive_count_is_usage_error(self, tmp_path, capsys, flag, count):
        path = tmp_path / "id.json"
        run(capsys, "gen", "--kind", "identity", "--dims", "2", "-o", str(path))
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(path), flag, count])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_single_samples_verify(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        run(capsys, "gen", "--kind", "schur", "--dims", "3", "--seed", "2",
            "-o", str(path))
        code, out, _ = run(capsys, "verify", str(path), "--t-samples", "1",
                           "--z-samples", "1")
        assert code == 0 and "verdict: pass" in out


class TestSRangeFlag:
    def test_space_separated_negative_range(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        run(capsys, "gen", "--kind", "identity", "--dims", "2", "-o", str(path))
        code, _, _ = run(capsys, "verify", str(path), "--s-range", "-1:1")
        assert code == 0

    def test_full_power_range_verifies(self, tmp_path, capsys):
        path = tmp_path / "schur.json"
        run(capsys, "gen", "--kind", "schur", "--dims", "2", "-o", str(path))
        code, out, _ = run(capsys, "verify", str(path), "--s-range", "-2:2")
        assert code == 0 and "verdict: pass" in out

    @pytest.mark.parametrize("bounds", ["-3:3", "-2.5:0", "nan:1"])
    def test_bound_beyond_power_range_is_usage_error(self, tmp_path, capsys, bounds):
        path = tmp_path / "schur.json"
        run(capsys, "gen", "--kind", "schur", "--dims", "2", "-o", str(path))
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(path), "--s-range", bounds])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "|s| <= 2.0" in err and "Traceback" not in err


class TestClosedPipe:
    def test_reader_closing_after_first_line_exits_141_quietly(self):
        # the --json report is larger than a pipe holds, so the writer is
        # still writing when the reader closes; without PYTHONUNBUFFERED the
        # write goes through a buffered stream, which reports the closed pipe
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(modmark.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        with subprocess.Popen(
                [sys.executable, "-m", "modmark", "suite", "--trials", "60",
                 "--seed", "42", "--json"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        assert err == b""


class TestSuite:
    def test_small_suite_exit_zero(self, capsys):
        code, out, _ = run(capsys, "suite", "--trials", "6", "--dims", "2,3",
                           "--seed", "1")
        assert code == 0
        assert "unexpected" in out

    def test_sp_ucp_expected_failures_keep_exit_zero(self, capsys):
        code, out, _ = run(capsys, "suite", "--trials", "3", "--kinds",
                           "sp_ucp", "--dims", "2", "--seed", "2")
        assert code == 0
        assert "expected failures" in out and "thm_ii" in out

    def test_kind_aliases(self, capsys):
        code, _, _ = run(capsys, "suite", "--trials", "3", "--kinds",
                         "scalar,auto", "--dims", "2", "--seed", "0")
        assert code == 0

    def test_unknown_kind(self, capsys):
        code, _, err = run(capsys, "suite", "--trials", "2", "--kinds", "bogus")
        assert code == 2 and "unknown kind" in err

    @pytest.mark.parametrize("kinds", ["schur", "identity,schur"])
    def test_kind_without_fitting_dims(self, tmp_path, capsys, kinds):
        out_dir = tmp_path / "DIR"
        code, out, err = run(capsys, "suite", "--kinds", kinds, "--dims", "2x2",
                             "--out", str(out_dir))
        assert code == 2 and out == ""
        assert err == "error: kind schur fits none of the dims 2x2\n"
        assert not out_dir.exists()

    def test_only_the_dims_refusal_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # run_suite refuses before the first trial, and that refusal alone
        # maps to exit 2: a ValueError inside a trial propagates
        import modmark.verify as verify

        def refuse(spec):
            raise ValueError("refused inside a trial")

        monkeypatch.setattr(verify, "build_channel", refuse)
        code, _, err = run(capsys, "suite", "--kinds", "identity,schur", "--dims", "2x2")
        assert code == 2 and err == "error: kind schur fits none of the dims 2x2\n"
        out_dir = tmp_path / "DIR"
        with pytest.raises(ValueError, match="inside a trial"):
            main(["suite", "--trials", "1", "--dims", "2", "--out", str(out_dir)])
        assert not out_dir.exists()

    def test_kind_without_fitting_dims_that_never_runs(self, capsys):
        # one trial runs identity only; the refusal names kinds that would run
        code, _, _ = run(capsys, "suite", "--trials", "1", "--kinds", "identity,schur",
                         "--dims", "2x2,3x1")
        assert code == 0

    def test_out_dir_persists_instances(self, tmp_path, capsys):
        out_dir = tmp_path / "instances"
        code, _, _ = run(capsys, "suite", "--trials", "2", "--dims", "2",
                         "--kinds", "identity,schur", "--seed", "4",
                         "--out", str(out_dir))
        assert code == 0
        files = sorted(out_dir.glob("*.json"))
        assert len(files) == 2
        for f in files:
            ch, metadata = read_instance(f)
            assert "genspec" in metadata

    def test_out_builds_each_channel_once(self, tmp_path, capsys, monkeypatch):
        import modmark.cli as cli
        import modmark.verify as verify

        calls = []

        def counting(spec):
            calls.append(spec)
            return build_channel(spec)

        monkeypatch.setattr(verify, "build_channel", counting)
        monkeypatch.setattr(cli, "build_channel", counting)
        out_dir = tmp_path / "instances"
        code, _, _ = run(capsys, "suite", "--trials", "5", "--dims", "2,2x2",
                         "--seed", "6", "--out", str(out_dir))
        assert code == 0 and len(calls) == 5
        files = sorted(out_dir.glob("*.json"))
        assert len(files) == 5
        for f in files:
            genspec = json.loads(f.read_text())["metadata"]["genspec"]
            spec = genspec_from_json(genspec)
            built = build_channel(spec)
            rebuilt = instance_to_json(built.channel, {
                "seed": spec.seed, "genspec": genspec, "flags": list(built.flags)})
            assert f.read_text() == dumps_canonical(rebuilt)

    def test_json_deterministic(self, capsys):
        args = ("suite", "--trials", "4", "--seed", "9", "--dims", "2", "--json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert "suite_summary" in doc and "reports" in doc


class TestShow:
    def test_old_twirl_file_with_base_params_still_reads(self, tmp_path, capsys):
        # twirl files written before build_channel refused unread keys carry
        # base_kind/base_params in their genspec; verify and show only read it
        path = tmp_path / "twirl.json"
        run(capsys, "gen", "--kind", "twirl", "--dims", "2", "--seed", "4", "-o", str(path))
        doc = json.loads(path.read_text())
        doc["metadata"]["genspec"]["params"].update(
            base_kind="sp_ucp", base_params={"min_gap": 0.05})
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and "kind=twirl" in out
        code, out, _ = run(capsys, "show", str(path))
        assert code == 0 and "base_params" in out

    def test_show_instance(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        run(capsys, "gen", "--kind", "pinch", "--dims", "2", "-o", str(path))
        code, out, _ = run(capsys, "show", str(path))
        assert code == 0
        assert "source" in out and "superop" in out

    def test_version_line_is_the_files(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        run(capsys, "gen", "--kind", "schur", "--dims", "2", "--seed", "7", "-o", str(path))
        code, out, _ = run(capsys, "show", str(path))
        assert code == 0
        assert out.splitlines()[0] == f"instance file {path} (version 2)"
        # the same channel as a version "1" file: nested-list matrices
        ch, _ = read_instance(path)
        doc = json.loads(path.read_text())
        doc["version"] = "1"
        doc["channel"]["superop"] = matrix_to_json(ch.superop)
        for end, system in (("source", ch.source), ("target", ch.target)):
            doc["channel"][end]["state"]["density"] = [
                matrix_to_json(b) for b in system.state.density.blocks]
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(doc))
        code, out_v1, _ = run(capsys, "show", str(v1))
        assert code == 0
        assert out_v1.splitlines()[0] == f"instance file {v1} (version 1)"
        assert out_v1.splitlines()[1:] == out.splitlines()[1:]


class TestKindTable:
    def test_pins_suite_bytes_and_cli_messages(self):
        # suite bytes follow the kinds' order, the dims each kind fits, the
        # expected-failure lists and each kind's params; the CLI prints the
        # params tuple as is
        assert KINDS == ("identity", "schur", "pinch", "block_expectation",
                         "state_to_scalar", "automorphism", "twirl", "sp_ucp", "convex")
        assert POSITIVE_KINDS == ("identity", "schur", "pinch", "block_expectation",
                                  "state_to_scalar", "automorphism", "twirl", "convex")
        assert [kind for kind in KINDS if not KIND_SPECS[kind].fits((2, 2))] == ["schur"]
        assert EXPECTED_FAIL_BY_KIND == {"sp_ucp": frozenset({
            "markov_modular", "eq32_t", "thm_i_s", "thm_commute_z", "thm_ii",
            "adjoint_consistency", "petz_match"})}
        accepted = {"schur": "('min_gap', 'c')", "state_to_scalar": "('min_gap', 'target_dims')"}
        for kind in KINDS:
            with pytest.raises(ValueError) as exc:
                build_channel(GenSpec(kind, (2,), params={"min_gap": 0.1, "bogus": 1}))
            assert str(exc.value) == (f"kind {kind!r} takes no param 'bogus'; accepted: "
                                      f"{accepted.get(kind, repr(('min_gap',)))}")


# Drives every command over every kind on every dims it fits in one fresh
# interpreter, then lists the scipy modules it holds.  The library is numpy
# only; scipy is for tests.
CLI_RUN = """
import json, sys
from modmark.cli import main
from modmark.generators import KIND_SPECS, KINDS
out = sys.argv[1]
codes = {}
for kind, spec in KIND_SPECS.items():
    for dims in ("3", "2x2"):
        if not spec.fits(tuple(map(int, dims.split("x")))):
            continue
        path = f"{out}/{kind}-{dims}.json"
        codes[path] = [main(["gen", "--kind", kind, "--dims", dims, "--seed", "3",
                             "-o", path]),
                       main(["verify", path]), main(["show", path])]
codes["suite"] = main(["suite", "--trials", str(2 * len(KINDS)), "--seed", "1",
                       "--kinds", ",".join(KINDS), "--dims", "3,2x2",
                       "--out", f"{out}/suite"])
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


class TestRuntimeImports:
    def test_cli_run_loads_no_scipy(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(modmark.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", CLI_RUN, str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=300,
                              check=False)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["scipy"] == []
        codes = result["codes"]
        assert codes.pop("suite") == 0
        assert len(codes) == sum(spec.fits(dims) for spec in KIND_SPECS.values()
                                 for dims in ((3,), (2, 2)))
        for path, (gen, verify, show) in codes.items():
            negative = not KIND_SPECS[Path(path).stem.rsplit("-", 1)[0]].flow_compatible
            assert (gen, verify, show) == (0, 1 if negative else 0, 0), path
        assert len(list((tmp_path / "suite").glob("*.json"))) == 2 * len(KINDS)
