import json

import numpy as np
import pytest

from modmark.cli import main
from modmark.generators import GenSpec
from modmark.serialize import genspec_to_json, matrix_from_json, read_instance


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

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"version": "1"}')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and "malformed" in err

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


class TestGenNoConvergence:
    def test_exit_three_with_flagged_file(self, tmp_path, capsys, monkeypatch):
        import modmark.generators as gens
        from modmark.errors import NoConvergence

        def stall(source, target, seed, **kwargs):
            raise NoConvergence("stalled", payload=gens.identity_channel(source))

        monkeypatch.setattr(gens, "sp_ucp", stall)
        path = tmp_path / "stalled.json"
        code, out, _ = run(capsys, "gen", "--kind", "sp_ucp", "--dims", "2",
                           "-o", str(path))
        assert code == 3
        assert "flagged" in out
        ch, metadata = read_instance(path)  # file still written
        assert metadata["flags"] == ["no_convergence"]


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

    def test_json_deterministic(self, capsys):
        args = ("suite", "--trials", "4", "--seed", "9", "--dims", "2", "--json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert "suite_summary" in doc and "reports" in doc


class TestShow:
    def test_show_instance(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        run(capsys, "gen", "--kind", "pinch", "--dims", "2", "-o", str(path))
        code, out, _ = run(capsys, "show", str(path))
        assert code == 0
        assert "source" in out and "superop" in out
