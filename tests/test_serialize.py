import base64
import json

import numpy as np
import pytest

from modmark.algebra import AlgebraElement, BlockAlgebra, FaithfulState, random_element
from modmark.errors import MalformedInstance, ShapeMismatch
from modmark.generators import GenSpec, random_faithful_state, schur_channel
from modmark.markov import System, identity_channel
from modmark.serialize import (
    algebra_from_json,
    algebra_to_json,
    channel_from_json,
    channel_to_json,
    dumps_canonical,
    element_from_json,
    element_to_json,
    genspec_from_json,
    genspec_to_json,
    instance_from_json,
    instance_to_json,
    matrix_from_json,
    read_instance,
    report_to_json,
    state_from_json,
    state_to_json,
    write_instance,
)
from modmark.verify import verify_channel
from test_oracles import matrix_to_json

M2 = BlockAlgebra((2,))


def qubit_system():
    return System(FaithfulState(AlgebraElement(M2, [np.diag([2 / 3, 1 / 3])])))


class TestMatrixJson:
    def test_round_trip_full_precision(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        doc = json.loads(json.dumps(matrix_to_json(m)))
        back = matrix_from_json(doc)
        assert np.array_equal(back, m)  # bit identical through repr floats

    def test_accepts_bare_numbers(self):
        m = matrix_from_json([[1, 0.5], [0.5, 1]])
        assert np.array_equal(m, np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_rejects_ragged(self):
        with pytest.raises(MalformedInstance):
            matrix_from_json([[1, 2], [3]])

    def test_rejects_bad_entries(self):
        with pytest.raises(MalformedInstance):
            matrix_from_json([[["x", 0]]])
        with pytest.raises(MalformedInstance):
            matrix_from_json([[[1, 2, 3]]])

    def test_rejects_empty(self):
        with pytest.raises(MalformedInstance):
            matrix_from_json([])

    @pytest.mark.parametrize("m", [[[10 ** 400]], [[[10 ** 400, 0]]], [[[0.5, -10 ** 400]]],
                                   [[1.0, 10 ** 309]]])
    def test_rejects_overflowing_integers(self, m):
        with pytest.raises(MalformedInstance, match="does not fit in a float"):
            matrix_from_json(m)


class TestStructuredJson:
    def test_algebra_round_trip(self):
        alg = BlockAlgebra((3, 1))
        assert algebra_from_json(algebra_to_json(alg)) == alg

    def test_algebra_validation(self):
        with pytest.raises(MalformedInstance):
            algebra_from_json({"blocks": []})
        with pytest.raises(MalformedInstance):
            algebra_from_json({"blocks": [2.5]})
        with pytest.raises(MalformedInstance):
            algebra_from_json([2])

    def test_element_round_trip(self):
        alg = BlockAlgebra((2, 3))
        x = random_element(alg, 5)
        back = element_from_json(alg, element_to_json(x))
        assert all(np.array_equal(a, b) for a, b in zip(back.blocks, x.blocks))

    def test_element_shape_error(self):
        with pytest.raises(ShapeMismatch):
            element_from_json(M2, [[[[1, 0]]]])  # 1x1 block against dim 2

    def test_state_round_trip(self):
        state = random_faithful_state(BlockAlgebra((2, 2)), 3, 0.05)
        back = state_from_json(state.parent, state_to_json(state))
        assert back.density.allclose(state.density, atol=0)

    def test_state_must_be_faithful(self):
        doc = {"density": [matrix_to_json(np.diag([1.0, 0.0]))]}
        with pytest.raises(MalformedInstance):
            state_from_json(M2, doc)

    def test_genspec_round_trip(self):
        spec = GenSpec("schur", (2,), 7, {"c": [[1, 0.5], [0.5, 1]]})
        back = genspec_from_json(json.loads(json.dumps(genspec_to_json(spec))))
        assert back.kind == spec.kind and back.dims == spec.dims
        assert back.seed == spec.seed and back.params == spec.params


class TestChannelJson:
    def test_superop_round_trip(self):
        sys = qubit_system()
        ch = schur_channel(sys, np.array([[1.0, 0.5], [0.5, 1.0]]))
        back = channel_from_json(json.loads(json.dumps(channel_to_json(ch))))
        assert np.array_equal(back.superop, ch.superop)
        assert back.source.algebra == ch.source.algebra

    def test_kraus_form_accepted(self):
        sys = qubit_system()
        doc = channel_to_json(identity_channel(sys))
        del doc["superop"]
        doc["kraus"] = [matrix_to_json(np.eye(2))]
        back = channel_from_json(doc)
        assert np.allclose(back.superop, np.eye(4))

    def test_needs_some_representation(self):
        doc = channel_to_json(identity_channel(qubit_system()))
        del doc["superop"]
        with pytest.raises(MalformedInstance):
            channel_from_json(doc)

    def test_superop_shape_error(self):
        doc = channel_to_json(identity_channel(qubit_system()))
        doc["superop"] = matrix_to_json(np.eye(3))
        with pytest.raises(ShapeMismatch):
            channel_from_json(doc)


class TestInstanceFile:
    def test_write_read_bit_identical(self, tmp_path):
        sys = qubit_system()
        ch = schur_channel(sys, np.array([[1.0, 0.5], [0.5, 1.0]]))
        path = tmp_path / "inst.json"
        write_instance(path, ch, {"seed": 7, "flags": ["a", "b"]})
        back, metadata = read_instance(path)
        assert np.array_equal(back.superop, ch.superop)
        assert all(np.array_equal(a, b) for a, b in zip(
            back.source.state.density.blocks, ch.source.state.density.blocks))
        assert metadata == {"seed": 7, "flags": ["a", "b"]}

    def test_version_gate(self):
        doc = instance_to_json(identity_channel(qubit_system()))
        for version in ("3", None):
            doc["version"] = version
            with pytest.raises(MalformedInstance, match="unsupported instance version"):
                instance_from_json(doc)

    def test_missing_channel(self):
        with pytest.raises(MalformedInstance):
            instance_from_json({"version": "1"})

    @pytest.mark.parametrize("metadata", ["abc", [1, 2], None, 5])
    def test_metadata_must_be_an_object(self, metadata):
        doc = instance_to_json(identity_channel(qubit_system()))
        doc["metadata"] = metadata
        with pytest.raises(MalformedInstance, match="metadata must be an object"):
            instance_from_json(doc)

    @pytest.mark.parametrize("flags", [5, "abc", [1], ["ok", None], {"a": "b"}])
    def test_metadata_flags_must_be_strings(self, flags):
        doc = instance_to_json(identity_channel(qubit_system()), {"flags": flags})
        with pytest.raises(MalformedInstance, match="flags must be a list of strings"):
            instance_from_json(doc)

    def test_unreadable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(MalformedInstance):
            read_instance(bad)


def _packed(a):
    return base64.b64encode(np.asarray(a, "<c16").tobytes()).decode("ascii")


def _non_finite(value):
    a = np.eye(4, dtype=np.complex128)
    a[1, 2] = value
    return _packed(a)


class TestBinaryMatrix:
    """Version "2" superoperators that must not load; the qubit's is 4x4."""

    @pytest.mark.parametrize("edit, error, match", [
        ({"dtype": "<c8"}, MalformedInstance, "dtype"),
        ({"dtype": ">c16"}, MalformedInstance, "dtype"),
        ({"shape": [16]}, MalformedInstance, "shape"),
        ({"shape": [0, 4]}, MalformedInstance, "shape"),
        ({"shape": [4.0, 4]}, MalformedInstance, "shape"),
        ({"shape": [True, 16]}, MalformedInstance, "shape"),
        ({"data": "AAAA*AAA"}, MalformedInstance, "not base64"),
        ({"data": "AAAA\nAAAA"}, MalformedInstance, "not base64"),
        ({"data": "\u00e9AAA"}, MalformedInstance, "not base64"),
        ({"data": None}, MalformedInstance, "base64 string"),
        (lambda m: {"data": m["data"][:-4]}, MalformedInstance, "holds 255 bytes"),
        (lambda m: {"data": m["data"][:-1]}, MalformedInstance, "not base64"),
        ({"data": _non_finite(np.nan)}, MalformedInstance, "finite"),
        ({"data": _non_finite(complex(0.0, -np.inf))}, MalformedInstance, "finite"),
        ({"shape": [2, 8]}, ShapeMismatch, "superop"),
    ], ids=["dtype_c8", "dtype_big_endian", "one_dim", "zero_rows", "float_rows",
            "bool_rows", "bad_char", "newline", "non_ascii", "no_string", "truncated",
            "bad_padding", "nan", "inf", "wrong_shape"])
    def test_refused(self, edit, error, match):
        doc = instance_to_json(identity_channel(qubit_system()))
        superop = doc["channel"]["superop"]
        superop.update(edit(superop) if callable(edit) else edit)
        with pytest.raises(error, match=match):
            instance_from_json(doc)


class TestReportJson:
    def test_schema_keys_present(self):
        sys = qubit_system()
        ch = schur_channel(sys, np.array([[1.0, 0.5], [0.5, 1.0]]))
        rep = verify_channel(ch, kind="schur", instance_id="r", seed=7)
        doc = report_to_json(rep)
        assert set(doc) == {"instance", "residuals", "tolerances", "verdicts",
                            "expected_failures", "unexpected_failures"}
        for key in ("eq32_t", "thm_i_s", "thm_ii", "thm_iii", "thm_commute_z",
                    "kadison_norm", "adjoint_consistency", "petz_match"):
            assert key in doc["residuals"]
        assert "timing" not in json.dumps(doc)

    def test_canonical_dump_is_stable(self):
        doc = {"b": 1.0 / 3.0, "a": [1e-17, 2.5]}
        assert dumps_canonical(doc) == dumps_canonical(json.loads(dumps_canonical(doc)))
