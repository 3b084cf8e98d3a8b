"""The output-schema checker rejects what the shipped schemas forbid."""

import json

import pytest
from jsonschema import SchemaError, ValidationError

import schema_check
from schema_check import validate_file

RESIDUALS = dict.fromkeys(["fixed_point_res", "div_res", "ode_res", "bc_res_0", "bc_res_1",
                           "mom_x_res", "mom_y_res", "lambda", "xi"], 0.5) | {"iters": 5}
ESCAPE = {"T": 3.0, "Lambda": 1.2, "variant": "A"}
CRITICAL = {"mu_c_closed": 0.1, "mu_c_numerical": 0.1, "xi_c": 0.0, "C0": 1.0,
            "C1": None, "C2": None, "band": [0.0, 10.0]}


def _write(tmp_path, payload):
    path = tmp_path / "out.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("schema, payload", [
    ("mode_residuals.schema.json", RESIDUALS),
    ("escape.schema.json", ESCAPE),
    ("critical.schema.json", CRITICAL),
])
def test_accepts_valid_payload(tmp_path, schema, payload):
    assert validate_file(_write(tmp_path, payload), schema) == payload


@pytest.mark.parametrize("schema, payload", [
    # JSON writes 5.0 for a float count; only a Python int (not a bool) is an integer
    pytest.param("mode_residuals.schema.json", RESIDUALS | {"iters": 5.0}, id="float-iters"),
    pytest.param("mode_residuals.schema.json", RESIDUALS | {"iters": True}, id="bool-iters"),
    pytest.param("mode_residuals.schema.json", RESIDUALS | {"lambda": True}, id="bool-lambda"),
    pytest.param("mode_residuals.schema.json", RESIDUALS | {"extra": 1.0}, id="extra-key"),
    pytest.param("mode_residuals.schema.json", {k: v for k, v in RESIDUALS.items() if k != "xi"},
                 id="missing-key"),
    pytest.param("escape.schema.json", ESCAPE | {"variant": "C"}, id="variant-C"),
    pytest.param("critical.schema.json", CRITICAL | {"band": [0.0, 5.0, 10.0]},
                 id="three-item-band"),
])
def test_rejects_invalid_payload(tmp_path, schema, payload):
    with pytest.raises(ValidationError):
        validate_file(_write(tmp_path, payload), schema)


def test_enforces_every_draft7_keyword(tmp_path, monkeypatch):
    # keywords no shipped schema uses yet are checked too, and so is the schema
    monkeypatch.setattr(schema_check, "SCHEMA_DIR", tmp_path)
    (tmp_path / "min.schema.json").write_text('{"type": "number", "minimum": 0}')
    assert validate_file(_write(tmp_path, 0), "min.schema.json") == 0
    with pytest.raises(ValidationError):
        validate_file(_write(tmp_path, -1), "min.schema.json")
    (tmp_path / "bad.schema.json").write_text('{"type": "integr"}')
    with pytest.raises(SchemaError):
        validate_file(_write(tmp_path, 0), "bad.schema.json")
