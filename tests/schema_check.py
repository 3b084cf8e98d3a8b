"""Validate the CLI's JSON outputs against the draft-07 schemas in schemas/."""

import json
import pathlib

import jsonschema

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "schemas"

# Draft 7 counts 5.0 as an integer; the outputs write every count as a Python int
_TYPES = jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
    "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool))
Validator = jsonschema.validators.extend(jsonschema.Draft7Validator, type_checker=_TYPES)


def validate_file(json_path, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text(encoding="utf-8"))
    obj = json.loads(pathlib.Path(json_path).read_text(encoding="utf-8"))
    jsonschema.validate(obj, schema, cls=Validator)  # runs check_schema first
    return obj
