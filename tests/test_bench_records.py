"""Every committed BENCH_*.json record says where and from what it was
measured, and the scripts it embeds are Python that compiles."""
import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def embedded_scripts(node, path="$"):
    """(path, source) of every ``script`` in a record: a {"name", "source"}
    object, or the source as one string."""
    if isinstance(node, dict):
        for key, value in node.items():
            here = f"{path}.{key}"
            if key == "script":
                yield here, value["source"] if isinstance(value, dict) else value
            else:
                yield from embedded_scripts(value, here)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from embedded_scripts(value, f"{path}[{i}]")


def test_the_records_are_found():
    # an empty glob would leave the test below with no cases to fail
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_bench_record_is_complete(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    assert isinstance(record, dict)
    assert record.get("machine"), "names no machine"
    assert record.get("parent_commit"), "names no parent commit"
    assert "command" in record or "script" in record, "has neither a command nor a script"
    for where, source in embedded_scripts(record):
        assert isinstance(source, str) and source.strip(), where
        compile(source, f"{os.path.basename(path)}:{where}", "exec")
