"""Compiled modules list exports in declaration order.

Export order reaches every recorded snap (the snap embeds its modules)
and so the archive bytes.  It must not follow the interpreter's
string-hash seed: the same program compiled under two different
``PYTHONHASHSEED`` values must give the same module and the same
compressed snap.
"""

import json
import os
import subprocess
import sys

from repro.lang.minic import compile_source

SOURCE = """
int helper(int x) { return x + 1; }
int other(int x) { return helper(x) * 2; }
int main() { return 10 / (other(1) - 4); }
"""

#: Compiles SOURCE, runs it to its divide-by-zero snap, and prints the
#: module document and the compressed snap bytes.
SCRIPT = f"""
import json
from repro.api import TraceSession
from repro.lang.minic import compile_source
from repro.runtime import RuntimeConfig, SnapPolicy
from repro.runtime.archive import compress_snap

source = {SOURCE!r}
module = compile_source(source, "three", file_name="three.c")
session = TraceSession(
    process_name="three",
    runtime_config=RuntimeConfig(policy=SnapPolicy.parse("snap on unhandled")),
)
session.add_minic(source, name="three", file_name="three.c")
snap = session.run(max_cycles=1_000_000).snap
print(json.dumps({{
    "module": module.to_dict(),
    "archive": compress_snap(snap).hex(),
}}))
"""


def compile_under(hash_seed: str) -> dict:
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


def test_exports_follow_declaration_order():
    module = compile_source(SOURCE, "three", file_name="three.c")
    assert list(module.exports) == ["helper", "other", "main"]


def test_module_and_archive_independent_of_hash_seed():
    first, second = compile_under("1"), compile_under("3")
    assert list(first["module"]["exports"]) == ["helper", "other", "main"]
    assert first["module"] == second["module"]
    assert first["archive"] == second["archive"]
