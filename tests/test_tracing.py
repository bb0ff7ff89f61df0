"""The benchmark's tracer against the library it wraps.

`perfbench/tracing.install()` replaces module attributes for the whole
process, so it runs in a subprocess: one request of each command there,
traced, must give the exit code, report and export of the same request run
here untraced, with the wall time masked.  A library change that drops a
name the tracer reads fails here, not first in a traced benchmark run.
"""
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

from opwords.cli import main

ROOT = Path(__file__).resolve().parents[1]

REQUESTS = [
    ["gen", "--operad", "fcat1", "--max-arity", "6", "--out", "fcat1.jsonl"],
    ["dims", "--operad", "schr", "--max-arity", "6"],
    ["check", "axioms", "--monoid", "N2", "--max-arity", "2"],
    ["check", "characterization", "--operad", "da", "--max-arity", "6"],
    ["check", "characterization", "--operad", "pw", "--max-arity", "5"],
    ["check", "relations", "--operad", "motz"],
    ["check", "presentation", "--operad", "comp", "--max-arity", "5"],
    ["check", "bijections", "--operad", "schr", "--max-arity", "4"],
    ["check", "functor", "--max-arity", "3"],
    # the second of each pair is served from what the first one kept
    ["check", "bijections", "--operad", "comp", "--max-arity", "5"],
    ["check", "bijections", "--operad", "comp", "--max-arity", "3"],
    ["check", "characterization", "--operad", "da", "--max-arity", "6"],
    ["check", "characterization", "--operad", "da", "--max-arity", "4"],
]

# the text tail "pass (0.12s)" and the JSON field "seconds": 0.123
SECONDS = re.compile(r"\(\d+\.\d+s\)$|\"seconds\": [0-9.]+", re.M)

TRACED = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import tracing
tracer = tracing.install()
import opwords.cli
results = []
for argv in json.loads(sys.argv[3]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = opwords.cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"results": results, "trace": tracer.dump()}))
"""


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, SECONDS.sub("?", out.getvalue()), err.getvalue()]


def test_traced_requests_report_as_untraced_ones(tmp_path, monkeypatch):
    runs = [argv + flag for argv in REQUESTS for flag in ([], ["--json"])]
    (tmp_path / "traced").mkdir()
    done = subprocess.run(
        [sys.executable, "-c", TRACED, str(ROOT / "src"), str(ROOT / "perfbench"),
         json.dumps(runs)],
        cwd=tmp_path / "traced", capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout)
    (tmp_path / "plain").mkdir()
    monkeypatch.chdir(tmp_path / "plain")
    for argv, (code, out, err) in zip(runs, traced["results"]):
        assert [code, SECONDS.sub("?", out), err] == run(argv), argv
        assert code == 0, argv
    export = "fcat1.jsonl"
    assert (tmp_path / "traced" / export).read_bytes() == Path(export).read_bytes()
    # the wrappers saw the layers they wrap
    counts = traced["trace"]["counts"]
    for name in ("generation.closure_calls", "generation.words_out", "families.da_calls",
                 "families.da_hits", "families.enumerated", "families.view_calls",
                 "words.axiom_checks", "words.splices"):
        assert counts[name] > 0, name
    spans = {span[0] for span in traced["trace"]["spans"]}
    assert {"cli.main", "generation.closure", "generation.compare", "generation.quotient",
            "families.closure", "families.enumerate", "families.views", "words.axioms",
            "presentations.verify"} <= spans
