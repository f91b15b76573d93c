"""What the benchmark relies on, checked without running it.

The traced pass wraps glaw functions by module and name: perfbench/spans.py
lists them in LAYERS, and a renamed or moved function would only show up as a
failure of a traced benchmark run, so check here that every listed (module,
function) still resolves.  Its SIZES functions read the arguments and result
of a wrapped call (a Matrix's shape, a Tower's growth maps, an exit code), so
each is called here on one real call.  Every job that the benchmark expects to succeed is
replayed in-process through perfbench/child.py's own set-up and oracle, so a
report that no longer matches its digest in perfbench/digests.json fails here.
"""

import importlib
import importlib.util
import io
import re
import signal
import sys
import tokenize
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import glaw
from glaw import build_local, cli, gen_symplectic
from glaw.exactla import Matrix, rref
from glaw.tower import POSITIVE, grow

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_in_glaw():
    layers = load_spans().LAYERS
    assert layers
    for span_name, (module_name, functions) in layers.items():
        module = importlib.import_module(module_name)
        for fn_name in functions:
            fn = getattr(module, fn_name, None)
            assert callable(fn), f"{span_name}: {module_name}.{fn_name} is missing"


def code_names(path: Path) -> set[str]:
    """The names a module's code reads: its NAME tokens, leaving out the name each def or class defines
    (docstrings and comments are not NAME tokens)."""
    names, last = set(), None
    with path.open() as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type == tokenize.NAME and last not in ("def", "class"):
                names.add(tok.string)
            last = tok.string
    return names


def test_every_public_name_is_read_outside_the_tests():
    # read means a name token of the code of src/glaw (past the package's export list and the name's own
    # def or class), or a word-boundary match in demos/, in README.md or in a LAYERS entry; a name only
    # tests read is a helper
    layers = " ".join(f"{module} {' '.join(fns)}" for module, fns in load_spans().LAYERS.values())
    texts = [p.read_text() for p in (ROOT / "demos").glob("*.py")] + [(ROOT / "README.md").read_text(), layers]
    src = set().union(*(code_names(p) for p in (ROOT / "src" / "glaw").glob("*.py") if p.name != "__init__.py"))
    unread = [n for n in glaw.__all__ if n not in src and not any(re.search(rf"\b{n}\b", t) for t in texts)]
    assert unread == []


def test_every_size_reader_reads_one_real_call():
    spans = load_spans()
    sizes = spans.SIZES
    assert set(sizes) == {"exactla.rref", "tower.grow", "cli.main"}
    assert set(sizes) <= set(spans.LAYERS)
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    assert sizes["exactla.rref"]((m,), rref(m)) == {"cells": 6}
    # the g2 cubic grows [4, 1, 0] from 16 and 4 candidates: kept 1 + 0 of 20
    args = (build_local(gen_symplectic(2, 3, 1, "g2")), POSITIVE, 4)
    assert sizes["tower.grow"](args, grow(*args)) == {"kept": 1, "candidates": 20}
    for argv, refusals in (
        (["gen", "cartan", "--matrix", "2,-1;-1,2"], 0),
        (["gen", "cartan", "--matrix", "2,-1;-1,2", "--symmetrizer=0,1"], 1),
    ):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert sizes["cli.main"]((argv,), code) == {"refusals": refusals}


def load_perfbench(*names: str) -> list:
    """Modules of perfbench/, which import their siblings by plain name."""
    sys.path.insert(0, str(SPANS.parent))
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path.remove(str(SPANS.parent))


@pytest.mark.parametrize("name", ["grow-wide", "assemble-deep", "pn-scan", "cli-mix"])
def test_every_benchmark_job_reproduces_its_recorded_report(name, tmp_path, monkeypatch):
    # each exit-0 job once, under its workload's degree cap: a changed report byte fails here, not only in the benchmark
    child, workloads = load_perfbench("child", "workloads")
    workload = workloads.WORKLOADS[name]
    previous = signal.signal(signal.SIGALRM, child._on_alarm)
    try:
        paths = child.set_up(cli, workload, tmp_path)
        monkeypatch.setenv("GLAW_MAX_DEGREE", workload.glaw_max_degree)
        jobs = [workloads.JOBS[j] for j in workload.mix if workloads.JOBS[j].exit == 0]
        assert jobs
        for job in jobs:
            rc, out, err, _, _ = child.run_cli(cli, [child._fill(a, paths) for a in job.argv], child.JOB_LIMIT_S)
            assert child.check(job, rc, out, err) is None, job.name
    finally:
        signal.signal(signal.SIGALRM, previous)
