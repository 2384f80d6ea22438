"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import resource
import sys
from dataclasses import replace

import pytest

import run as bench
import tracer
import workloads


def _argv(command, path, window):
    return [command, str(path)] + (["--window", window] if window else [])


@pytest.mark.parametrize("command, base, window", [
    ("cohomology", "m2", "0..1"),
    ("cohomology", "koszul_dga", "0..2"),
    ("cyclic", "dual_numbers", "0..3"),
    ("cyclic", "gl2", "0..4"),
    ("deform", "m2", None),
])
def test_relabelled_input_reports_the_base_rows(tmp_path, command, base,
                                                window):
    want = bench.call_main(_argv(command, workloads.INPUTS / (base + ".alg"),
                                 window))
    assert want[0] == 0
    for seed in (1, 7):
        text = workloads.pass_text(base, seed, 0)
        assert len({workloads.pass_text(base, seed, i) for i in range(4)}) > 1
        path = tmp_path / ("%s-%d.alg" % (base, seed))
        path.write_text(text, encoding="utf-8")
        assert bench.call_main(_argv(command, path, window)) == want
        if command == "cohomology":
            fp = tmp_path / ("%s-%d-fp.alg" % (base, seed))
            fp.write_text(workloads.pass_text(base, seed, 0, fp=True),
                          encoding="utf-8")
            assert fp.read_text().startswith(workloads.FP_FIELD_LINE + "\n")
            assert bench.call_main(_argv(command, fp, window)) == want


def test_checker_counts_wrong_answers_and_failed_exits():
    job = workloads.WORKLOADS["hochschild-q"][0]
    status, out = bench.call_main(
        job.argv(workloads.INPUTS / (job.base + ".alg")))
    assert workloads.check(job, status, out) is None
    run = bench.Run()
    run.record(job, status, out, "test")
    run.record(job, status, out.replace("H=1", "H=2", 1), "test")
    run.record(job, status, out.replace("graded_exact=yes",
                                        "graded_exact=no"), "test")
    run.record(job, status, out + "note: extra\n", "test")
    run.record(job, 1, out, "test")
    assert (run.attempted, run.failed) == (5, 4)


def test_process_pass_reports_the_job_s_own_peak_rss(tmp_path):
    gl2 = workloads.WORKLOADS["cyclic-lie"][2]
    inputs = workloads.write_pass_inputs((gl2,), 2, 0, tmp_path)
    _, results, _ = bench.process_pass(inputs, bench.job_env(), tmp_path, [])
    status, stdout, rss = results[0]
    assert workloads.check(gl2, status, stdout) is None
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert 0 < rss < own_peak


def test_a_wrong_answer_fails_the_run(monkeypatch, capsys):
    gl2 = workloads.WORKLOADS["cyclic-lie"][2]
    window, cls, rng, exact, rows, note = gl2.expect
    wrong = replace(gl2, expect=(window, cls, rng, exact,
                                 rows[:-1] + ((0, 0, 1),), note))
    monkeypatch.setitem(workloads.WORKLOADS, "cyclic-lie", (wrong,))
    status = bench.main(["--workload", "cyclic-lie", "--seed", "3",
                         "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_ratio"]["value"] == 0


def test_traced_pass_restores_every_codiff_attribute(tmp_path):
    jobs = (workloads.Job("cohomology", "koszul_dga", "0..2", ()),
            workloads.Job("cyclic", "gl2", "0..3", ()),
            workloads.Job("deform", "m2", None, ()))
    inputs = workloads.write_pass_inputs(jobs, 5, 0, tmp_path)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "codiff" or name.startswith("codiff.")]
    before = {m.__name__: dict(vars(m)) for m in modules}
    plain = bench.inproc_pass(inputs, [])
    with tracer.Tracer() as t:
        traced = bench.inproc_pass(inputs, [], t)
    assert traced[1] == plain[1]
    names = {span[1] for span in t.spans}
    assert {"cli.main", "linalg.echelon", "homology.cyclic_coboundary",
            "homology.family_bracket", "homology.cyclic_scalar_basis",
            "homology.tilde", "cli.validate"} <= names
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("a pass that fails")
    for m in modules:
        after = vars(m)
        for attr, value in before[m.__name__].items():
            assert after[attr] is value, "%s.%s" % (m.__name__, attr)
