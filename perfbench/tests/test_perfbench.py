"""Self-tests of the benchmark's tracing.

    python3 -m pytest perfbench/tests -q

The wrappers must be transparent (a traced command writes the same
bytes as an untraced one), must cover every layer function the CLI and
harness import, and the counts they compute from call arguments must
equal the work the layer really does.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402
import spans  # noqa: E402

cli = run.import_cli()

from decochaos.classical import max_lyapunov, propagate  # noqa: E402
from decochaos.models import HenonHeiles, PhasePoint, make_model  # noqa: E402
from decochaos.quantum import (Grid2D, init_gaussian,  # noqa: E402
                               propagate_wavepacket)


def test_every_layer_import_is_timed_or_listed_untimed():
    imported = spans.layer_imports()
    assert imported - spans.timed_names() - set(spans.UNTIMED) == set()
    # entries for names the harness no longer imports must go
    assert set(spans.UNTIMED) - imported == set()
    assert spans.timed_names() - imported == set()


def _shrink(path, directory):
    """The workload's config cut to a fraction of a second of work."""
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    integ = data["integrator"]
    integ["n_steps"] = 400 if data["engine"] == "both" else 2000
    if "lyapunov" in data:
        data["lyapunov"]["total_time"] = 200.0
    data["bath"]["n_modes"] = 200
    data["fit"].pop("window", None)
    out = os.path.join(directory, os.path.basename(path))
    with open(out, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_command_writes_the_same_bytes(workload, tmp_path):
    argv = run.workload_argv(workload, str(tmp_path))
    argv = [_shrink(a, str(tmp_path)) if a.endswith(".yaml") else a
            for a in argv]
    prints = []
    for traced in (False, True):
        out = str(tmp_path / f"out{int(traced)}")
        full = [*argv, "--seed", "3", "--out", out]
        if traced:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                code, _ = run.run_command(cli, full, tracer)
            assert {s.name for s in tracer.spans} >= {
                "cli.main", "classical.propagate", "harness.write_csv"}
        else:
            code, _ = run.run_command(cli, full)
        assert code == 0
        records = run.load_records(out)
        assert records and all(r["error"] is None for r in records.values())
        prints.append(run.fingerprint(records))
    assert prints[0] == prints[1]


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_classical_counts_match_model_calls(monkeypatch):
    model = make_model("henon_heiles", {"lam": 1.0}, 1.0)
    z0 = PhasePoint(-0.1, 0.3, 0.4531372124791047, 0.2)
    forces = _count_calls(monkeypatch, HenonHeiles, "force")
    hessians = _count_calls(monkeypatch, HenonHeiles, "hessian_xy")
    tracer = spans.Tracer()
    tracer.wrap("p", propagate, spans._propagate_counts)(model, z0, 0.005,
                                                         300)
    assert tracer.spans[-1].counts["force_evals"] == len(forces) == 900
    forces.clear()
    tracer.wrap("l", max_lyapunov, spans._lyapunov_counts)(
        model, z0, 0.02, total_time=50.0, renorm_interval=0.5, seed=1)
    counts = tracer.spans[-1].counts
    assert counts["hessian_evals"] == len(hessians) == len(forces)
    assert counts["steps"] == 2500


def test_wavepacket_counts_match_fft_calls(monkeypatch):
    grid = Grid2D(64, 64, 12.0, 12.0, 1.0)
    state = init_gaussian(grid, PhasePoint(0.4, 0.3, 0.5, 0.3),
                          (0.7071, 0.7071))
    model = make_model("separable_quartic", {"a": 1.0, "b": 1.0}, 1.0)
    ffts = _count_calls(monkeypatch, np.fft, "fft2")
    iffts = _count_calls(monkeypatch, np.fft, "ifft2")
    tracer = spans.Tracer()
    tracer.wrap("w", propagate_wavepacket, spans._wavepacket_counts)(
        state, model, 0.005, 40, 5, track_momentum=True)
    counts = tracer.spans[-1].counts
    assert counts["fft2_calls"] == len(ffts) + len(iffts) == 2 * 40 + 9
    assert counts["grid_point_steps"] == 64 * 64 * 40


def test_result_dev_is_distance_outside_the_reference():
    reference = {"outputs": {"a": 2.0}, "bands": {"b": [1.0, 3.0]}}
    assert run.compare_outputs({"a": 2.0, "b": 2.5}, reference, 0.0) == \
        (0.0, [])
    dev, problems = run.compare_outputs({"a": 2.0, "b": 3.3}, reference,
                                        1e-6)
    assert dev == pytest.approx(0.1) and problems
    dev, problems = run.compare_outputs({"a": 2.0}, reference, 1e-6)
    assert dev == 0.0 and problems


def test_self_time_excludes_children():
    tracer = spans.Tracer()

    def outer():
        return tracer.call("inner", sum, ([1, 2],))

    assert tracer.call("outer", outer) == 3
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0
    own = tracer.self_times()
    assert own[0] == pytest.approx(outer_span.duration - inner_span.duration)
    assert own[1] == inner_span.duration
    assert outer_span.overhead > 0 and inner_span.overhead > 0
