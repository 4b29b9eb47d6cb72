"""Self-tests of the benchmark's checks; run with

    python3 -m pytest bergbench -q

They show that the reference check fails on a reference perturbed by
1e-9 relative, that the tracer refuses to run blind, and that the speed
probe samples while work runs and gives the alarm signal back.
"""

import copy
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layertrace  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def perturbed(reference, rel=1e-9):
    out = copy.deepcopy(reference)
    for ops in out.values():
        for op in ops.values():
            for key, value in op["numbers"].items():
                op["numbers"][key] = value * (1 + rel) if value else rel
    return out


def ops_with_numbers(reference):
    """Operations with a number that is compared relative to itself."""
    return sum(
        1
        for ops in reference.values()
        for op in ops.values()
        if set(op["numbers"]) - set(op.get("scale", {}))
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_matches_itself_and_not_a_perturbed_copy(workload):
    reference = REFERENCE[workload]
    attempted, failed, _ = workloads.compare(reference, reference, set(reference))
    assert attempted == sum(len(ops) for ops in reference.values()) and failed == 0
    _, failed, messages = workloads.compare(
        perturbed(reference), reference, set(reference)
    )
    assert failed == ops_with_numbers(reference) > 0, messages


def test_live_results_pass_and_fail_against_a_perturbed_reference():
    wanted = {"sector", "growth s_exp=0.5", "growth s_exp=-0.5"}
    groups = [(g, run) for g, run in workloads.groups("weights") if g in wanted]
    live = {g: dict(run(workloads.DEFAULT_SEED)) for g, run in groups}
    reference = {g: REFERENCE["weights"][g] for g in wanted}
    attempted, failed, messages = workloads.compare(live, reference, wanted)
    assert attempted == sum(len(ops) for ops in reference.values())
    assert failed == 0, messages
    _, failed, _ = workloads.compare(live, perturbed(reference), wanted)
    assert failed == ops_with_numbers(reference)
    # only verdicts are compared for groups outside the numbered set
    _, failed, _ = workloads.compare(live, perturbed(reference), set())
    assert failed == 0


def test_verdicts_errors_and_unknown_operations_fail():
    reference = REFERENCE["weights"]
    flipped = copy.deepcopy(reference)
    flipped["bb points=0.5 p=4.0"]["estimate"]["verdicts"]["outcome"] = "finite"
    _, failed, _ = workloads.compare(flipped, reference, set())
    assert failed == 1
    raised = dict(reference, sector=RuntimeError("boom"))
    _, failed, _ = workloads.compare(raised, reference, set())
    assert failed == len(reference["sector"])
    extra = copy.deepcopy(reference)
    extra["sector"]["made up"] = {"numbers": {}, "verdicts": {}}
    attempted, failed, _ = workloads.compare(extra, reference, set())
    assert failed == 1 and attempted == sum(len(ops) for ops in reference.values()) + 1


def test_roundoff_numbers_compare_against_their_scale():
    op = REFERENCE["kernel_checks"]["annihilation"]["vandermonde"]
    reference = {"annihilation": {"vandermonde": op}}
    noisy = copy.deepcopy(reference)
    noisy["annihilation"]["vandermonde"]["numbers"]["max_abs"] *= 2.0
    _, failed, _ = workloads.compare(noisy, reference, {"annihilation"})
    assert failed == 0
    noisy["annihilation"]["vandermonde"]["numbers"]["max_abs"] += 1e-9
    _, failed, _ = workloads.compare(noisy, reference, {"annihilation"})
    assert failed == 1


def test_tracer_refuses_a_lost_binding(monkeypatch):
    import bergproj.experiments as experiments

    monkeypatch.delattr(experiments, "test_function_hs")
    tracer = layertrace.Tracer()
    with pytest.raises(layertrace.TraceError, match="test_function_hs"):
        tracer.install()
    tracer.uninstall()


def test_tracer_counts_and_restores():
    import bergproj.estimates as estimates
    import bergproj.quadrature as quadrature

    original = quadrature.disc_rule
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert estimates.disc_rule is quadrature.disc_rule is not original
        estimates.tent_rule(estimates.TentRegion(0j), 8)
        with pytest.raises(layertrace.TraceError, match="never fired on weights"):
            tracer.check_fired("weights")
    finally:
        tracer.uninstall()
    assert quadrature.disc_rule is original and estimates.disc_rule is original
    layers = tracer.metrics()
    assert layers["estimates.tent_rule_nodes"] == 8 * 16
    assert layers["quadrature.rules_built"] == 1
    assert layers["quadrature.leggauss_calls"] == 1


def test_speed_sampler_samples_during_work_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    start = time.perf_counter()
    sampler.start()
    try:
        while time.perf_counter() - start < 4 * speed.PERIOD_S:
            sum(range(1000))
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2
    assert 0 < sampler.probed_s() < time.perf_counter() - start
    assert sampler.mean_s() == sampler.probed_s() / len(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
