"""Self-time arithmetic and the tracer's span bookkeeping."""

import itertools

import pytest

import spans


def test_self_time_of_nested_spans():
    recs = [
        ("checks.run_checks", 0.0, 10.0, -1, 0),
        ("halfspin.build_spinor_basis", 1.0, 4.0, 0, 0),
        ("linalg.max_abs", 2.0, 3.0, 1, 0),
        ("spin1.mr_spinor", 5.0, 7.0, 0, 0),
    ]
    assert spans.self_times(recs) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_overlapping_and_overhanging_children_count_once():
    recs = [
        ("fock.scan", 0.0, 10.0, -1, 0),
        ("fock.a", 1.0, 4.0, 0, 0),
        ("fock.b", 3.0, 6.0, 0, 0),  # overlaps a: union [1, 6]
        ("fock.c", 5.5, 5.8, 0, 0),  # inside the union already
        ("fock.d", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(recs)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_totals_bucket_render_subtrees_and_sum_layers():
    recs = [
        ("checks.run_checks", 0.0, 6.0, -1, 0),
        ("halfspin.build_spinor_basis", 1.0, 3.0, 0, 0),
        ("checks.SuiteConfig.momenta", 3.0, 4.0, 0, 0),
        ("checks.render_text", 6.0, 8.0, -1, 0),
        ("checks.SuiteConfig.to_dict", 6.5, 7.0, 3, 0),
        ("halfspin.build_spinor_basis", 10.0, 11.0, -1, 1),
    ]
    counts = {(spans.FOCK_SVD, 0): 3, (spans.FOCK_SVD, 1): 4, ("linalg:" + spans.SVD, 1): 1}
    tot = spans.totals(recs, counts)
    assert tot["self_s"] == pytest.approx({"checks": 3.0 + 1.0, "halfspin": 3.0, "render": 2.0})
    assert tot["calls"] == {"checks": 2, "halfspin": 2, "render": 2}
    assert tot["name_calls"]["halfspin.build_spinor_basis"] == 2
    assert tot["name_s"]["checks.render_text"] == pytest.approx(2.0)
    assert tot["counts"] == {spans.FOCK_SVD: 7, "linalg:" + spans.SVD: 1}


def test_tracer_records_parents_and_op_ids():
    tick = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(tick)))
    inner = tracer.span("linalg.inner", lambda: None)
    outer = tracer.span("halfspin.outer", lambda: [inner(), inner()])
    outer()
    tracer.op = 1
    inner()
    assert tracer.spans == [
        ("halfspin.outer", 0.0, 5.0, -1, 0),
        ("linalg.inner", 1.0, 2.0, 0, 0),
        ("linalg.inner", 3.0, 4.0, 0, 0),
        ("linalg.inner", 6.0, 7.0, -1, 1),
    ]
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0, 1.0]


def test_counter_keys_calls_by_the_layer_of_the_innermost_open_span():
    tracer = spans.Tracer()
    svd = tracer.counter(spans.SVD, lambda: None)
    inner = tracer.span("linalg.inner", svd)
    outer = tracer.span("fock.outer", lambda: [svd(), inner(), svd()])
    outer()
    svd()
    tracer.op = 1
    inner()
    assert tracer.counts == {
        (spans.FOCK_SVD, 0): 2,
        ("linalg:" + spans.SVD, 0): 1,
        ("-:" + spans.SVD, 0): 1,
        ("linalg:" + spans.SVD, 1): 1,
    }


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.span("fock.boom", boom)()
    assert tracer.spans[0][0] == "fock.boom" and tracer._stack == []


def test_dump_and_load_round_trip(tmp_path):
    tracer = spans.Tracer()
    tracer.span("linalg.f", lambda: None)()
    tracer.counts[(spans.FOCK_SVD, 0)] = 2
    path = str(tmp_path / "spans.marshal")
    tracer.dump(path)
    assert spans.load(path) == (tracer.spans, tracer.counts)
