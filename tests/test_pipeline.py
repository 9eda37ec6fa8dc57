"""Methods as data: the method table, layer skipping, the μ = 1 limit, record
memory, and a record's segments in ranges run by forked helpers."""

import errno
import itertools
import os
import pickle
import resource
import select
import signal
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mflscan
from mflscan import cli, pipeline, pyramid
from mflscan.cli import EXIT_USAGE
from mflscan.errors import ConfigInvalid
from mflscan.formats import write_record_binary
from mflscan.ingest import PreprocessConfig, preprocess
from mflscan.pipeline import (METHODS, RunConfig, method_plan, process_record, process_segment,
                              segment_ranges, segment_stages)
from mflscan.ssr import AdaptiveConfig, build_context
from mflscan.synth import generate, scenario_presets


SHAPE = (200, 200)  # default (image_height, segment_length)


@pytest.fixture(scope="module")
def optimal():
    record, _ = generate(scenario_presets()["optimal_ssr"])
    cfg = AdaptiveConfig()
    context = build_context(record.sampling_rate_hz, record.inspection_speed_mps, cfg)
    return record, cfg, context


class TestMethodPlan:
    def test_table(self, optimal):
        _, cfg, context = optimal
        w1, w2, _ = context.weights
        assert method_plan(context, cfg, SHAPE, RunConfig("single_scale")) == (
            cfg.kernel_base, (1.0, 0.0, 0.0)
        )
        assert method_plan(context, cfg, SHAPE, RunConfig("unweighted_multiscale")) == (
            context.kernel_size, (1 / 3, 1 / 3, 1 / 3)
        )
        kernel, weights = method_plan(context, cfg, SHAPE, RunConfig("adaptive"))
        assert kernel == context.kernel_size
        assert weights == pytest.approx((w1, (1 - w1) * w2, (1 - w1) * (1 - w2)), abs=1e-15)
        assert sum(weights) == pytest.approx(1.0)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="method"):
            RunConfig("foo")

    def test_record_kernel_size_from_plan(self, optimal):
        record, cfg, context = optimal
        for method in METHODS:
            run = RunConfig(method)
            result = process_record(record, run=run)
            plan = method_plan(context, cfg, SHAPE, run)
            assert (result.kernel_size, result.fusion_weights) == plan

    def test_record_planned_once_before_preprocessing(self, optimal, monkeypatch):
        record, _, _ = optimal
        calls = []
        plan = pipeline.method_plan

        def recording_plan(context, cfg, shape, *args, **kwargs):
            calls.append(shape)
            return plan(context, cfg, shape, *args, **kwargs)

        def no_preprocess(*args):
            raise AssertionError("preprocessed before the plan was checked")

        monkeypatch.setattr(pipeline, "method_plan", recording_plan)
        monkeypatch.setattr(pipeline, "preprocess", no_preprocess)
        with pytest.raises(ConfigInvalid, match="alpha"):
            process_record(record, adaptive_cfg=AdaptiveConfig(alpha=1e300))
        with pytest.raises(ConfigInvalid, match="segment_length = 200 x 3 is below"):
            process_record(record, PreprocessConfig(segment_length=3))
        assert calls == [SHAPE, (200, 3)]

    def test_plan_guarantees_what_the_chain_assumes(self):
        # every plan accepted over kernel_base 2-5, alpha 0.5-5, five SSRs
        # (the three presets, the reference and a sparser one), every method
        # and every shape up to 39 x 39: the pyramid's layers are float64 and
        # each halves the one before, every used layer holds the K x K kernel
        # (K >= 2), every pooled layer is at least 4 wide, and every weight
        # past the last used layer is zero; `match`, `_pool2` and `fuse` rely
        # on these and check none of them
        ssrs = [(100.0, 1.0), (250.0, 1.5), (250.0, 1.2), (250.0, 0.5), (250.0, 0.15)]
        accepted = 0
        for kernel_base, alpha, (fs, v) in itertools.product(range(2, 6), (0.5, 1.0, 2.5, 5.0),
                                                             ssrs):
            cfg = AdaptiveConfig(kernel_base=kernel_base, alpha=alpha)
            context = build_context(fs, v, cfg)
            for method, shape in itertools.product(METHODS, itertools.product(range(1, 40),
                                                                              repeat=2)):
                try:
                    kernel, weights = method_plan(context, cfg, shape, RunConfig(method))
                except ConfigInvalid:
                    continue
                accepted += 1
                used = max(j for j, w in enumerate(weights, start=1) if w)
                layers = pyramid.build_pyramid(np.arange(shape[0] * shape[1]).reshape(shape), used)
                assert len(layers) == used and not any(weights[used:])
                assert all(layer.dtype == np.float64 for layer in layers)
                for fine, coarse in zip(layers, layers[1:]):
                    assert coarse.shape == (fine.shape[0] // 2, fine.shape[1] // 2)
                    assert fine.shape[1] >= 4
                assert kernel >= 2 and min(layers[-1].shape) >= kernel
        assert accepted > 100000  # of 365040 (config, method, shape) triples


class TestLayerSkipping:
    def test_match_calls_per_segment(self, optimal, monkeypatch):
        record, cfg, context = optimal
        image = preprocess(record)[0]
        calls = []
        match = pipeline.match

        def counting_match(layer, template):
            calls.append(layer.shape)
            return match(layer, template)

        monkeypatch.setattr(pipeline, "match", counting_match)
        for method, expected in (
            ("single_scale", 1), ("unweighted_multiscale", 3), ("adaptive", 3)
        ):
            calls.clear()
            process_segment(image, context, cfg, RunConfig(method))
            assert len(calls) == expected, method
            assert calls[0] == image.pixels.shape

    def test_pool_calls_per_segment(self, optimal, monkeypatch):
        # only the layers down to the last weighted one are pooled
        record, cfg, context = optimal
        image = preprocess(record)[0]
        calls = []
        pool2 = pyramid._pool2

        def counting_pool2(img):
            calls.append(img.shape)
            return pool2(img)

        monkeypatch.setattr(pyramid, "_pool2", counting_pool2)
        for method, expected in (
            ("single_scale", 0), ("unweighted_multiscale", 2), ("adaptive", 2)
        ):
            calls.clear()
            process_segment(image, context, cfg, RunConfig(method))
            assert len(calls) == expected, method
        # adaptive at mu = 1 (f_spatial 125 samples/m) weights L1 alone
        preset = scenario_presets()["low_ssr"]
        record, _ = generate(replace(preset, inspection_speed_mps=2.0, rope_length_m=801 / 125.0))
        context = build_context(record.sampling_rate_hz, record.inspection_speed_mps, cfg)
        assert context.mu == 1.0
        calls.clear()
        process_segment(preprocess(record)[0], context, cfg, RunConfig("adaptive"))
        assert calls == []

    def test_stage_names_per_method(self, optimal):
        record, cfg, context = optimal
        image = preprocess(record)[0]
        three = {f"L{j}_{stage}" for j in (1, 2, 3) for stage in ("raw", "resp", "env")}
        assert context.mu == pytest.approx(1 / 3)
        for method, expected in (
            ("single_scale", {"L1_raw", "L1_resp", "L1_env"}),
            ("unweighted_multiscale", three),
            ("adaptive", three),
        ):
            stages = segment_stages(image, context, cfg, RunConfig(method))
            assert set(stages) == expected | {"fused"}, method
            assert stages["fused"].shape == image.pixels.shape
        # adaptive at mu = 1 (f_spatial 125 samples/m) weights L1 alone
        preset = scenario_presets()["low_ssr"]
        record, _ = generate(replace(preset, inspection_speed_mps=2.0, rope_length_m=801 / 125.0))
        context = build_context(record.sampling_rate_hz, record.inspection_speed_mps, cfg)
        assert context.mu == 1.0
        stages = segment_stages(preprocess(record)[0], context, cfg, RunConfig("adaptive"))
        assert set(stages) == {"L1_raw", "L1_resp", "L1_env", "fused"}

    def test_segment_runs_its_stages_once(self, optimal, monkeypatch):
        record, _, _ = optimal
        usable_cores(monkeypatch, 1)  # a helper's calls are not counted here
        calls = []
        stages = pipeline.segment_stages

        def counting_stages(image, *args, **kwargs):
            calls.append(image.segment_index)
            return stages(image, *args, **kwargs)

        monkeypatch.setattr(pipeline, "segment_stages", counting_stages)
        for method in METHODS:
            calls.clear()
            result = process_record(record, run=RunConfig(method))
            assert calls == [1, 2, 3, 4], method
            assert len(result.chosen_thresholds) == 4

    def test_oversized_kernel_refused_before_template(self, optimal, monkeypatch):
        record, _, _ = optimal
        cfg = AdaptiveConfig(kernel_base=100_000)
        context = build_context(record.sampling_rate_hz, record.inspection_speed_mps, cfg)
        image = preprocess(record)[0]

        def no_template(size):
            raise AssertionError(f"template of size {size} built")

        monkeypatch.setattr(pipeline, "build_template", no_template)
        for method in METHODS:
            with pytest.raises(ConfigInvalid, match="kernel size 1000[0-9]+ .* exceeds layer"):
                process_segment(image, context, cfg, RunConfig(method))
        # K_a = ceil(51 + 5 * 2/3) = 55 fits L1 and L2 but not L3 (50 x 50)
        cfg = AdaptiveConfig(kernel_base=51)
        context = build_context(record.sampling_rate_hz, record.inspection_speed_mps, cfg)
        assert context.kernel_size == 55
        with pytest.raises(ConfigInvalid, match=r"kernel size 55 .* exceeds layer L3 \(50, 50\)"):
            process_segment(image, context, cfg, RunConfig("unweighted_multiscale"))

    def test_adaptive_equals_single_scale_at_unit_mu(self):
        # f_spatial = 250 / 2.0 = 125 samples/m, below the extreme reference
        # (250 / 1.5), so mu = 1: weights (1, 0, 0) and K_a = K_base
        preset = scenario_presets()["low_ssr"]
        spec = replace(preset, inspection_speed_mps=2.0, rope_length_m=801 / 125.0)
        record, _ = generate(spec)
        adaptive = process_record(record, run=RunConfig("adaptive"))
        single = process_record(record, run=RunConfig("single_scale"))
        assert adaptive.context.mu == 1.0
        assert adaptive.kernel_size == single.kernel_size == AdaptiveConfig().kernel_base
        assert adaptive.detections
        assert adaptive.detections == single.detections
        assert adaptive.chosen_thresholds == single.chosen_thresholds


def high_ssr_rope(segments):
    """A high_ssr rope of `segments` segments and a 150-sample tail."""
    preset = scenario_presets()["high_ssr"]
    f_spatial = preset.sampling_rate_hz / preset.inspection_speed_mps
    record, _ = generate(replace(preset, rope_length_m=(segments * 200 + 150.5) / f_spatial))
    assert record.sample_count // 200 == segments
    return record


def usable_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


@pytest.mark.pins_bytes
@pytest.mark.parametrize("cores", [None, 1], ids=["usable-cores", "one-core"])
def test_record_memory_holds_no_record_sized_array(cores, monkeypatch):
    # high_ssr ropes of 50 and 400 segments with a 150-sample tail, each built
    # before tracing. Processing holds one segment's working set, within
    # criterion 7's 4 MiB, where the 50-segment M x H strip alone would need
    # about 16 MB. Each segment is detrended from its own window and halo, so
    # a rope 8 x longer adds only its results; an M x N copy of the record
    # would add 8.5 MiB from 50 to 400 segments. On more than one core the
    # bounds hold for this process, which runs the first range and joins the rest
    if cores:
        usable_cores(monkeypatch, cores)
    peaks = []
    for segments in (50, 400):
        record = high_ssr_rope(segments)
        if not peaks:
            process_record(record)  # warm-up
        tracemalloc.start()
        try:
            process_record(record)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 4 * 2**20
    assert abs(peaks[1] - peaks[0]) <= 2**19


@pytest.mark.skipif(sys.platform != "linux", reason="glibc heap thresholds")
def test_streamed_segments_keep_their_heap(optimal):
    # each segment frees a working set of about 2.4 MB; returned to the OS,
    # it faults back in on every segment (about 2800 faults per record)
    record = optimal[0]
    process_record(record)  # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        process_record(record)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
    assert faults < 500


def count_forks(monkeypatch) -> list:
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.fixture(scope="module")
def long_rope():
    return high_ssr_rope(50)


class TestSegmentRanges:
    def test_contiguous_ranges_one_per_core(self, monkeypatch):
        usable_cores(monkeypatch, 4)
        assert segment_ranges(50) == [range(0, 12), range(12, 25), range(25, 37), range(37, 50)]
        assert segment_ranges(11) == [range(0, 2), range(2, 5), range(5, 8), range(8, 11)]
        assert segment_ranges(3) == [range(0, 1), range(1, 2), range(2, 3)]
        assert segment_ranges(1) == [range(0, 1)]

    def test_one_range_beside_other_threads(self, monkeypatch):
        usable_cores(monkeypatch, 4)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert segment_ranges(50) == [range(0, 50)]
        finally:
            release.set()
            thread.join()


def preset_record(name):
    return generate(scenario_presets()[name])[0]


@pytest.mark.pins_bytes
@pytest.mark.parametrize("rope", ["long-rope", "low_ssr", "optimal_ssr", "high_ssr"])
def test_helpers_give_the_serial_bytes(rope, long_rope, tmp_path, monkeypatch):
    # the 50-segment rope and a 4-segment record of each preset: detections,
    # thresholds and the `detect` JSON bytes on 2 and 4 cores are those of
    # the one-core run, and the helpers forked for 2 cores serve on 4
    record = long_rope if rope == "long-rope" else preset_record(rope)
    path = tmp_path / "rope.mfl"
    write_record_binary(path, record)
    forks = count_forks(monkeypatch)
    runs = {}
    for cores in (1, 2, 4):
        usable_cores(monkeypatch, cores)
        result = process_record(record)
        out = tmp_path / f"{cores}.json"
        assert cli.main(["detect", str(path), "--out", str(out)]) == 0
        runs[cores] = (result.detections, result.chosen_thresholds, out.read_bytes())
    assert len(forks) == 3
    assert runs[1][0]
    assert runs[2] == runs[1]
    assert runs[4] == runs[1]


@pytest.mark.parametrize("cores", [2, 4])
def test_helpers_are_forked_once_per_process(optimal, cores, monkeypatch):
    # records of 4 and 50 segments, one after another, fork cores - 1 helpers
    usable_cores(monkeypatch, cores)
    forks = count_forks(monkeypatch)
    for record in (optimal[0], high_ssr_rope(8), optimal[0]):
        process_record(record)
    assert len(forks) == cores - 1
    assert len(pipeline._helpers) == cores - 1


def test_helper_exits_at_eof_beside_later_helpers(optimal, monkeypatch):
    # the first of three helpers exits, with status 0, once this process
    # closes its request pipe: the helpers forked after it hold no copy
    usable_cores(monkeypatch, 4)
    process_record(optimal[0])
    first = pipeline._helpers[0]
    pipeline._forget(first)

    def hung(signum, frame):
        raise TimeoutError("the helper never saw EOF")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        _, status = os.waitpid(first.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert os.waitstatus_to_exitcode(status) == 0


def test_killed_helper_is_replaced(optimal, monkeypatch):
    # a helper killed between two records sends nothing for the next one,
    # which runs its range here, gives the serial result and drops the
    # helper; the record after that forks the one replacement
    record = optimal[0]
    usable_cores(monkeypatch, 1)
    serial = process_record(record)
    usable_cores(monkeypatch, 2)
    process_record(record)
    [killed] = pipeline._helpers
    os.kill(killed.pid, signal.SIGKILL)
    os.waitid(os.P_PID, killed.pid, os.WEXITED | os.WNOWAIT)  # dead, left for the pipeline to reap
    forks = count_forks(monkeypatch)
    result = process_record(record)
    assert forks == []
    assert pipeline._helpers == []
    assert (result.detections, result.chosen_thresholds) == (
        serial.detections, serial.chosen_thresholds)
    process_record(record)
    assert len(forks) == 1
    assert len(pipeline._helpers) == 1


def test_callers_own_child_starts_its_own_helpers(optimal, monkeypatch):
    # a process forked by the caller forgets the caller's helpers, forks its
    # own for its records, and leaves the caller's serving
    record = optimal[0]
    usable_cores(monkeypatch, 2)
    expected = process_record(record)
    helpers = list(pipeline._helpers)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            inherited = list(pipeline._helpers)
            result = process_record(record)
            ok = (inherited == [] and len(pipeline._helpers) == 1
                  and pipeline._helpers[0].pid not in [helper.pid for helper in helpers]
                  and (result.detections, result.chosen_thresholds)
                  == (expected.detections, expected.chosen_thresholds))
            pipeline.close_helpers()
            os.write(write_fd, b"ok" if ok else b"no")
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        report = pipe.read()
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert report == b"ok"
    forks = count_forks(monkeypatch)
    result = process_record(record)
    assert forks == [] and pipeline._helpers == helpers
    assert (result.detections, result.chosen_thresholds) == (
        expected.detections, expected.chosen_thresholds)


def test_detect_process_leaves_no_helper(tmp_path):
    # a `detect` process on 2 cores forks a helper, and every helper is
    # reaped before the process exits
    write_record_binary(tmp_path / "rope.mfl", preset_record("optimal_ssr"))
    code = textwrap.dedent("""
        import os, sys
        from mflscan import cli, pipeline
        os.sched_getaffinity = lambda pid: {0, 1}
        assert cli.main(["detect", sys.argv[1] + "/rope.mfl"]) == 0
        print(*[helper.pid for helper in pipeline._helpers])
    """)
    path = [str(Path(mflscan.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code, str(tmp_path)],
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    [pid] = [int(pid) for pid in result.stdout.splitlines()[-1].split()]
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def failing_at(monkeypatch, failures, error=ConfigInvalid):
    """Make `process_segment` raise `error` on the segment indices `failures`."""
    segment = pipeline.process_segment

    def process(image, *args):
        if image.segment_index in failures:
            raise error(f"segment {image.segment_index} failed")
        return segment(image, *args)

    monkeypatch.setattr(pipeline, "process_segment", process)


class TestForkFailures:
    # 4 usable cores split 50 segments into indices 1-12, 13-25, 26-37, 38-50

    @pytest.mark.parametrize("failures", [{1}, {13}, {26}, {50}, {20, 40}, {3, 30}])
    def test_raise_in_any_range_is_the_serial_exception(self, long_rope, monkeypatch, failures):
        failing_at(monkeypatch, failures)
        usable_cores(monkeypatch, 1)
        with pytest.raises(ConfigInvalid) as serial:
            process_record(long_rope)
        usable_cores(monkeypatch, 4)
        with pytest.raises(ConfigInvalid) as forked:
            process_record(long_rope)
        assert str(forked.value) == str(serial.value) == f"segment {min(failures)} failed"

    @pytest.mark.parametrize("error, message", [(ConfigInvalid, "error: segment 30 failed\n"),
                                                (MemoryError, "error: out of memory: segment 30 "
                                                              "failed\n")])
    def test_child_error_exits_as_a_serial_run(self, long_rope, tmp_path, monkeypatch, capsys,
                                               error, message):
        path = tmp_path / "long.mfl"
        write_record_binary(path, long_rope)
        failing_at(monkeypatch, {30}, error)
        usable_cores(monkeypatch, 2)
        assert cli.main(["detect", str(path), "--out", str(tmp_path / "d.json")]) == EXIT_USAGE
        assert capsys.readouterr().err == message
        assert not (tmp_path / "d.json").exists()

    def test_parent_raise_beside_a_full_pipe_returns(self, long_rope, monkeypatch):
        # each helper's outcome is far above the 64 KiB pipe buffer, so the
        # helper blocks writing until it is killed; the next record forks new
        # helpers and gives the serial result
        usable_cores(monkeypatch, 1)
        serial = process_record(long_rope)
        parent, segment = os.getpid(), pipeline.process_segment

        def process(image, *args):
            if os.getpid() == parent:
                raise ConfigInvalid("parent failed")
            return [b"\0" * 2**20], segment(image, *args)[1]

        def hung(signum, frame):
            raise TimeoutError("process_record hangs")

        monkeypatch.setattr(pipeline, "process_segment", process)
        usable_cores(monkeypatch, 4)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(ConfigInvalid, match="parent failed"):
                process_record(long_rope)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert pipeline._helpers == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.setattr(pipeline, "process_segment", segment)
        result = process_record(long_rope)
        assert (result.detections, result.chosen_thresholds) == (
            serial.detections, serial.chosen_thresholds)

    @pytest.mark.pins_bytes
    def test_reply_cut_short_has_its_range_run_here(self, optimal, monkeypatch):
        # on 2 cores the helper's reply for segments 3-4 is far above the
        # 64 KiB pipe buffer; once its head is readable, and so before the
        # caller reads any of it, the helper is killed. The caller reads a
        # pickle cut short, runs the range itself and drops the helper
        record = optimal[0]
        usable_cores(monkeypatch, 1)
        serial = process_record(record)
        parent, segment = os.getpid(), pipeline.process_segment

        def process(image, *args):
            if os.getpid() != parent:
                return [b"\0" * 2**20], segment(image, *args)[1]
            if image.segment_index == 2:
                [helper] = pipeline._helpers
                readable, _, _ = select.select([helper.replies], [], [], 60)
                assert readable, "the helper sent no reply"
                os.kill(helper.pid, signal.SIGKILL)
            return segment(image, *args)

        monkeypatch.setattr(pipeline, "process_segment", process)
        usable_cores(monkeypatch, 2)
        result = process_record(record)
        assert (result.detections, result.chosen_thresholds) == (
            serial.detections, serial.chosen_thresholds)
        assert pipeline._helpers == []

    @pytest.mark.pins_bytes
    def test_every_proper_prefix_of_a_reply_is_nothing(self, optimal):
        # a helper killed mid-reply leaves a prefix of its pickle in the pipe
        record, cfg, context = optimal
        images = preprocess(record, PreprocessConfig())
        results = pipeline._run_range(images, context, cfg, RunConfig())
        assert any(detections for detections, _ in results)
        reply = pickle.dumps(results, pickle.HIGHEST_PROTOCOL)
        descriptors = len(os.listdir("/dev/fd"))
        for end in range(len(reply) + 1):
            read, write = os.pipe()
            os.write(write, reply[:end])
            os.close(write)
            try:
                received = pipeline._receive(pipeline._Helper(0, -1, read))
            finally:
                os.close(read)
            assert received == (results if end == len(reply) else None), end
        assert len(os.listdir("/dev/fd")) == descriptors

    def test_interrupted_start_leaves_no_child(self, long_rope, monkeypatch):
        # the second of three starts raises before any range is sent; the
        # first helper is left idle, and closing the helpers reaps it
        fork, forks = os.fork, []

        def interrupted():
            forks.append(1)
            if len(forks) == 2:
                raise KeyboardInterrupt
            return fork()

        monkeypatch.setattr(os, "fork", interrupted)
        usable_cores(monkeypatch, 4)
        with pytest.raises(KeyboardInterrupt):
            process_record(long_rope)
        assert len(forks) == 2
        assert len(pipeline._helpers) == 1

    @pytest.mark.parametrize("failure", ["pipe", "fork", "killed"])
    def test_child_that_sends_nothing_has_its_range_run_here(self, long_rope, tmp_path,
                                                             monkeypatch, failure):
        # a range whose helper sends nothing, because no pipe or no helper
        # could be made or the helper was killed, runs here: the serial result
        # and bytes, and no descriptor left open once the helpers are closed
        path = tmp_path / "long.mfl"
        write_record_binary(path, long_rope)
        usable_cores(monkeypatch, 1)
        serial = process_record(long_rope)
        assert cli.main(["detect", str(path), "--out", str(tmp_path / "serial.json")]) == 0
        if failure == "killed":
            parent, segment = os.getpid(), pipeline.process_segment

            def process(image, *args):
                if os.getpid() != parent and image.segment_index > 37:
                    os.kill(os.getpid(), signal.SIGKILL)
                return segment(image, *args)

            monkeypatch.setattr(pipeline, "process_segment", process)
        else:
            def exhausted(*args):
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

            monkeypatch.setattr(os, failure, exhausted)
        usable_cores(monkeypatch, 4)
        descriptors = len(os.listdir("/dev/fd"))
        result = process_record(long_rope)
        pipeline.close_helpers()
        assert len(os.listdir("/dev/fd")) == descriptors
        assert (result.detections, result.chosen_thresholds) == (
            serial.detections, serial.chosen_thresholds)
        out = tmp_path / "forked.json"
        assert cli.main(["detect", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "serial.json").read_bytes()
