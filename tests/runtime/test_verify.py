"""Static plan verification: mutation corpus, gates, and clean audits.

Two directions of proof: every analysis rule *fires* on a plan mutated to
violate its invariant (rewritten slots, use-after-release, dropped
precision casts, corrupted fusion chains, shrunk workspace carvings), and
every rule stays *silent* on all real compiled plans — the registry
baselines and DyHSL, in both precisions, at one and at several batch
rows.  Plus the two ``REPRO_RUNTIME_VERIFY=1`` trust
boundaries: fresh compiles verify (and refuse to serve on a finding) and
artifact loads verify (and reject back to a clean recompile).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import create_baseline
from repro.core import DyHSL, DyHSLConfig
from repro.runtime import (
    ArtifactError,
    ArtifactStore,
    VERIFY_ENV_VAR,
    VerifyError,
    bind_plan,
    compile_module,
    plan_workspace_nbytes,
    verify_spec,
    verify_store,
)
from repro.runtime.verify import Diagnostic, storage_layout, verify_enabled
from repro.tensor import seed as seed_everything

NUM_NODES = 9

#: Every neural baseline the serving layer can load (see test_parity.py).
COMPILED_BASELINES = ["FC-LSTM", "TCN", "GRU-ED", "STGCN", "DCRNN", "GraphWaveNet", "AGCRN"]


@pytest.fixture(scope="module")
def adjacency() -> np.ndarray:
    rng = np.random.default_rng(11)
    dense = (rng.random((NUM_NODES, NUM_NODES)) < 0.45).astype(float)
    np.fill_diagonal(dense, 0.0)
    return dense


@pytest.fixture(scope="module")
def windows() -> np.ndarray:
    return np.random.default_rng(12).normal(size=(2, 12, NUM_NODES, 1))


def _single_plan(compiled):
    """The one plan a single-shape workload compiled; (spec, values)."""
    plan = next(iter(compiled._plans.values()))
    return plan.spec, plan._values


@pytest.fixture(scope="module")
def serial_plan(adjacency, windows):
    """A float32 TCN plan: fused chains, reused storages."""
    seed_everything(31)
    model = create_baseline("TCN", adjacency, NUM_NODES, horizon=3, hidden_dim=12)
    compiled = compile_module(model, precision="float32")
    compiled(windows)
    return _single_plan(compiled)


@pytest.fixture(scope="module")
def dyhsl_plan():
    """A multi-window DyHSL plan: the six-branch pooling dataflow."""
    seed_everything(91)
    rng = np.random.default_rng(91)
    nodes = 11
    adjacency = (rng.random((nodes, nodes)) < 0.4).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    config = DyHSLConfig(
        num_nodes=nodes,
        hidden_dim=12,
        prior_layers=2,
        num_hyperedges=6,
        window_sizes=(1, 2, 3, 6, 12),
        mhce_layers=2,
    )
    compiled = compile_module(DyHSL(config, adjacency).eval())
    compiled(rng.normal(size=(2, 12, nodes, 1)))
    return _single_plan(compiled)


def _rules(report):
    return sorted({finding.rule for finding in report.findings})


# ----------------------------------------------------------------------
# Zero false positives on everything the runtime actually compiles
# ----------------------------------------------------------------------

class TestCleanAudit:
    @pytest.mark.parametrize("name", COMPILED_BASELINES)
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("rows", [1, 4])
    def test_registry_baselines_verify_clean(
        self, adjacency, windows, name, precision, rows
    ):
        """Streaming (1-row) and bulk plans of every baseline verify clean."""
        seed_everything(17)
        model = create_baseline(name, adjacency, NUM_NODES, horizon=3, hidden_dim=12)
        compiled = compile_module(model, precision=precision)
        compiled(np.resize(windows, (rows,) + windows.shape[1:]))
        spec, values = _single_plan(compiled)
        report = verify_spec(spec, values)
        assert report.ok, report.summary()
        assert report.steps == len(spec.steps)

    def test_multi_window_dyhsl_verifies_clean(self, dyhsl_plan):
        spec, values = dyhsl_plan
        report = verify_spec(spec, values)
        assert report.ok, report.summary()

    def test_report_summary_and_str(self, serial_plan):
        spec, values = serial_plan
        report = verify_spec(spec, values)
        assert report.ok and "OK" in report.summary()
        finding = Diagnostic("P-LAYOUT", "overlap", steps=(1, 2), storage=0,
                             byte_range=(0, 64))
        assert "P-LAYOUT" in str(finding) and "[bytes 0:64)" in str(finding)
        lint_like = Diagnostic("L-BLOCK", "sleep", path="x.py", line=9)
        assert str(lint_like).startswith("L-BLOCK: x.py:9:")


# ----------------------------------------------------------------------
# The mutation corpus: every rule demonstrably fires
# ----------------------------------------------------------------------

class TestMutationCorpus:
    def test_undefined_slot_read(self, serial_plan):
        spec, values = serial_plan
        steps = list(spec.steps)
        steps[5] = dataclasses.replace(
            steps[5], in_slots=tuple(steps[5].in_slots) + (spec.num_slots + 7,)
        )
        mutated = dataclasses.replace(spec, steps=tuple(steps))
        assert "P-LIFE" in _rules(verify_spec(mutated, values))

    def test_use_after_release(self, serial_plan):
        """Reading a slot after pooling reassigned its storage."""
        spec, values = serial_plan
        writers = {}
        site = None
        for index, step in enumerate(spec.steps):
            if step.storage is None:
                continue
            if step.storage in writers and index + 1 < len(spec.steps):
                site = (writers[step.storage], index)
                break
            writers.setdefault(step.storage, index)
        assert site, "expected a liveness-reused storage in the TCN plan"
        first_writer, second_writer = site
        reader = second_writer + 1
        steps = list(spec.steps)
        steps[reader] = dataclasses.replace(
            steps[reader],
            in_slots=tuple(steps[reader].in_slots)
            + (spec.steps[first_writer].out_slot,),
        )
        mutated = dataclasses.replace(spec, steps=tuple(steps))
        findings = verify_spec(mutated, values).by_rule("P-LIFE")
        assert any("use-after-release" in f.message for f in findings)

    def test_dropped_precision_cast(self, serial_plan):
        """A float64 constant surviving into a float32 plan."""
        spec, values = serial_plan
        assert np.dtype(spec.dtype) == np.float32
        mutated_values = list(values)
        slot = next(
            s for s in spec.const_slots
            if mutated_values[s] is not None
            and np.issubdtype(np.asarray(mutated_values[s]).dtype, np.floating)
        )
        mutated_values[slot] = np.asarray(mutated_values[slot]).astype(np.float64)
        report = verify_spec(spec, mutated_values)
        assert "P-DTYPE" in _rules(report)
        assert any("cast was dropped" in f.message for f in report.findings)

    def test_stats_dtype_mismatch(self, serial_plan):
        spec, values = serial_plan
        mutated = dataclasses.replace(
            spec, stats=dataclasses.replace(spec.stats, dtype="float64")
        )
        assert "P-DTYPE" in _rules(verify_spec(mutated, values))

    def _mutate_chain(self, spec, transform):
        index = next(
            i for i, s in enumerate(spec.steps) if s.name == "fused_elementwise"
        )
        step = spec.steps[index]
        chain = [list(link) for link in step.kwargs["chain"]]
        transform(chain)
        kwargs = dict(step.kwargs)
        kwargs["chain"] = tuple(tuple(link) for link in chain)
        steps = list(spec.steps)
        steps[index] = dataclasses.replace(step, kwargs=kwargs)
        return dataclasses.replace(spec, steps=tuple(steps))

    def test_corrupted_chain_unsupported_op(self, serial_plan):
        spec, values = serial_plan

        def swap_op(chain):
            chain[0][0] = "softmax"  # a real kernel, but not fusable

        mutated = self._mutate_chain(spec, swap_op)
        assert "P-FUSE" in _rules(verify_spec(mutated, values))

    def test_corrupted_chain_dangling_ref(self, serial_plan):
        spec, values = serial_plan

        def dangle(chain):
            chain[0][1] = (99,)

        mutated = self._mutate_chain(spec, dangle)
        assert "P-FUSE" in _rules(verify_spec(mutated, values))

    def test_corrupted_chain_head_consumes_running_value(self, serial_plan):
        spec, values = serial_plan

        def head_ref(chain):
            chain[0][1] = (-1,) + tuple(chain[0][1])[1:]

        mutated = self._mutate_chain(spec, head_ref)
        assert "P-FUSE" in _rules(verify_spec(mutated, values))

    def test_shrunk_storage_interval(self, serial_plan):
        spec, values = serial_plan
        sizes = list(spec.storage_sizes)
        sizes[0] = max(8, sizes[0] // 2)
        mutated = dataclasses.replace(spec, storage_sizes=tuple(sizes))
        findings = verify_spec(mutated, values).by_rule("P-LAYOUT")
        assert findings and findings[0].byte_range is not None

    def test_out_of_range_storage_id(self, serial_plan):
        spec, values = serial_plan
        index = next(i for i, s in enumerate(spec.steps) if s.storage is not None)
        steps = list(spec.steps)
        steps[index] = dataclasses.replace(
            steps[index], storage=len(spec.storage_sizes) + 3
        )
        mutated = dataclasses.replace(spec, steps=tuple(steps))
        assert "P-LAYOUT" in _rules(verify_spec(mutated, values))

    def test_duplicate_slot_write(self, serial_plan):
        """Slots are SSA: two steps writing one slot is structural breakage."""
        spec, values = serial_plan
        steps = list(spec.steps)
        steps[4] = dataclasses.replace(steps[4], out_slot=steps[3].out_slot)
        mutated = dataclasses.replace(spec, steps=tuple(steps))
        assert "P-LIFE" in _rules(verify_spec(mutated, values))


# ----------------------------------------------------------------------
# Layout helper
# ----------------------------------------------------------------------

class TestStorageLayout:
    def test_matches_workspace_carving(self, serial_plan):
        spec, _values = serial_plan
        intervals = storage_layout(spec.storage_sizes)
        assert len(intervals) == len(spec.storage_sizes)
        for offset, nbytes in intervals:
            assert offset % 64 == 0 and nbytes > 0
        end = max(o + n for o, n in intervals)
        assert end <= plan_workspace_nbytes(spec.storage_sizes)
        # Intervals are pairwise disjoint by construction.
        ordered = sorted(intervals)
        for (lo1, n1), (lo2, _n2) in zip(ordered, ordered[1:]):
            assert lo1 + n1 <= lo2


# ----------------------------------------------------------------------
# The REPRO_RUNTIME_VERIFY gates
# ----------------------------------------------------------------------

class TestVerifyGates:
    def test_env_var_parsing(self, monkeypatch):
        monkeypatch.delenv(VERIFY_ENV_VAR, raising=False)
        assert not verify_enabled()
        for value in ("1", "true", "YES", " on "):
            monkeypatch.setenv(VERIFY_ENV_VAR, value)
            assert verify_enabled()
        monkeypatch.setenv(VERIFY_ENV_VAR, "0")
        assert not verify_enabled()

    def test_compile_gate_counts(self, adjacency, windows, monkeypatch):
        seed_everything(5)
        model = create_baseline("TCN", adjacency, NUM_NODES, horizon=3, hidden_dim=12)
        monkeypatch.delenv(VERIFY_ENV_VAR, raising=False)
        off = compile_module(model)
        off(windows)
        assert off.cache_info().verifies == 0
        monkeypatch.setenv(VERIFY_ENV_VAR, "1")
        on = compile_module(model)
        on(windows)
        info = on.cache_info()
        assert info.compiles >= 1 and info.verifies >= 1

    def test_load_gate_verifies_and_memoizes(
        self, adjacency, windows, tmp_path, monkeypatch
    ):
        seed_everything(5)
        model = create_baseline("TCN", adjacency, NUM_NODES, horizon=3, hidden_dim=12)
        monkeypatch.delenv(VERIFY_ENV_VAR, raising=False)
        producer = compile_module(model, artifact_dir=tmp_path)
        reference = producer(windows)
        assert producer.artifact_store.stats().verifies == 0

        monkeypatch.setenv(VERIFY_ENV_VAR, "1")
        store = ArtifactStore(tmp_path)
        consumer = compile_module(model, artifact_dir=store)
        produced = consumer(windows)
        assert np.array_equal(produced, reference)
        info = consumer.cache_info()
        stats = store.stats()
        assert info.artifact_loads >= 1 and info.compiles == 0
        assert stats.verifies >= 1
        # Memo hits skip re-verification: the spec was proven at parse time.
        key = sorted(store.keys())[0]
        store.load(key)
        after = store.stats()
        assert after.memo_hits >= 1 and after.verifies == stats.verifies

    def _corrupt_artifact(self, root, mutate):
        """Re-save one artifact with a mutated spec (checksum stays valid)."""
        store = ArtifactStore(root)
        key = sorted(store.keys())[0]
        spec, values, _meta = store.load(key)
        constants = {
            slot: values[slot] for slot in spec.const_slots if values[slot] is not None
        }
        store.path_for(key).unlink()
        store.save(key, mutate(spec), constants, meta={"trace_hash": key})
        return key

    def test_load_gate_rejects_and_falls_back(
        self, adjacency, windows, tmp_path, monkeypatch
    ):
        """A corrupted artifact is rejected; the worker recompiles cleanly."""
        seed_everything(5)
        model = create_baseline("TCN", adjacency, NUM_NODES, horizon=3, hidden_dim=12)
        monkeypatch.delenv(VERIFY_ENV_VAR, raising=False)
        producer = compile_module(model, artifact_dir=tmp_path)
        reference = producer(windows)

        def shrink(spec):
            sizes = list(spec.storage_sizes)
            sizes[0] = max(8, sizes[0] // 2)
            return dataclasses.replace(spec, storage_sizes=tuple(sizes))

        key = self._corrupt_artifact(tmp_path, shrink)
        monkeypatch.setenv(VERIFY_ENV_VAR, "1")
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactError, match="static verification"):
            store.load(key)
        assert store.stats().rejects >= 1

        # End to end: a consumer pointed at the poisoned store still serves,
        # by falling back to a fresh (gate-verified) compile.
        fresh_store = ArtifactStore(tmp_path)
        consumer = compile_module(model, artifact_dir=fresh_store)
        produced = consumer(windows)
        assert np.array_equal(produced, reference)
        info = consumer.cache_info()
        assert info.artifact_rejects >= 1 and info.compiles >= 1
        assert info.verifies >= 1

    def test_verify_error_carries_report(self, serial_plan):
        spec, values = serial_plan
        sizes = list(spec.storage_sizes)
        sizes[0] = 8
        report = verify_spec(
            dataclasses.replace(spec, storage_sizes=tuple(sizes)), values
        )
        error = VerifyError(report)
        assert error.report is report and "P-LAYOUT" in str(error)


# ----------------------------------------------------------------------
# Store audit + CLI
# ----------------------------------------------------------------------

class TestStoreAudit:
    @pytest.fixture()
    def stocked_store(self, adjacency, windows, tmp_path):
        seed_everything(5)
        model = create_baseline("TCN", adjacency, NUM_NODES, horizon=3, hidden_dim=12)
        compiled = compile_module(model, artifact_dir=tmp_path)
        compiled(windows)
        return tmp_path

    def test_verify_store_clean(self, stocked_store):
        reports = verify_store(stocked_store)
        assert reports and all(report.ok for report in reports.values())

    def test_verify_store_is_stat_neutral(self, stocked_store):
        store = ArtifactStore(stocked_store)
        before = store.stats()
        verify_store(store)
        assert store.stats() == before

    def test_verify_store_reports_unreadable(self, stocked_store):
        store = ArtifactStore(stocked_store)
        key = sorted(store.keys())[0]
        store.path_for(key).write_bytes(b"not an npz")
        reports = verify_store(stocked_store)
        assert _rules(reports[key]) == ["P-ARTIFACT"]

    def test_cli_audit_exit_codes(self, stocked_store, capsys):
        from repro.runtime.verify.__main__ import main

        assert main([str(stocked_store)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "0 with findings" in out

        store = ArtifactStore(stocked_store)
        key = sorted(store.keys())[0]
        spec, values, _meta = store.load(key)
        constants = {
            slot: values[slot] for slot in spec.const_slots if values[slot] is not None
        }
        sizes = list(spec.storage_sizes)
        sizes[0] = 8
        store.path_for(key).unlink()
        store.save(
            key,
            dataclasses.replace(spec, storage_sizes=tuple(sizes)),
            constants,
            meta={"trace_hash": key},
        )
        assert main([str(stocked_store)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_cli_missing_store(self, tmp_path, capsys):
        from repro.runtime.verify.__main__ import main

        assert main([str(tmp_path / "nowhere")]) == 2
        assert "no artifact store" in capsys.readouterr().err


# ----------------------------------------------------------------------
# bind_plan(workspace=) hardening
# ----------------------------------------------------------------------

class TestWorkspaceValidation:
    @pytest.fixture()
    def bindable(self, adjacency, windows):
        seed_everything(31)
        model = create_baseline("TCN", adjacency, NUM_NODES, horizon=3, hidden_dim=12)
        compiled = compile_module(model)
        reference = compiled(windows)
        plan = next(iter(compiled._plans.values()))
        return plan.spec, plan._values, windows, reference

    def test_external_workspace_matches_heap(self, bindable):
        spec, values, windows, reference = bindable
        buffer = np.empty(plan_workspace_nbytes(spec.storage_sizes), dtype=np.uint8)
        plan = bind_plan(spec, values, workspace=buffer)
        assert np.array_equal(plan.call(windows), reference)

    def test_rejects_undersized_workspace(self, bindable):
        spec, values, _w, _r = bindable
        needed = plan_workspace_nbytes(spec.storage_sizes)
        with pytest.raises(ValueError, match="smaller than"):
            bind_plan(spec, values, workspace=np.empty(needed - 1, dtype=np.uint8))

    def test_rejects_readonly_workspace(self, bindable):
        spec, values, _w, _r = bindable
        buffer = np.empty(plan_workspace_nbytes(spec.storage_sizes), dtype=np.uint8)
        buffer.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            bind_plan(spec, values, workspace=buffer)

    def test_rejects_noncontiguous_workspace(self, bindable):
        spec, values, _w, _r = bindable
        needed = plan_workspace_nbytes(spec.storage_sizes)
        strided = np.empty(needed * 2, dtype=np.uint8)[::2]
        with pytest.raises(ValueError, match="not contiguous"):
            bind_plan(spec, values, workspace=strided)

    def test_rejects_wrong_dtype(self, bindable):
        spec, values, _w, _r = bindable
        needed = plan_workspace_nbytes(spec.storage_sizes)
        with pytest.raises(ValueError, match="uint8"):
            bind_plan(spec, values, workspace=np.empty(needed, dtype=np.float64))
