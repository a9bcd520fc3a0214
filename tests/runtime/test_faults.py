"""Deterministic fault injection: schedules, determinism, corruption.

The injector's whole value is that its decisions are a pure function of
``(seed, spec index, document name, attempt)`` — the parent and every
worker must agree on exactly which documents fault regardless of
dispatch order or process identity.  These tests pin that property,
the per-spec knobs (match / rate / max_attempt), and the typed error a
rotted shard produces at CRC-verified attach.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.runtime import PackedIndex, PackedIndexError, write_shard
from repro.runtime.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
)
from repro.runtime.pack import PackedIndexCRCError


def _fault_map(injector, names, attempts=(1, 2, 3)):
    """{(name, attempt): fired?} decision table for a schedule."""
    table = {}
    for name in names:
        for attempt in attempts:
            try:
                injector.before_document(name, attempt)
            except InjectedFault:
                table[(name, attempt)] = True
            else:
                table[(name, attempt)] = False
    return table


def _decision_table_in_subprocess(seed, specs, names):
    injector = FaultInjector(seed, specs)
    return _fault_map(injector, names)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="explode")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="raise", rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(kind="raise", rate=-0.1)

    def test_bad_max_attempt_and_delay_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="raise", max_attempt=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="slow", delay_s=-1.0)


class TestDeterminism:
    NAMES = [f"doc-{i:03d}" for i in range(40)]

    def test_same_seed_same_schedule(self):
        specs = [FaultSpec.raising(rate=0.3)]
        a = _fault_map(FaultInjector(7, specs), self.NAMES)
        b = _fault_map(FaultInjector(7, specs), self.NAMES)
        assert a == b

    def test_decisions_independent_of_query_order(self):
        specs = [FaultSpec.raising(rate=0.3)]
        forward = _fault_map(FaultInjector(7, specs), self.NAMES)
        backward = _fault_map(
            FaultInjector(7, specs), list(reversed(self.NAMES))
        )
        assert forward == backward

    def test_different_seeds_differ(self):
        specs = [FaultSpec.raising(rate=0.5)]
        a = _fault_map(FaultInjector(1, specs), self.NAMES)
        b = _fault_map(FaultInjector(2, specs), self.NAMES)
        assert a != b  # 2^-40-ish odds of colliding on 40 docs

    def test_rate_is_roughly_respected(self):
        specs = [FaultSpec.raising(rate=0.25)]
        names = [f"doc-{i:04d}" for i in range(400)]
        table = _fault_map(FaultInjector(11, specs), names, attempts=(1,))
        fired = sum(table.values())
        assert 50 <= fired <= 150  # 100 expected; generous determinism band

    def test_same_decisions_in_a_subprocess(self):
        """Parent and worker agree — the property the parity gate needs."""
        specs = (FaultSpec.raising(rate=0.4), FaultSpec.flaky("doc-00*"))
        parent = _fault_map(FaultInjector(13, specs), self.NAMES)
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            child = pool.apply(
                _decision_table_in_subprocess, (13, specs, self.NAMES)
            )
        assert parent == child

    def test_injector_is_picklable(self):
        injector = FaultInjector(3, [FaultSpec.bitrot()])
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.seed == 3
        assert clone.specs == injector.specs


class TestSchedules:
    def test_match_pattern_limits_scope(self):
        injector = FaultInjector(0, [FaultSpec.raising(match="bad-*")])
        with pytest.raises(InjectedFault):
            injector.before_document("bad-doc", 1)
        injector.before_document("good-doc", 1)  # no raise

    def test_flaky_then_recover(self):
        injector = FaultInjector(0, [FaultSpec.flaky(fail_attempts=2)])
        for attempt in (1, 2):
            with pytest.raises(InjectedFault) as excinfo:
                injector.before_document("doc", attempt)
            assert excinfo.value.transient
        injector.before_document("doc", 3)  # recovered

    def test_permanent_fault_is_marked_non_transient(self):
        injector = FaultInjector(0, [FaultSpec.raising(transient=False)])
        with pytest.raises(InjectedFault) as excinfo:
            injector.before_document("doc", 1)
        assert not excinfo.value.transient

    def test_slow_spec_sleeps_then_recovers(self, monkeypatch):
        naps = []
        monkeypatch.setattr(
            "repro.runtime.faults.time.sleep", naps.append
        )
        injector = FaultInjector(
            0, [FaultSpec.slow(delay_s=0.2, max_attempt=1)]
        )
        injector.before_document("doc", 1)
        assert naps == [0.2]
        injector.before_document("doc", 2)  # re-dispatch is fast
        assert naps == [0.2]

    def test_empty_schedule_is_a_no_op(self):
        injector = FaultInjector(0)
        injector.before_document("doc", 1)
        assert injector.specs == ()


class TestCorruptPacked:
    """Bitrot on a packed index's shard: seeded, and a typed error."""

    def _packed_shard(self, directory, lexicon) -> str:
        directory.mkdir(exist_ok=True)
        path = str(directory / "index.rxpd")
        write_shard(PackedIndex(lexicon), path)
        return path

    def test_corrupt_bytes_is_deterministic_and_typed(self, tmp_path, lexicon):
        first = self._packed_shard(tmp_path / "a", lexicon)
        second = self._packed_shard(tmp_path / "b", lexicon)
        with open(first, "rb") as fh:
            blob = fh.read()
        for path in (first, second):
            FaultInjector(5, [FaultSpec.bitrot()]).bitrot_shard(path)
        with open(first, "rb") as fh:
            mutated = fh.read()
        assert mutated != blob
        with open(second, "rb") as fh:
            assert fh.read() == mutated  # same seed, same flip
        assert mutated[:4] == b"RXPD"  # header left intact -> typed error
        # Pool workers attach with verify=True: the flip is a CRC error.
        with pytest.raises(PackedIndexError) as excinfo:
            PackedIndex.from_mmap(first, verify=True)
        assert isinstance(excinfo.value, PackedIndexCRCError)

    def test_no_corrupt_spec_leaves_bytes_alone(self, tmp_path, lexicon):
        path = self._packed_shard(tmp_path, lexicon)
        with open(path, "rb") as fh:
            blob = fh.read()
        injector = FaultInjector(5, [FaultSpec.raising()])
        assert injector.bitrot_shard(path) is None
        with open(path, "rb") as fh:
            assert fh.read() == blob
        attached = PackedIndex.from_mmap(path, verify=True)
        assert len(attached) == len(lexicon)


class TestSpecParse:
    def test_bare_kind(self):
        spec = FaultSpec.parse("bitrot")
        assert (spec.kind, spec.match, spec.rate) == ("bitrot", "*", 1.0)

    def test_kind_and_match(self):
        spec = FaultSpec.parse("kill_midbatch:*doc-03*")
        assert spec.kind == "kill_midbatch"
        assert spec.match == "*doc-03*"
        assert spec.rate == 1.0

    def test_kind_match_and_rate(self):
        spec = FaultSpec.parse("raise:*.xml:0.25")
        assert (spec.kind, spec.match, spec.rate) == ("raise", "*.xml", 0.25)

    def test_colons_in_match_fold_back_when_tail_is_not_a_rate(self):
        # Paths contain colons; only a float-parseable tail is a rate.
        spec = FaultSpec.parse("kill_midbatch:C:*docs*:final.xml")
        assert spec.match == "C:*docs*:final.xml"
        assert spec.rate == 1.0
        with_rate = FaultSpec.parse("kill_midbatch:C:*docs*:0.5")
        assert with_rate.match == "C:*docs*"
        assert with_rate.rate == 0.5

    def test_bad_kind_and_bad_rate_raise_with_the_spec_text(self):
        with pytest.raises(ValueError, match="explode"):
            FaultSpec.parse("explode:*")
        with pytest.raises(ValueError, match="bad fault spec"):
            FaultSpec.parse("raise:*:2.5")

    def test_constructors_for_the_new_kinds(self):
        kill = FaultSpec.kill_midbatch(match="*batch*")
        assert kill.kind == "kill_midbatch" and kill.match == "*batch*"
        rot = FaultSpec.bitrot(rate=0.5)
        assert rot.kind == "bitrot" and rot.rate == 0.5


class TestBitrotShard:
    def _shard(self, tmp_path, lexicon) -> str:
        path = str(tmp_path / "lexicon.rxpd")
        write_shard(PackedIndex(lexicon), path,
                    fingerprint=lexicon.fingerprint())
        return path

    def test_flip_is_seeded_in_body_and_in_place(self, tmp_path, lexicon):
        path = self._shard(tmp_path, lexicon)
        with open(path, "rb") as fh:
            before = fh.read()
        injector = FaultInjector(42, [FaultSpec.bitrot()])
        offset = injector.bitrot_shard(path)
        # Past the 32-byte disk header: attach-time magic checks still
        # pass, only the scrubber's body CRC can catch the flip.
        assert offset is not None and offset >= 32
        assert offset == FaultInjector(
            42, [FaultSpec.bitrot()]
        ).bitrot_shard(self._shard(tmp_path, lexicon))  # deterministic
        with open(path, "rb") as fh:
            after = fh.read()
        assert len(after) == len(before)
        assert after[:32] == before[:32]
        diff = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert diff == [offset]
        assert after[offset] == before[offset] ^ 0xFF

    def test_match_patterns_the_basename(self, tmp_path, lexicon):
        path = self._shard(tmp_path, lexicon)
        miss = FaultInjector(42, [FaultSpec.bitrot(match="other-*.rxpd")])
        assert miss.bitrot_shard(path) is None
        hit = FaultInjector(42, [FaultSpec.bitrot(match="lexicon.*")])
        assert hit.bitrot_shard(path) is not None

    def test_no_bitrot_spec_is_a_no_op(self, tmp_path, lexicon):
        path = self._shard(tmp_path, lexicon)
        with open(path, "rb") as fh:
            before = fh.read()
        injector = FaultInjector(42, [FaultSpec.raising()])
        assert injector.bitrot_shard(path) is None
        with open(path, "rb") as fh:
            assert fh.read() == before

    def test_tiny_file_is_left_alone(self, tmp_path):
        stub = tmp_path / "stub.rxpd"
        stub.write_bytes(b"\x00" * 33)
        injector = FaultInjector(42, [FaultSpec.bitrot()])
        assert injector.bitrot_shard(str(stub)) is None


class TestKillMidbatchSpec:
    # The fault itself SIGKILLs the process, so only the schedule logic
    # is testable in-process; the actual kill (and the resume that
    # follows) is proven by the kill-resume leg of the CI chaos gate.
    def test_fires_only_for_matching_documents(self):
        injector = FaultInjector(42, [
            FaultSpec.kill_midbatch(match="*doc-05*")
        ])
        spec = injector.specs[0]
        assert injector._fires(0, spec, "corpus/doc-05.xml")
        assert not injector._fires(0, spec, "corpus/doc-06.xml")
