"""Translation validation: clean Magritte compiles certify on every
core, and hand-corrupted program claims are each rejected with an
actionable finding (the adversarial fixtures from ISSUE 7)."""

from repro.artc import codegen, planir
from repro.artc.compiler import compile_trace
from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.verify.transval import CORES, Certificate, certify, certify_cores

SAMPLES = ("itunes_startsmall1", "pages_pdf15")

_traced = {}


def traced_for(sample):
    if sample not in _traced:
        from repro.workloads.magritte import build_suite

        app = build_suite([sample])[sample]
        _traced[sample] = trace_application(app, PLATFORMS["mac-hdd"], seed=0)
    return _traced[sample]


def fresh_benchmark(sample="itunes_startsmall1"):
    """A private compile: corruption tests mutate cached programs."""
    traced = traced_for(sample)
    return compile_trace(traced.trace, traced.snapshot)


def checks_of(cert):
    return sorted(finding.check for finding in cert.findings)


class TestCleanCertification(object):
    def test_every_magritte_sample_certifies_on_every_core(self):
        for sample in SAMPLES:
            bench = fresh_benchmark(sample)
            for core in CORES:
                cert = certify(bench, core)
                assert cert.ok, (sample, core, cert.findings[:3])
                assert cert.findings == []
                assert cert.n_obligations > 0

    def test_jit_certificate_covers_program_obligations(self):
        cert = certify(fresh_benchmark(), "jit")
        for category in ("plan_entries", "graph_nodes", "gates",
                         "releases", "bindings", "conformance"):
            assert cert.obligations.get(category, 0) > 0, category

    def test_certificate_roundtrip(self):
        cert = certify(fresh_benchmark(), "jit")
        clone = Certificate.from_dict(cert.to_dict())
        assert clone.core == cert.core
        assert clone.ok == cert.ok
        assert clone.obligations == cert.obligations
        assert clone.key == cert.key


class TestAdversarialPrograms(object):
    """Each fixture corrupts the (artc, reduced) program's claims table
    the way a buggy emitter would, then asserts certification rejects
    it with the specific actionable finding."""

    def _certify_corrupted(self, mutate):
        bench = fresh_benchmark()
        plan = planir.default_plan(bench)
        program = codegen.program_for(bench, plan, "artc", True)
        mutate(program.facts)
        return certify(bench, "jit")

    def test_wrongly_elided_gate_rejected(self):
        def mutate(facts):
            for fact in facts.values():
                if fact["gate"]:
                    fact["gate"] = False
                    return
            raise AssertionError("sample has no gated action")

        cert = self._certify_corrupted(mutate)
        assert not cert.ok
        assert "elided-gate" in checks_of(cert)
        finding = [f for f in cert.findings if f.check == "elided-gate"][0]
        assert finding.actions, "finding must name the unguarded action"
        assert "predecessor" in finding.message

    def test_stale_expected_ret_rejected(self):
        def mutate(facts):
            for fact in facts.values():
                if fact["conformance"] == "ok_ret":
                    fact["expected_ret"] = (fact["expected_ret"] or 0) + 17
                    return
            raise AssertionError("sample has no ok_ret conformance check")

        cert = self._certify_corrupted(mutate)
        assert not cert.ok
        assert "stale-expected-ret" in checks_of(cert)

    def test_missing_conformance_check_rejected(self):
        def mutate(facts):
            for fact in facts.values():
                if fact["conformance"] is not None:
                    fact["conformance"] = None
                    return
            raise AssertionError("no conformance check to drop")

        cert = self._certify_corrupted(mutate)
        assert not cert.ok
        assert "missing-conformance-check" in checks_of(cert)

    def test_dropped_release_run_rejected(self):
        def mutate(facts):
            for fact in facts.values():
                if fact["releases"]:
                    fact["releases"] = []
                    return
            raise AssertionError("no release batch to drop")

        cert = self._certify_corrupted(mutate)
        assert not cert.ok
        assert "release-mismatch" in checks_of(cert)

    def test_stale_bound_constant_rejected(self):
        def mutate(facts):
            for fact in facts.values():
                if fact["args"]:
                    corrupted = [dict(args) for args in fact["args"]]
                    corrupted[0]["__stale__"] = 1
                    fact["args"] = tuple(corrupted)
                    return
            raise AssertionError("no bound argument constants")

        cert = self._certify_corrupted(mutate)
        assert not cert.ok
        assert "stale-binding" in checks_of(cert)


class TestStalePlan(object):
    def test_corrupted_plan_entry_rejected_on_every_core(self):
        bench = fresh_benchmark()
        plan = planir.default_plan(bench)
        for entry in plan.entries:
            if entry[0] == planir.STATIC:
                entry[1][1]["path"] = "/corrupted-by-test"
                break
        else:
            raise AssertionError("sample has no STATIC plan entry")
        for core in CORES:
            cert = certify(bench, core, plan=plan)
            assert not cert.ok, core
            assert "stale-plan-entry" in checks_of(cert)


def replay_fingerprint(bench, mode, core):
    """Per-action results plus the final state of one replay on the
    trace's own platform (so the replay's plan is the certified one)."""
    from repro.artc.init import initialize
    from repro.artc.replayer import ReplayConfig, replay
    from repro.tracing.snapshot import Snapshot

    fs = PLATFORMS["mac-hdd"].make_fs(seed=0)
    initialize(fs, bench.snapshot)
    report = replay(bench, fs, ReplayConfig(mode=mode, core=core))
    results = [
        (r.idx, r.tid, r.name, r.issue, r.done, r.ret, r.err, r.matched,
         r.skipped)
        for r in report.results
    ]
    final = Snapshot.capture(fs, roots=("/",), label="final").dumps()
    return report.summary(), results, final


class TestLazyLinking(object):
    """Certification reads only the claims table, so it never links
    bytecode; the first jit replay links the very program whose facts
    were certified."""

    def test_certify_never_links_and_replay_links_certified_program(
            self, monkeypatch):
        from repro.core.modes import ReplayMode

        bench = fresh_benchmark()
        links = codegen.COUNTERS["links"]
        for core in CORES:
            assert certify(bench, core).ok, core
        assert codegen.COUNTERS["links"] == links
        certified = dict(bench._jit_programs)
        modules = codegen.COUNTERS["codegen_modules"]

        linked = []
        original = codegen.JitProgram._link

        def recording_link(program):
            linked.append(program)
            original(program)

        monkeypatch.setattr(codegen.JitProgram, "_link", recording_link)
        modes = (ReplayMode.ARTC, ReplayMode.UNCONSTRAINED,
                 ReplayMode.SINGLE)
        for mode in modes + modes:
            assert replay_fingerprint(bench, mode, "jit") == \
                replay_fingerprint(bench, mode, "scoreboard"), mode
        # One link per variant used (artc reduced, free, seq), however
        # many replays run, and no program was emitted again.
        assert codegen.COUNTERS["links"] == links + len(modes)
        assert codegen.COUNTERS["codegen_modules"] == modules
        assert len({id(program) for program in linked}) == len(modes)
        assert all(any(program is cached for cached in certified.values())
                   for program in linked)
        assert bench._jit_programs.keys() == certified.keys()
        assert all(bench._jit_programs[key] is certified[key]
                   for key in certified)

    def test_facts_mutated_after_certify_still_rejected(self):
        bench = fresh_benchmark()
        assert certify(bench, "jit").ok
        plan = planir.default_plan(bench)
        program = codegen.program_for(bench, plan, "artc", True)
        for fact in program.facts.values():
            if fact["gate"]:
                fact["gate"] = False
                break
        else:
            raise AssertionError("sample has no gated action")
        cert = certify(bench, "jit")
        assert not cert.ok
        assert "elided-gate" in checks_of(cert)


class TestSharedObligations(object):
    def test_certify_cores_matches_per_core_certify(self):
        clean = fresh_benchmark()
        stale = fresh_benchmark()
        plan = planir.default_plan(stale)
        for entry in plan.entries:
            if entry[0] == planir.STATIC:
                entry[1][1]["path"] = "/corrupted-by-test"
                break
        for bench in (clean, stale):
            shared = certify_cores(bench)
            assert [cert.core for cert in shared] == list(CORES)
            for cert in shared:
                assert cert.to_dict() == certify(bench, cert.core).to_dict()
        assert not any(cert.ok for cert in certify_cores(stale))
