"""Campaign batch mode: the engine pool and cross-problem sharing."""

import pickle

import pytest

from repro import solve
from repro.benchgen.builders import nat_mod_system, nat_two_residues_system
from repro.chc.transform import preprocess
from repro.harness import batch_order, run_campaign
from repro.benchgen.suite import Suite
from repro.mace import (
    ENGINE_SNAPSHOT_VERSION,
    EnginePool,
    EngineSnapshotError,
    find_model,
    signature_fingerprint,
)
from repro.mace import pool as pool_module
from repro.mace.finder import (
    FinderError,
    FinderOptions,
    ModelFinder,
    check_engine,
    clause_key,
)
from repro.problems import even_system, odd_unsat_system
from repro.stlc import stlc_problems


def stlc_batch(count=4):
    return [
        p for p in stlc_problems() if p.category == "non-tautology"
    ][:count]


class TestFingerprint:
    def test_same_family_shares_fingerprint(self):
        a = signature_fingerprint(preprocess(nat_mod_system(2, 0, 1)))
        b = signature_fingerprint(preprocess(nat_mod_system(5, 1, 2)))
        assert a == b

    def test_different_signatures_differ(self):
        a = signature_fingerprint(preprocess(nat_mod_system(2, 0, 1)))
        b = signature_fingerprint(preprocess(even_system()))
        c = signature_fingerprint(
            preprocess(nat_two_residues_system(2, 0, 1))
        )
        assert a != b
        assert a != c  # extra predicate Q changes the signature

    def test_clause_key_is_renaming_invariant(self):
        # the same problem flattened twice uses different fresh names;
        # every clause must still key identically
        finder_a = ModelFinder(preprocess(nat_mod_system(3, 1, 2)))
        finder_b = ModelFinder(preprocess(nat_mod_system(3, 1, 2)))
        keys_a = [clause_key(f) for f in finder_a.flat_clauses]
        keys_b = [clause_key(f) for f in finder_b.flat_clauses]
        assert keys_a == keys_b
        # a different query produces at least one differing key
        finder_c = ModelFinder(preprocess(nat_mod_system(3, 1, 4)))
        keys_c = [clause_key(f) for f in finder_c.flat_clauses]
        assert keys_a != keys_c


class TestEnginePool:
    def test_compatible_problems_share_one_engine(self):
        pool = EnginePool()
        for m, r, c in ((2, 0, 1), (3, 0, 1), (4, 1, 2)):
            prepared = preprocess(nat_mod_system(m, r, c))
            finder = pool.finder(prepared)
            result = finder.search()
            assert result.found
            pool.release(finder)
        stats = pool.as_dict()
        assert stats["engines_created"] == 1
        assert stats["engine_hits"] == 2
        assert stats["cross_problem_clauses"] > 0

    def test_incompatible_signatures_get_separate_engines(self):
        pool = EnginePool()
        a = pool.engine_for(preprocess(nat_mod_system(2, 0, 1)))
        b = pool.engine_for(preprocess(even_system()))
        c = pool.engine_for(preprocess(nat_mod_system(5, 1, 3)))
        assert a is not b
        assert a is c
        assert len(pool) == 2

    def test_differential_verdicts_nat_family(self):
        pool = EnginePool()
        for m, r, c in ((2, 0, 1), (2, 1, 3), (3, 0, 2), (4, 0, 3)):
            prepared = preprocess(nat_mod_system(m, r, c))
            fresh = find_model(prepared)
            finder = pool.finder(prepared)
            pooled = finder.search()
            assert fresh.found == pooled.found
            assert fresh.model.size() == pooled.model.size()
            assert pooled.model.satisfies(prepared)
            pool.release(finder)

    def test_differential_verdicts_stlc_suite(self):
        # the ISSUE's differential criterion: pooled solving of the
        # shared-signature STLC batch gives verdicts identical to
        # fresh-engine runs (model sizes may differ on these
        # quantifier-alternating systems — both models are verified)
        pool = EnginePool()
        for problem in stlc_batch(3):
            system = problem.system()
            fresh = solve(system, timeout=60)
            pooled = solve(system, timeout=60, engine_pool=pool)
            assert fresh.status == pooled.status, problem.name
            assert pooled.status.value == problem.expected
            assert pooled.details["engine_pool"]["pooled"] is True
        stats = pool.as_dict()
        assert stats["engines_created"] == 1
        assert stats["engine_hits"] == len(stlc_batch(3)) - 1
        assert stats["cross_problem_clauses"] > 0

    def test_unsat_problem_through_pool(self):
        pool = EnginePool()
        prepared = preprocess(odd_unsat_system())
        fresh = find_model(prepared, max_total_size=5)
        finder = pool.finder(prepared, FinderOptions(max_total_size=5))
        pooled = finder.search()
        assert not fresh.found and not pooled.found

    def test_released_finder_cannot_search_again(self):
        pool = EnginePool()
        finder = pool.finder(preprocess(nat_mod_system(2, 0, 1)))
        assert finder.search().found
        pool.release(finder)
        pool.release(finder)  # idempotent
        with pytest.raises(FinderError):
            finder.search()

    def test_engine_recycled_after_problem_cap(self, monkeypatch):
        monkeypatch.setattr(pool_module, "MAX_PROBLEMS_PER_ENGINE", 2)
        pool = EnginePool()
        systems = [
            preprocess(nat_mod_system(2, 0, 1)),
            preprocess(nat_mod_system(3, 0, 1)),
            preprocess(nat_mod_system(4, 0, 1)),
        ]
        engines = []
        for prepared in systems:
            finder = pool.finder(prepared)
            engines.append(finder._engine)
            finder.search()
            pool.release(finder)
        assert engines[0] is engines[1]
        assert engines[2] is not engines[0]
        assert pool.stats.engine_recycles == 1

    def test_lru_eviction_bounds_engine_count(self, monkeypatch):
        monkeypatch.setattr(pool_module, "MAX_ENGINES", 1)
        pool = EnginePool()
        pool.engine_for(preprocess(nat_mod_system(2, 0, 1)))
        pool.engine_for(preprocess(even_system()))
        assert len(pool) == 1
        assert pool.stats.engines_evicted == 1

    def test_engine_key_separates_pool_slots(self):
        pool = EnginePool()
        prepared = preprocess(nat_mod_system(2, 0, 1))
        off = FinderOptions(symmetry_breaking=False)
        engine = pool.engine_for(prepared, off)
        assert engine.symmetry_breaking is False
        assert pool.engine_for(prepared) is not engine
        assert pool.engine_for(prepared, off) is engine
        # pool.finder hands out the engine built under the same key
        finder = pool.finder(prepared, off)
        assert finder._engine is engine
        assert finder.search().found
        # a finder with another engine key is rejected
        with pytest.raises(FinderError):
            ModelFinder(prepared, engine=engine)

    def test_mismatched_engine_rejected(self):
        pool = EnginePool()
        engine = pool.engine_for(preprocess(nat_mod_system(2, 0, 1)))
        with pytest.raises(FinderError):
            ModelFinder(preprocess(even_system()), engine=engine)

    def test_clause_groups_are_shared(self):
        pool = EnginePool()
        first = pool.finder(preprocess(nat_mod_system(3, 0, 1)))
        first.search()
        engine = first._engine
        shared_before = engine.groups_shared
        # same modulus, same residue, different clash: base + step
        # clauses are identical and must map to the same groups
        second = pool.finder(preprocess(nat_mod_system(3, 0, 2)))
        second.search()
        assert second._engine is engine
        assert engine.groups_shared > shared_before


class TestRInGenCampaign:
    def test_config_knobs(self):
        pool = EnginePool()
        result = solve(
            nat_mod_system(2, 0, 1), timeout=10, engine_pool=pool
        )
        assert result.is_sat
        assert result.details["engine_pool"]["pooled"] is True
        assert pool.stats.released == 1


class TestHarnessCampaign:
    def suite(self) -> Suite:
        suite = Suite("CampaignTiny")
        suite.add(
            "mod2", "mod",
            lambda: nat_mod_system(2, 0, 1), "sat", ("Reg",),
        )
        suite.add(
            "even", "parity", even_system, "sat", ("Reg",),
        )
        suite.add(
            "mod3", "mod",
            lambda: nat_mod_system(3, 0, 1), "sat", ("Reg",),
        )
        return suite

    def test_batch_order_groups_by_fingerprint(self):
        ordered = batch_order(list(self.suite()))
        assert [p.name for p in ordered] == ["mod2", "mod3", "even"]

    def test_run_campaign_share_engines(self):
        shared = run_campaign(
            [self.suite()],
            solvers=["ringen"],
            timeout=10,
            share_engines=True,
        )
        fresh = run_campaign(
            [self.suite()], solvers=["ringen"], timeout=10
        )
        assert shared.pool_stats is not None
        assert fresh.pool_stats is None
        assert shared.pool_stats["problems"] == 3
        assert shared.pool_stats["engine_hits"] >= 1
        for record in shared.records:
            other = fresh.record(record.problem.name, record.solver)
            assert other is not None
            assert record.status is other.status, record.problem.name


class TestEngineSnapshot:
    """Engine pickling and the disk warm cache."""

    def _warm_pool(self, cache_dir=None):
        pool = EnginePool(cache_dir=cache_dir)
        for m, r, c in ((2, 0, 1), (3, 0, 1)):
            finder = pool.finder(preprocess(nat_mod_system(m, r, c)))
            assert finder.search().found
            pool.release(finder)
        return pool

    def _header(self):
        engine = EnginePool().engine_for(preprocess(nat_mod_system(2, 0, 1)))
        return engine.header()

    def test_engine_round_trip_preserves_verdicts(self):
        pool = self._warm_pool()
        engine = next(iter(pool._engines.values())).engine
        restored = pickle.loads(pickle.dumps(engine))
        prepared = preprocess(nat_mod_system(4, 1, 2))
        cold = find_model(prepared)
        warm = ModelFinder(prepared, engine=restored).search()
        assert cold.found == warm.found
        assert warm.model.satisfies(prepared)

    def test_snapshot_rejects_foreign_schema(self):
        with pytest.raises(EngineSnapshotError):
            check_engine({"schema": "cdcl", "version": 1}, FinderOptions())

    def test_snapshot_rejects_wrong_version(self):
        header = self._header()
        header["version"] = ENGINE_SNAPSHOT_VERSION + 1
        with pytest.raises(EngineSnapshotError, match="version"):
            check_engine(header, FinderOptions())

    @pytest.mark.parametrize(
        "options, fingerprint",
        [
            pytest.param(
                FinderOptions(symmetry_breaking=False), None, id="engine-key"
            ),
            pytest.param(
                FinderOptions(),
                signature_fingerprint(preprocess(even_system())),
                id="fingerprint",
            ),
        ],
    )
    def test_header_rejects_another_engine(self, options, fingerprint):
        header = self._header()
        # the engine's own options and signature pass
        check_engine(header, FinderOptions(), header["fingerprint"])
        with pytest.raises(EngineSnapshotError):
            check_engine(header, options, fingerprint)

    def test_disk_cache_round_trip(self, tmp_path):
        cache = tmp_path / "engines"
        first = self._warm_pool(cache_dir=cache)
        assert first.flush_cache() == 1
        assert first.stats.snapshot_saves >= 1
        assert list(cache.iterdir())  # something was persisted

        second = self._warm_pool(cache_dir=cache)
        assert second.stats.snapshot_hits == 1
        assert second.stats.engines_created == 0
        stats = second.as_dict()
        for key in (
            "snapshot_saves",
            "snapshot_hits",
            "snapshot_misses",
            "snapshot_rejected",
            "engines_live",
        ):
            assert key in stats

    def test_disk_cache_verdict_parity(self, tmp_path):
        cache = tmp_path / "engines"
        self._warm_pool(cache_dir=cache).flush_cache()
        warm_pool = EnginePool(cache_dir=cache)
        for m, r, c in ((2, 0, 1), (4, 1, 2), (5, 2, 3)):
            prepared = preprocess(nat_mod_system(m, r, c))
            cold = find_model(prepared)
            finder = warm_pool.finder(prepared)
            warm = finder.search()
            assert cold.found == warm.found, (m, r, c)
            assert warm.model.satisfies(prepared)
            warm_pool.release(finder)
        assert warm_pool.stats.snapshot_hits == 1

    def test_corrupted_cache_falls_back_cold(self, tmp_path):
        cache = tmp_path / "engines"
        self._warm_pool(cache_dir=cache).flush_cache()
        for entry in cache.iterdir():
            entry.write_bytes(b"not a pickle")
        pool = self._warm_pool(cache_dir=cache)
        assert pool.stats.snapshot_rejected >= 1
        assert pool.stats.snapshot_hits == 0
        assert pool.stats.engines_created == 1  # cold start worked

    def test_wrong_version_cache_falls_back_cold(self, tmp_path):
        def bump_version(entry):
            header, engine = pickle.loads(entry.read_bytes())
            header["version"] += 1
            entry.write_bytes(pickle.dumps((header, engine)))

        def foreign_engine_key(entry):
            header, engine = pickle.loads(entry.read_bytes())
            header["engine_key"] = (not header["engine_key"][0],)
            entry.write_bytes(pickle.dumps((header, engine)))

        def engine_v4(entry):
            # a warm cache written by a build whose engines were stored
            # as version-4 plain-data dicts
            header, _ = pickle.loads(entry.read_bytes())
            entry.write_bytes(
                pickle.dumps({**header, "version": 4, "solver": {}})
            )

        def engine_v5(entry):
            # a warm cache written by a build whose solver indexed values
            # by variable and watches by literal code (version 5)
            header, engine = pickle.loads(entry.read_bytes())
            entry.write_bytes(pickle.dumps(({**header, "version": 5}, engine)))

        for spoil in (bump_version, foreign_engine_key, engine_v4, engine_v5):
            cache = tmp_path / spoil.__name__
            self._warm_pool(cache_dir=cache).flush_cache()
            for entry in cache.iterdir():
                spoil(entry)
            # _warm_pool asserts both problems are still solved
            pool = self._warm_pool(cache_dir=cache)
            assert pool.stats.snapshot_rejected >= 1, spoil.__name__
            assert pool.stats.snapshot_hits == 0, spoil.__name__
            assert pool.stats.engines_created == 1, spoil.__name__

    def test_wrong_fingerprint_cache_falls_back_cold(self, tmp_path):
        cache = tmp_path / "engines"
        self._warm_pool(cache_dir=cache).flush_cache()
        # a cache entry for signature A renamed to signature B's slot:
        # the fingerprint in its stored header must reject it
        other = EnginePool(cache_dir=cache)
        prepared = preprocess(even_system())
        other.engine_for(prepared)
        other.flush_cache()
        entries = sorted(cache.iterdir())
        assert len(entries) == 2
        data0 = entries[0].read_bytes()
        data1 = entries[1].read_bytes()
        entries[0].write_bytes(data1)
        entries[1].write_bytes(data0)
        pool = self._warm_pool(cache_dir=cache)
        assert pool.stats.snapshot_rejected >= 1
        assert pool.stats.engines_created == 1

    def test_warm_cache_hits_only_under_the_same_policy(self, tmp_path):
        # a cache entry written with symmetry breaking off gives a
        # default-policy solve no warm hit
        cache = str(tmp_path / "engines")
        solve(even_system(), symmetry_breaking=False, engine_cache_dir=cache)
        pool = EnginePool(cache_dir=cache)
        result = solve(even_system(), engine_pool=pool)
        assert result.is_sat
        assert pool.stats.snapshot_hits == 0
        assert result.details["finder"]["cross_problem_clauses"] == 0
        # an entry written under the same policy does
        solve(even_system(), engine_cache_dir=cache)
        pool = EnginePool(cache_dir=cache)
        result = solve(even_system(), engine_pool=pool)
        assert result.is_sat
        assert pool.stats.snapshot_hits == 1
        assert result.details["finder"]["cross_problem_clauses"] > 0
