"""The documentation system is part of the contract surface.

``docs/ARCHITECTURE.md`` and ``docs/ADDING_A_SUMMARY.md`` are
load-bearing (they document the three invariants and the extension
recipe), so this module keeps them from rotting: intra-repo links must
resolve (same checker the CI docs job runs), the README must link both
guides, the architecture page must only point at test files that exist,
and the README registry table must stay in sync with the live registry.
"""

from __future__ import annotations

import pathlib
import re
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import check_docs_links  # noqa: E402  (scripts/ is not a package)

DOCS = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "docs" / "ARCHITECTURE.md",
    REPO_ROOT / "docs" / "ADDING_A_SUMMARY.md",
]


class TestDocsExist:
    @pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
    def test_exists_and_nonempty(self, path):
        assert path.is_file()
        assert len(path.read_text(encoding="utf-8")) > 500

    def test_readme_links_both_guides(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/ADDING_A_SUMMARY.md" in readme


class TestIntraRepoLinks:
    def test_all_default_targets_resolve(self):
        failures = []
        for path in check_docs_links.default_targets(REPO_ROOT):
            failures.extend(check_docs_links.check_file(path, REPO_ROOT))
        assert not failures, "\n".join(failures)

    def test_checker_catches_broken_file_link(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [gone](no-such-file.md)\n", encoding="utf-8")
        failures = check_docs_links.check_file(page, tmp_path)
        assert len(failures) == 1 and "no-such-file.md" in failures[0]

    def test_checker_catches_broken_anchor(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "# Real heading\n\nsee [gone](#not-a-heading)\n",
            encoding="utf-8",
        )
        failures = check_docs_links.check_file(page, tmp_path)
        assert len(failures) == 1 and "not-a-heading" in failures[0]
        page.write_text(
            "# Real heading\n\nsee [ok](#real-heading)\n", encoding="utf-8"
        )
        assert check_docs_links.check_file(page, tmp_path) == []


class TestDocsMatchCode:
    def test_architecture_test_pointers_exist(self):
        # Every tests/... file the architecture page points at must
        # exist - the invariants' enforcement pointers cannot dangle.
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        pointers = set(re.findall(r"tests/\w+\.py", text))
        assert len(pointers) >= 4
        for pointer in pointers:
            assert (REPO_ROOT / pointer).is_file(), pointer

    def test_adding_a_summary_table_names_real_tables(self):
        # The guide's matrix tables must name dicts that really exist in
        # the named test modules (they are asserted registry-complete
        # there, which is what the guide promises).
        guide = (REPO_ROOT / "docs" / "ADDING_A_SUMMARY.md").read_text(
            encoding="utf-8"
        )
        for table, module in [
            ("CONTRACT_SPECS", "test_api.py"),
            ("RESUME_SPECS", "test_persist.py"),
            ("PROPERTY_SPECS", "test_property_equivalence.py"),
        ]:
            assert table in guide
            module_text = (REPO_ROOT / "tests" / module).read_text(
                encoding="utf-8"
            )
            assert f"{table} = {{" in module_text, (table, module)

    def test_process_many_recipe_has_one_path_per_point(self):
        # The recipe must match the real overrides: a validating
        # 4-tuple prepare_chunk, geometry for the whole chunk, insert
        # for small chunks only, no error re-raise after a valid prefix,
        # and no scalar branch or geometry toggle.
        guide = (REPO_ROOT / "docs" / "ADDING_A_SUMMARY.md").read_text(
            encoding="utf-8"
        )
        start = guide.index("### Consume ChunkGeometry")
        recipe = guide[start : guide.index("\n## ", start)]
        assert (
            "pts, vectors, geom, cell_hashes = prepare_chunk(" in recipe
        )
        assert "if geom is None:\n        for p in pts:" in recipe
        assert "`insert` is the small-chunk path" in recipe
        assert "raise error" not in recipe
        # "vectorized_geometry" covers the deleted toggle's setter and
        # getter alike.
        for stale in ("vectorized_geometry", "scalar branch"):
            assert stale not in guide
        geometry_source = (
            REPO_ROOT / "src" / "repro" / "core" / "chunk_geometry.py"
        ).read_text(encoding="utf-8")
        assert "def prepare_chunk(" in geometry_source

    @pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
    def test_no_deleted_ignore_machinery(self, path):
        # The dim <= 2 corner filter's neighbourhood memo, the
        # per-arrival context hand-down and the per-band ignore probes
        # are gone from the library; no guide may tell a reader to use
        # them.
        text = path.read_text(encoding="utf-8")
        for stale in (
            "conservative_neighborhood",
            "PointContext",
            "with_adj",
            "high_dim_ignorable",
            "low_dim_ignorable",
            "MAX_ADJACENCY_DIM",
        ):
            assert stale not in text, stale

    @pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
    def test_no_deleted_chunk_boundary_machinery(self, path):
        # One validated chunk travels from submit to the sampler loop;
        # the per-executor geometry switch, the coerced-tuple identity
        # hand-off and the extra geometry builders are gone.
        text = path.read_text(encoding="utf-8")
        for stale in (
            "wants_geometry",
            "source_vectors",
            "pure_coords",
            "_chunk_as_array",
            "geometry_from_array",
            "compute_chunk_geometry",
            "materialize_chunk",
        ):
            assert stale not in text, stale

    def test_no_deleted_slot_pool(self):
        # Records carry their own heap stamp and footprint; the store's
        # slot pool is gone from the library and from every guide.
        stale = (
            "_slot_record",
            "_slot_tb",
            "_slot_words",
            "record.slot",
            "check_slot_integrity",
        )
        sources = sorted((REPO_ROOT / "src").rglob("*.py"))
        for path in [*DOCS, *sources]:
            text = path.read_text(encoding="utf-8")
            for name in stale:
                assert name not in text, (path.name, name)

    def test_no_serialised_eviction_heap(self):
        # The sliding samplers' eviction heap is derived state, rebuilt
        # from the records on restore: its codecs and tiebreak counter
        # are gone from the library and from every guide.
        stale = ("heap_to_columns", "heap_from_columns", "next_tiebreak")
        sources = sorted((REPO_ROOT / "src").rglob("*.py"))
        for path in [*DOCS, *sources]:
            text = path.read_text(encoding="utf-8")
            for name in stale:
                assert name not in text, (path.name, name)

    def test_one_upgrade_for_older_envelopes(self):
        # Version-1/2 envelopes are upgraded once, at the envelope
        # boundary: the per-reader legacy paths are gone from the
        # library and every guide, and ARCHITECTURE names the upgrade.
        stale = ("_legacy_sampler_from_state", "_RETIRED_PIPELINE_FIELDS")
        sources = sorted((REPO_ROOT / "src").rglob("*.py"))
        for path in [*DOCS, *sources]:
            text = path.read_text(encoding="utf-8")
            for name in stale:
                assert name not in text, (path.name, name)
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        assert "upgrade_envelope" in text

    def test_sharded_pipeline_is_built_one_way(self):
        # A shard is a plain RobustL0SamplerIW built from the spec, the
        # pipeline and coordinator constructors take only the spec, and
        # the worker has one command: the shard subclass, the legacy
        # constructor surface and the module entry point stay gone.
        stale = (
            "ShardSampler",
            "_shard_spec",
            "legacy surface",
            "python -m repro.engine.remote_worker",
        )
        sources = sorted((REPO_ROOT / "src").rglob("*.py"))
        guides = sorted((REPO_ROOT / "docs").rglob("*.md"))
        for path in [REPO_ROOT / "README.md", *guides, *sources]:
            text = path.read_text(encoding="utf-8")
            for name in stale:
                assert name not in text, (path.name, name)

    def test_query_merges_parked_columns(self):
        # A query merges the parked shard states' record columns with
        # one kernel; the pipeline's rebuild-before-query buffer is gone.
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        for name in ("merge_columns", "park_shard"):
            assert name in text, name
        pipeline = REPO_ROOT / "src" / "repro" / "engine" / "pipeline.py"
        for path in [*DOCS, pipeline]:
            text = path.read_text(encoding="utf-8")
            for stale in ("_materialize", "_shipped"):
                assert stale not in text, (path.name, stale)

    def test_one_adjacency_enumeration_per_chunk(self):
        # A chunk's adj(p) is one lazily built product, and drained
        # shard states come home decoded: the adaptive block scheduler
        # and the lazy state handle are gone from the guides, the
        # engine and the chunk geometry.
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        assert "one `adj(p)` product" in text
        engine = REPO_ROOT / "src" / "repro" / "engine"
        geometry = REPO_ROOT / "src" / "repro" / "core" / "chunk_geometry.py"
        for path in [*DOCS, *sorted(engine.glob("*.py")), geometry]:
            text = path.read_text(encoding="utf-8")
            for stale in (
                "_precompute_adjacency",
                "_ADJ_BLOCK",
                "DeferredStates",
            ):
                assert stale not in text, (path.name, stale)

    def test_architecture_documents_hot_path(self):
        # The per-record store mark and footprint, the adjacency index
        # and the shared-geometry cache invariant are load-bearing perf
        # architecture: the sections must exist and name machinery that
        # really exists in the code.
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        assert "#### The hot path's per-record fields" in text
        assert "#### The adjacency index" in text
        assert "## The shared-geometry cache invariant" in text
        base_source = (
            REPO_ROOT / "src" / "repro" / "core" / "base.py"
        ).read_text(encoding="utf-8")
        for name in (
            "record.stored",
            "record.words",
            "check_words_integrity",
            "_buckets",
            "_overflow",
            "find_overflow",
            "check_index_integrity",
        ):
            assert name in text
            assert name in base_source
        geometry_source = (
            REPO_ROOT / "src" / "repro" / "core" / "chunk_geometry.py"
        ).read_text(encoding="utf-8")
        for name in (
            "valid_for",
            "feed_copies_shared",
            "chunk_geometry_for",
        ):
            assert name in text
            assert name in geometry_source
        kernels_source = (
            REPO_ROOT / "src" / "repro" / "geometry" / "kernels.py"
        ).read_text(encoding="utf-8")
        assert "adjacent_cells_chunk" in text
        assert "def adjacent_cells_chunk" in kernels_source
        assert "survival_exponents" in text
        assert "def survival_exponents" in geometry_source

    def test_readme_registry_table_matches_live_registry(self):
        from repro.api import available, entry

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for key in available():
            assert f"`{key}`" in readme, (
                f"registry key {key!r} missing from the README table"
            )
            assert entry(key).spec_cls.__name__ in readme

    def test_architecture_documents_serving_layer(self):
        # The serving-layer section must exist, point at the concurrency
        # equivalence suite, and name only real routes.
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        assert "## Serving layer" in text
        assert "tests/test_service.py" in text
        from repro.service.app import SummaryService

        source = pathlib.Path(
            sys.modules[SummaryService.__module__].__file__
        ).read_text(encoding="utf-8")
        for route in ("ingest", "query", "checkpoint", "stream"):
            assert route in text
            assert route in source

    def test_readme_serving_quickstart_is_honest(self):
        # The README quickstart must name the real entry points and the
        # example it promises.
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "repro.service" in readme
        assert "ServiceSpec" in readme and "create_app" in readme
        assert "ASGITestClient" in readme
        assert "repro.cli serve" in readme
        assert "examples/multi_tenant.py" in readme
        assert (REPO_ROOT / "examples" / "multi_tenant.py").is_file()
        import repro.service as service

        for name in ("ServiceSpec", "create_app"):
            assert hasattr(service, name)

    def test_architecture_documents_state_backends(self):
        # The state-backends section must exist, document the CAS
        # contract and the crash-safety invariant, name every real
        # backend flavour, and point at the suites that enforce it.
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        assert "## State backends" in text
        assert "compare_and_swap" in text
        assert "CASConflictError" in text
        # The crash-safety invariant (tolerating markdown line wraps).
        assert "complete old value" in text and "torn mix" in text
        for pointer in ("tests/test_backends.py", "tests/test_resumable.py"):
            assert pointer in text
            assert (REPO_ROOT / pointer).is_file(), pointer
        from repro.backends import BACKEND_NAMES, StateBackend

        for flavour in BACKEND_NAMES:
            assert f"`{flavour}`" in text, (
                f"backend flavour {flavour!r} missing from the docs"
            )
        # The documented surface is the real one.
        for method in ("put", "get_versioned", "compare_and_swap", "count"):
            assert hasattr(StateBackend, method)

    def test_readme_documents_state_backends(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "StateBackend" in readme
        assert "repro.backends" in readme
        assert "--backend" in readme
        assert "repro[redis]" in readme
        import repro.backends as backends

        for name in ("StateBackend", "make_backend", "BACKEND_NAMES"):
            assert hasattr(backends, name)
        from repro.engine import run_resumable  # noqa: F401  (README names it)

    def test_readme_documents_executor_options(self):
        from repro.engine.executors import EXECUTOR_NAMES

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for name in EXECUTOR_NAMES:
            assert f"`{name}`" in readme, (
                f"executor {name!r} missing from the README"
            )

    def test_architecture_documents_remote_workers(self):
        # The remote-workers section must exist, document the lease /
        # heartbeat / CAS-fence protocol, and point at the chaos suite
        # that enforces it.
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        assert "#### Remote workers" in text
        for keyword in ("lease", "heartbeat", "CAS fence", "epoch"):
            assert keyword in text, (
                f"remote-worker keyword {keyword!r} missing from the docs"
            )
        pointer = "tests/test_remote_executor.py"
        assert pointer in text
        assert (REPO_ROOT / pointer).is_file()
        # The documented surface is the real one.
        from repro.backends.lease import acquire_lease, renew_lease  # noqa: F401
        from repro.engine.remote_worker import run_worker  # noqa: F401

    def test_readme_documents_remote_workers(self):
        # The README quickstart must name the real worker command and
        # the spec knobs it shows.
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "python -m repro.cli worker" in readme
        for knob in ("queue_backend", "queue_path", "queue_key"):
            assert knob in readme, (
                f"remote spec knob {knob!r} missing from the README"
            )
        import dataclasses

        from repro.api import PipelineSpec

        fields = {f.name for f in dataclasses.fields(PipelineSpec)}
        for knob in ("queue_backend", "queue_path", "queue_key"):
            assert knob in fields
