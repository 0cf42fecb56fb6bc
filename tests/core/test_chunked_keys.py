"""Row-block key pipeline — bit-identity contract.

The angle pass always walks the corpus serially in row blocks, and the
block size changes *nothing* but peak memory: float64 angles and int64
keys must be bit-identical to the one-block (whole-corpus) pass for
every block size, and the facade's keys and placements must not depend
on :data:`DEFAULT_CHUNK_ROWS`.
"""

import numpy as np
import pytest

import repro.core.angles as angles_mod
from repro.core.angles import DEFAULT_CHUNK_ROWS, absolute_angle, absolute_angles
from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.naming import angle_to_key, corpus_to_keys
from repro.overlay.idspace import KeySpace
from repro.workload import WorldCupParams, generate_trace

N_ITEMS = 500


@pytest.fixture(scope="module")
def corpus():
    return generate_trace(
        WorldCupParams(n_items=N_ITEMS, n_keywords=250), seed=77
    ).corpus


class TestBitIdentity:
    def test_chunked_matches_whole_exactly(self, corpus):
        whole = absolute_angles(corpus)
        for chunk in (1, 7, 64, 100, N_ITEMS, N_ITEMS + 1, 10**6):
            chunked = absolute_angles(corpus, chunk_rows=chunk)
            assert chunked.dtype == np.float64
            assert np.array_equal(whole, chunked), f"chunk_rows={chunk}"

    def test_keys_identical(self, corpus, monkeypatch):
        space = KeySpace(10**8)
        whole = corpus_to_keys(corpus, space)
        monkeypatch.setattr(angles_mod, "DEFAULT_CHUNK_ROWS", 33)
        chunked = corpus_to_keys(corpus, space)
        assert whole.dtype == np.int64
        assert np.array_equal(whole, chunked)

    def test_matches_scalar_reference(self, corpus):
        chunked = absolute_angles(corpus, chunk_rows=13)
        for row in (0, 1, N_ITEMS // 2, N_ITEMS - 1):
            assert chunked[row] == pytest.approx(
                absolute_angle(corpus.vector(row)), abs=1e-12
            )

    def test_chunk_boundary_straddles_empty_rows(self):
        """Zero rows (θ = π/2) at chunk edges must not shift segments."""
        from repro.vsm.sparse import Corpus
        from scipy.sparse import csr_matrix

        rng = np.random.default_rng(5)
        dense = rng.random((20, 30)) * (rng.random((20, 30)) < 0.3)
        dense[0] = 0.0
        dense[7] = 0.0  # straddled by chunk_rows=7 boundaries
        dense[19] = 0.0
        corpus = Corpus(csr_matrix(dense))
        whole = absolute_angles(corpus)
        for chunk in (1, 7, 8):
            assert np.array_equal(whole, absolute_angles(corpus, chunk_rows=chunk))

    def test_invalid_chunk_rows(self, corpus):
        with pytest.raises(ValueError, match="chunk_rows"):
            absolute_angles(corpus, chunk_rows=0)


def build_system(corpus, naming=None, **cfg_kwargs):
    rng = np.random.default_rng(5)
    sample_ids = np.sort(rng.choice(corpus.n_items, 50, replace=False))
    if naming is None:
        cfg = MeteorographConfig(scheme=PlacementScheme.UNUSED_HASH, **cfg_kwargs)
    else:
        cfg = MeteorographConfig(
            scheme=PlacementScheme.NONE, naming_scheme=naming, **cfg_kwargs
        )
    return Meteorograph.build(
        60,
        corpus.dim,
        rng=np.random.default_rng(9),
        sample=corpus.subsample(sample_ids),
        config=cfg,
    )


def placements(system):
    return {
        n.node_id: frozenset(n.item_ids())
        for n in system.network.nodes()
        if len(n)
    }


class TestSystemWiring:
    def test_corpus_keys_chunk_knob(self, corpus):
        """The facade's keys are the Eq. 4 map (then Eq. 6) of the
        angle kernel's output at any ``chunk_rows``."""
        system = build_system(corpus)
        a_sys, p_sys = system.corpus_keys(corpus)
        thetas = absolute_angles(corpus, chunk_rows=19)
        a_chunk = np.array([angle_to_key(t, system.space) for t in thetas])
        assert np.array_equal(a_sys, a_chunk)
        assert np.array_equal(p_sys, system.equalizer.remap_many(a_chunk))

    @pytest.mark.parametrize("naming", [None, "cosine-lsh"])
    def test_small_default_chunk_matches_one_block(
        self, corpus, naming, monkeypatch
    ):
        """With DEFAULT_CHUNK_ROWS below the corpus size the facade
        walks several blocks, and its keys and placements equal the
        one-block (``chunk_rows=n``) pass, for both naming schemes."""
        import repro.lsh.bands as bands_mod

        def publish(system):
            system.publish_corpus(corpus, np.random.default_rng(3), batch=True)
            return placements(system)

        kernel = "_signature_kernel" if naming else "_angles_kernel"
        kernel_mod = bands_mod if naming else angles_mod
        one_block = build_system(corpus, naming, node_capacity=12)
        keys = one_block.corpus_keys_multi(corpus)
        placed = publish(one_block)

        blocked = build_system(corpus, naming, node_capacity=12)
        calls = []
        real = getattr(kernel_mod, kernel)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(angles_mod, "DEFAULT_CHUNK_ROWS", 37)
        monkeypatch.setattr(kernel_mod, kernel, counting)
        blocked_keys = blocked.corpus_keys_multi(corpus)
        assert len(calls) == -(-N_ITEMS // 37)  # really ran in blocks
        for a, b in zip(keys, blocked_keys):
            assert np.array_equal(a, b)
        assert publish(blocked) == placed
        assert blocked.network.sink.snapshot() == one_block.network.sink.snapshot()

    def test_publish_corpus_chunked_same_placements(self, corpus, monkeypatch):
        """Placements from keys named through the kernel's ``chunk_rows``
        keyword equal those of the default pass."""
        import repro.core.naming as naming_mod

        whole_sys = build_system(corpus, node_capacity=12)
        whole_sys.publish_corpus(corpus, np.random.default_rng(3), batch=True)
        real = naming_mod.absolute_angles
        monkeypatch.setattr(
            naming_mod, "absolute_angles", lambda c: real(c, chunk_rows=37)
        )
        chunk_sys = build_system(corpus, node_capacity=12)
        chunk_sys.publish_corpus(corpus, np.random.default_rng(3), batch=True)
        assert placements(whole_sys) == placements(chunk_sys)

    def test_default_threshold_is_sane(self):
        assert DEFAULT_CHUNK_ROWS >= 1024
