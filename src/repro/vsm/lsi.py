"""Latent semantic indexing (Fig. 2 mentions "VSM or LSI" for local indexing).

LSI factors the local term-document matrix with a truncated SVD and
ranks in the latent space, letting a node surface items that share no
literal keyword with the query but co-occur with its keywords.  This is
the optional richer local index; the simulator default stays with the
plain VSM index for speed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .sparse import SparseVector

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..sim.node import StoredItem

__all__ = ["LsiIndex"]


class LsiIndex:
    """Truncated-SVD latent index over a fixed snapshot of items.

    Unlike :class:`~repro.vsm.index.LocalVsmIndex`, this index is built
    in one shot (SVD is not incremental); call :meth:`fit` after the
    node's contents change.  Rank is clipped to what the snapshot can
    support (``min(n_items, n_terms) - 1`` for sparse SVD).
    """

    def __init__(self, dim: int, rank: int = 16) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.dim = dim
        self.rank = rank
        self._item_ids: list[int] = []
        self._by_id: dict[int, StoredItem] = {}
        self._doc_vecs: Optional[np.ndarray] = None  # (n_items, r) latent rows
        self._term_map: Optional[np.ndarray] = None  # (r, n_local_terms) projector
        self._local_terms: Optional[np.ndarray] = None  # global kw id per local col

    @property
    def fitted(self) -> bool:
        return self._doc_vecs is not None

    def fit(self, items: Sequence[StoredItem]) -> None:
        """(Re)build the latent space from a snapshot of stored items."""
        self._item_ids = [it.item_id for it in items]
        self._by_id = {it.item_id: it for it in items}
        if not items:
            self._doc_vecs = None
            self._term_map = None
            self._local_terms = None
            return
        # Compact the keyword space to the terms that actually occur locally.
        terms = np.unique(np.concatenate([it.keyword_ids for it in items]))
        col_of = {int(t): j for j, t in enumerate(terms)}
        rows, cols, vals = [], [], []
        for i, it in enumerate(items):
            for k, w in zip(it.keyword_ids, it.weights):
                rows.append(i)
                cols.append(col_of[int(k)])
                vals.append(float(w))
        A = sp.csr_matrix(
            (vals, (rows, cols)), shape=(len(items), terms.size), dtype=np.float64
        )
        r = min(self.rank, min(A.shape) - 1)
        if r < 1:
            # Degenerate snapshot (one item or one term): fall back to a
            # rank-1 latent space built from the dense matrix directly.
            dense = np.asarray(A.todense())
            u, s, vt = np.linalg.svd(dense, full_matrices=False)
            r = 1
            u, s, vt = u[:, :1], s[:1], vt[:1]
        else:
            u, s, vt = spla.svds(A, k=r)
            # svds returns singular values ascending; flip for convention.
            order = np.argsort(s)[::-1]
            u, s, vt = u[:, order], s[order], vt[order]
        safe_s = np.where(s > 1e-12, s, 1.0)
        self._doc_vecs = u * s  # item coordinates in latent space
        self._term_map = (vt.T / safe_s).T  # projects a term vector into latent space
        self._local_terms = terms.astype(np.int64)

    def project(self, query: SparseVector) -> np.ndarray:
        """Project a query vector into the latent space."""
        if not self.fitted:
            raise RuntimeError("LsiIndex.fit() has not been called")
        assert self._term_map is not None and self._local_terms is not None
        q = np.zeros(self._local_terms.size)
        pos = np.searchsorted(self._local_terms, query.indices)
        for p, k, w in zip(pos, query.indices, query.values):
            if p < self._local_terms.size and self._local_terms[p] == k:
                q[p] = w
        return self._term_map @ q

    def query(self, query: SparseVector, limit: Optional[int] = None) -> list[tuple[int, float]]:
        """(item_id, latent cosine) pairs, best first; deterministic ties."""
        if not self.fitted:
            raise RuntimeError("LsiIndex.fit() has not been called")
        assert self._doc_vecs is not None
        qv = self.project(query)
        qn = np.linalg.norm(qv)
        if qn == 0.0:
            return []
        dn = np.linalg.norm(self._doc_vecs, axis=1)
        sims = np.zeros(len(self._item_ids))
        nz = dn > 0
        sims[nz] = (self._doc_vecs[nz] @ qv) / (dn[nz] * qn)
        order = np.lexsort((np.asarray(self._item_ids), -sims))
        if limit is not None:
            order = order[:limit]
        return [(self._item_ids[i], float(sims[i])) for i in order]
