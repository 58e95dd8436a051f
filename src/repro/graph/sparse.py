"""Sparse matrix support for constant graph structures.

The temporal-graph adjacency of Eq. 4 has ``(T*N)^2`` entries but only
``O(T * (||A||_0 + N))`` of them are non-zero.  Storing it sparsely and
multiplying it against activation tensors keeps both the memory footprint
and the per-layer cost linear in the graph size, which is the complexity the
paper claims for DyHSL (Section IV-D).

Only *constant* (non-learnable) matrices are stored sparsely; gradients flow
through the dense operand of :func:`sparse_matmul`.

The temporal graph is also block-structured: ``T`` copies of the spatial
block ``A + I`` on the diagonal plus identity links ``N`` rows off it.  On a
dense road graph a CSR product spends most of its time on index
indirection, so every matrix derives a *block form* from its CSR alone
(:meth:`SparseMatrix.block_form`): dense ``b x b`` diagonal blocks that run
as one stacked GEMM, plus the ``+-b`` band.  The form is kept only when
``M * b <= BLOCK_COST_RATIO * nnz``, so the per-product cost stays within
``k * nnz`` (``k`` = :data:`BLOCK_COST_RATIO`) multiply-adds per feature
column either way; sparser graphs keep the CSR product.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np
from scipy import sparse as sp

from ..tensor import Tensor, kernels

__all__ = ["BLOCK_COST_RATIO", "BlockForm", "SparseMatrix", "sparse_matmul"]

#: Cost-model constant ``k``: a matrix keeps its block form when
#: ``M * b <= k * nnz``.  ``M * b`` counts the stacked GEMM's multiply-adds
#: per feature column and ``nnz`` the CSR product's, so ``k`` is how many
#: times faster BLAS runs one multiply-add than the CSR loop does.  Set from
#: the density sweep in ``benchmarks/bench_spmm_forms.py`` (recorded as
#: ``spmm_forms`` in ``BENCH_runtime.json``).
BLOCK_COST_RATIO = 8.0


class BlockForm(NamedTuple):
    """A square matrix as stacked dense diagonal blocks plus a ``+-b`` band.

    ``blocks[t]`` is the ``(b, b)`` diagonal block of rows and columns
    ``t*b .. (t+1)*b``; ``band`` holds the entries exactly ``b`` off the
    diagonal as a CSR of the full shape (``None`` when there are none).
    """

    blocks: np.ndarray
    band: Optional[sp.csr_matrix]


def _block_size(csr) -> Optional[int]:
    """The block size ``b`` of a CSR pattern, or ``None`` when it has none.

    ``b = max|col - row|``.  It is valid when ``b`` divides ``M`` and every
    stored entry lies in a diagonal ``b x b`` block or exactly ``b`` off the
    diagonal; otherwise the whole matrix is one block (``b = M``).
    Non-square and empty matrices have no block form.
    """
    rows, cols = csr.shape
    if rows != cols or csr.nnz == 0:
        return None
    row = np.repeat(np.arange(rows), np.diff(csr.indptr))
    col = csr.indices
    offset = np.abs(col - row)
    size = int(offset.max())
    if size == 0 or rows % size or not np.all((row // size == col // size) | (offset == size)):
        return rows
    return size


def _build_block_form(csr, size: int) -> BlockForm:
    rows = csr.shape[0]
    row = np.repeat(np.arange(rows), np.diff(csr.indptr))
    col, data = csr.indices, csr.data
    inside = row // size == col // size
    blocks = np.zeros((rows // size, size, size), dtype=csr.dtype)
    np.add.at(blocks, (row[inside] // size, row[inside] % size, col[inside] % size), data[inside])
    band = None
    if not inside.all():
        outside = ~inside
        band = sp.csr_matrix((data[outside], (row[outside], col[outside])), shape=csr.shape)
    return BlockForm(blocks, band)


class SparseMatrix:
    """Immutable CSR wrapper around a constant sparse matrix.

    Parameters
    ----------
    matrix:
        Dense array or any ``scipy.sparse`` matrix.  Dense input is
        converted; explicitly stored zeros are pruned.
    """

    def __init__(self, matrix) -> None:
        if sp.issparse(matrix):
            csr = matrix.tocsr().astype(float)
        else:
            dense = np.asarray(matrix, dtype=float)
            if dense.ndim != 2:
                raise ValueError("SparseMatrix requires a 2-D matrix")
            csr = sp.csr_matrix(dense)
        csr.eliminate_zeros()
        self._matrix = csr

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of the matrix."""
        return self._matrix.shape

    @property
    def csr(self):
        """The underlying ``scipy.sparse.csr_matrix`` (treat as read-only)."""
        return self._matrix

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries (``||A||_0`` in the paper)."""
        return int(self._matrix.nnz)

    @property
    def density(self) -> float:
        """Fraction of non-zero entries."""
        rows, cols = self.shape
        total = rows * cols
        return self.nnz / total if total else 0.0

    def to_dense(self) -> np.ndarray:
        """Return a dense copy of the matrix."""
        return self._matrix.toarray()

    def transpose(self) -> "SparseMatrix":
        """Return the transposed matrix."""
        return SparseMatrix(self._matrix.T)

    def transposed(self) -> "SparseMatrix":
        """The transpose, built once and cached on the instance.

        Every ``spmm`` backward multiplies by the transpose; rebuilding the
        CSR transpose per call would cost O(nnz) each time, and caching on
        the (immutable) matrix keeps the lifetime tied to the matrix itself
        rather than any global registry.
        """
        cached = self.__dict__.get("_transposed")
        if cached is None:
            cached = self.transpose()
            self.__dict__["_transposed"] = cached
        return cached

    def with_dtype(self, dtype) -> "SparseMatrix":
        """This matrix with its values cast to ``dtype``, cached per dtype.

        The compiled runtime's float32 execution mode multiplies plan
        buffers against graph constants; casting the CSR value array per
        call would cost O(nnz) on every ``spmm`` step, so the cast copy is
        built once and cached on the (immutable) instance — same lifetime
        rationale as :meth:`transposed`.  The float64 request returns
        ``self`` so the double-precision path keeps its exact arrays.
        """
        dtype = np.dtype(dtype)
        if dtype == self._matrix.dtype:
            return self
        cache = self.__dict__.setdefault("_dtype_variants", {})
        variant = cache.get(dtype)
        if variant is None:
            # Built around the constructor: __init__ coerces values to
            # float64 (the autograd engine's dtype), which would undo the
            # cast this method exists to provide.
            variant = SparseMatrix.__new__(SparseMatrix)
            variant._matrix = self._matrix.astype(dtype)
            cache[dtype] = variant
        return variant

    @property
    def block_size(self) -> Optional[int]:
        """Block size ``b`` of the pattern (``M`` for one block), ``None``
        for non-square or empty matrices."""
        return _block_size(self._matrix)

    def block_form(self) -> Optional[BlockForm]:
        """The block form when the cost model picks it, else ``None``.

        A pure function of the CSR (pattern, values, dtype), built once and
        cached on the instance like :meth:`transposed`: every holder of an
        equal matrix — autograd, a compiled plan, a float32 variant, the
        transpose, an artifact-decoded copy — chooses the same form, so the
        products they compute stay bit-identical.
        """
        if "_block_form" not in self.__dict__:
            size = self.block_size
            keep = size is not None and self.shape[0] * size <= BLOCK_COST_RATIO * self.nnz
            self.__dict__["_block_form"] = _build_block_form(self._matrix, size) if keep else None
        return self.__dict__["_block_form"]

    def __repr__(self) -> str:
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def sparse_matmul(matrix: SparseMatrix, dense: Tensor) -> Tensor:
    """Compute ``matrix @ dense`` with gradients flowing into ``dense``.

    Parameters
    ----------
    matrix:
        Constant sparse matrix of shape ``(M, K)``.
    dense:
        Tensor of shape ``(K, F)`` or ``(B, K, F)``.

    Returns
    -------
    Tensor
        Contiguous result of shape ``(M, F)`` or ``(B, M, F)``, recorded
        as one ``spmm`` op.  Batched input stays batch-major: the kernel
        (:func:`repro.tensor.kernels.spmm`) multiplies each batch slice,
        with no transpose of the batch into the feature axis.  The backward
        is the same kernel against the cached transpose.
    """
    if not isinstance(matrix, SparseMatrix):
        raise TypeError("matrix must be a SparseMatrix")
    if not isinstance(dense, Tensor):
        dense = Tensor(dense)
    if dense.ndim not in (2, 3):
        raise ValueError("sparse_matmul supports 2-D or 3-D dense operands")
    if dense.shape[-2] != matrix.shape[1]:
        raise ValueError(f"dimension mismatch: sparse {matrix.shape} @ dense {dense.shape}")
    data = kernels.spmm(dense.data, matrix=matrix)

    def grad_fn(g: np.ndarray) -> np.ndarray:
        return kernels.spmm(g, matrix=matrix.transposed())

    return Tensor._make(data, (dense,), (grad_fn,), op=("spmm", {"matrix": matrix}))
