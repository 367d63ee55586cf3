/**
 * @file
 * Sparse Cholesky (L Lᵀ) factorization of a symmetric positive
 * definite CsrMatrix.
 *
 * The implicit integrators solve one fixed matrix C/dt + s·G once per
 * step for a whole power trace, and a steady impulse build solves G
 * once per floorplan block, so paying for a factorization once and
 * answering every right-hand side with two triangular solves beats
 * any per-solve iteration (the same trade as impulse superposition:
 * pay once per network, then answer each query with a cheap exact
 * operation). The work splits into four parts:
 *
 *  - a fill-reducing approximate minimum degree ordering on the
 *    quotient graph (Amestoy, Davis and Duff's AMD: element
 *    absorption, approximate external degrees kept in degree lists,
 *    indistinguishable-node detection by hashing, and mass
 *    elimination; rows denser than 10·√n are ordered last);
 *  - symbolic analysis of the permuted pattern: the elimination tree,
 *    the column counts of L (so nnz(L) is known — and can be weighed
 *    against a memory budget — before any numeric work), and L's
 *    supernodes: runs of consecutive columns that share one row
 *    structure below their diagonal block;
 *  - a left-looking supernodal numeric factorization: each supernode
 *    is a dense block under a shared row list, stored as column-major
 *    panels of 16 columns that each start at their own first row, and
 *    updated by earlier supernodes through register-tiled dense
 *    kernels;
 *  - forward and back substitution, for one right-hand side (column
 *    by column, allocating nothing) or for k at once (each supernode
 *    visited once for all k).
 *
 * The constructor runs the ordering and the symbolic analysis only;
 * factor() allocates L and fills it. A non-positive or non-finite
 * pivot is reported by factor()'s return value, never by fatal(),
 * so the caller can fall back to an iterative solve.
 *
 * Only the upper triangle of A (in the permuted order) is read by the
 * numeric phase, so A must be symmetric for L Lᵀ to equal A; callers
 * check that first (CsrMatrix::isSymmetric) and verify each answer.
 */

#ifndef IRTHERM_NUMERIC_SPARSE_CHOLESKY_HH
#define IRTHERM_NUMERIC_SPARSE_CHOLESKY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "numeric/mapped_allocator.hh"
#include "numeric/sparse.hh"

namespace irtherm
{

class SparseCholesky
{
  public:
    /**
     * Order @p a's pattern, count L's entries and find its supernodes
     * and their row lists; no numeric work and no storage for L's
     * values yet. @pre a is square (fatal() otherwise).
     */
    explicit SparseCholesky(const CsrMatrix &a);

    std::size_t dimension() const { return perm.size(); }

    /** Entries of L including its diagonal, from the symbolic count. */
    std::size_t factorNonZeros() const { return nnzL; }

    /** Pivot order: row/column perm[k] of A is eliminated k-th. */
    const std::vector<std::size_t> &permutation() const { return perm; }

    /**
     * Supernode boundaries in pivot order: supernode s holds columns
     * [supernodes()[s], supernodes()[s + 1]); the last entry is
     * dimension().
     */
    const std::vector<std::size_t> &supernodes() const
    {
        return superStart;
    }

    /** Number of supernodes (1 ≤ count ≤ dimension() when n > 0). */
    std::size_t supernodeCount() const { return superStart.size() - 1; }

    /**
     * Floating-point operations of the numeric phase, from the
     * symbolic counts: Σ_j c_j² over L's column counts c_j (a
     * multiply-add counts two).
     */
    double factorFlops() const { return flops; }

    /**
     * Factor @p a, which must have the pattern analyzed at
     * construction. Returns false when a pivot is not positive and
     * finite (A indefinite, singular or holding NaN/Inf); failure()
     * then names the pivot and solve() may not be called.
     */
    bool factor(const CsrMatrix &a);

    /** True after a successful factor(). */
    bool factored() const { return ok; }

    /** Why the last factor() failed ("" after a success). */
    const std::string &failure() const { return why; }

    /**
     * Solve A x = b by forward and back substitution; @p x is resized
     * (no allocation once it has the right size). Not thread-safe:
     * the permuted scratch vector is a member.
     * @pre factored(), b.size() == dimension()
     */
    void solve(const std::vector<double> &b, std::vector<double> &x);

    /**
     * Solve A X = B in place for @p k right-hand sides: @p bx holds B
     * column-major (n×k) and is overwritten with X. Each supernode is
     * visited once per pass of up to 8 columns, and each column takes
     * the same operations in the same order as solve() of that column.
     * @pre factored(), bx.size() == dimension() · k
     */
    void solve(std::vector<double> &bx, std::size_t k);

  private:
    /**
     * Where column @p c of supernode @p s sits in values: entry t of
     * the supernode's row list is at values[columnOffset(s, c) + t],
     * for every t at or below the first row of c's panel.
     */
    std::size_t columnOffset(std::size_t s, std::size_t c) const;

    /**
     * Forward and back substitution on @p y, the permuted right-hand
     * sides row-major (n×k); @p gather is scratch.
     */
    void substitute(double *y, std::size_t k,
                    std::vector<double> &gather) const;

    std::vector<std::size_t> perm;  ///< pivot k -> original index
    std::vector<std::size_t> iperm; ///< original index -> pivot
    std::size_t nnzL = 0;           ///< symbolic nnz(L)
    double flops = 0.0;             ///< see factorFlops()
    /** Supernode s: columns [superStart[s], superStart[s + 1]). */
    std::vector<std::size_t> superStart;
    /**
     * Supernode s's rows: rowIdx[rowStart[s] .. rowStart[s + 1]),
     * sorted, its own columns first.
     */
    std::vector<std::size_t> rowStart;
    MappedVector<std::uint32_t> rowIdx;
    /**
     * Supernode s's block: values[valStart[s] ..], rows × columns in
     * panels of 16 columns. Panel p holds its columns from row 16·p
     * down, column-major with that row count as leading dimension, so
     * the block's upper triangle is stored only inside each panel's
     * leading square, and never read.
     */
    std::vector<std::size_t> valStart;
    MappedVector<double> values;
    std::vector<double> work; ///< permuted rhs / solution
    bool ok = false;
    std::string why;
};

} // namespace irtherm

#endif // IRTHERM_NUMERIC_SPARSE_CHOLESKY_HH
