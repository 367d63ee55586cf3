/**
 * @file
 * Sparse Cholesky (L Lᵀ) factorization of a symmetric positive
 * definite CsrMatrix.
 *
 * The implicit integrators solve one fixed matrix C/dt + s·G once per
 * step for a whole power trace, so paying for a factorization once
 * and answering every step with two triangular solves beats any
 * per-step iteration (the same trade as impulse superposition: pay
 * once per network, then answer each query with a cheap exact
 * operation). The work splits into four parts:
 *
 *  - a fill-reducing approximate minimum degree ordering on the
 *    quotient graph (Amestoy, Davis and Duff's AMD: element
 *    absorption, approximate external degrees kept in degree lists,
 *    indistinguishable-node detection by hashing, and mass
 *    elimination; rows denser than 10·√n are ordered last);
 *  - symbolic analysis of the permuted pattern: the elimination tree
 *    and the column counts of L, so nnz(L) is known — and can be
 *    weighed against a memory budget — before any numeric work;
 *  - a left-looking numeric factorization over L's precomputed
 *    column structure;
 *  - forward and back substitution that allocate nothing.
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

#include "numeric/sparse.hh"

namespace irtherm
{

class SparseCholesky
{
  public:
    /**
     * Order @p a's pattern and count L's entries; no numeric work and
     * no storage for L yet. @pre a is square (fatal() otherwise).
     */
    explicit SparseCholesky(const CsrMatrix &a);

    std::size_t dimension() const { return perm.size(); }

    /** Entries of L including its diagonal, from the symbolic count. */
    std::size_t factorNonZeros() const { return colPtr.back(); }

    /** Pivot order: row/column perm[k] of A is eliminated k-th. */
    const std::vector<std::size_t> &permutation() const { return perm; }

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

  private:
    std::vector<std::size_t> perm;  ///< pivot k -> original index
    std::vector<std::size_t> iperm; ///< original index -> pivot
    std::vector<std::size_t> parent; ///< elimination tree of P A Pᵀ
    std::vector<std::size_t> colPtr; ///< L's columns, from the counts
    std::vector<std::uint32_t> rowIdx; ///< L's row indices (sorted)
    std::vector<double> values;        ///< L's entries
    std::vector<double> work;          ///< permuted rhs / solution
    bool ok = false;
    std::string why;
};

} // namespace irtherm

#endif // IRTHERM_NUMERIC_SPARSE_CHOLESKY_HH
