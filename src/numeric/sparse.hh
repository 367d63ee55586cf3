/**
 * @file
 * Compressed-sparse-row matrix plus a triplet-based builder.
 *
 * Grid-mode RC networks have thousands of nodes with a 7-point
 * stencil; CSR keeps matvec cheap for the iterative solvers and the
 * explicit transient integrators.
 */

#ifndef IRTHERM_NUMERIC_SPARSE_HH
#define IRTHERM_NUMERIC_SPARSE_HH

#include <cstddef>
#include <vector>

namespace irtherm
{

/** Immutable CSR matrix; construct through SparseBuilder. */
class CsrMatrix
{
  public:
    CsrMatrix() : numRows(0), numCols(0) { rowPtr.push_back(0); }

    std::size_t rows() const { return numRows; }
    std::size_t cols() const { return numCols; }
    std::size_t nonZeros() const { return values.size(); }

    /** y = A * x. @pre x.size() == cols() */
    std::vector<double> multiply(const std::vector<double> &x) const;

    /**
     * y = A * x, overwriting @p y (resized as needed). Unlike
     * multiplyAccumulate this needs no zero-fill pass, which matters
     * inside solver loops that recompute A p every iteration.
     */
    void apply(const std::vector<double> &x, std::vector<double> &y) const;

    /**
     * y += alpha * A * x, in place.
     *
     * Rows are independent, so both matvec kernels run on the shared
     * ThreadPool above a size threshold; chunk boundaries depend only
     * on the row count, keeping results bit-identical to the serial
     * path at any thread count.
     */
    void multiplyAccumulate(const std::vector<double> &x,
                            std::vector<double> &y, double alpha) const;

    /** Extract the diagonal (zeros where no stored entry exists). */
    std::vector<double> diagonal() const;

    /** Element lookup by binary search within the row; 0 if absent. */
    double at(std::size_t r, std::size_t c) const;

    /**
     * Symmetry check: true when |a_ij - a_ji| <= tol * max|a| for all
     * stored entries. Thermal conductance matrices must satisfy this.
     */
    bool isSymmetric(double tol) const;

    /** Raw CSR arrays (row pointers, column indices, values). */
    const std::vector<std::size_t> &rowPointers() const { return rowPtr; }
    const std::vector<std::size_t> &columnIndices() const { return cols_; }
    const std::vector<double> &storedValues() const { return values; }

  private:
    friend class SparseBuilder;

    std::size_t numRows;
    std::size_t numCols;
    std::vector<std::size_t> rowPtr;
    std::vector<std::size_t> cols_;
    std::vector<double> values;
};

/**
 * Accumulating triplet builder: duplicate (row, col) entries are
 * summed, which is exactly the stamping pattern of conductance
 * assembly. Duplicates are summed in the order they were stamped
 * (starting from +0.0), so the assembled values depend only on the
 * stamp sequence.
 */
class SparseBuilder
{
  public:
    SparseBuilder(std::size_t rows, std::size_t cols);

    /** Stamp a += value at (r, c). */
    void add(std::size_t r, std::size_t c, double value);

    /**
     * Stamp a two-terminal conductance between nodes @p a and @p b:
     * +g on both diagonals, -g on both off-diagonals.
     */
    void stampConductance(std::size_t a, std::size_t b, double g);

    /** Stamp a conductance from node @p a to ground: +g on diagonal. */
    void stampGroundConductance(std::size_t a, double g);

    /**
     * Produce the CSR matrix (columns strictly increasing within each
     * row, arrays sized to the merged entry count) in O(stamps + rows):
     * a stable counting sort buckets the stamps by row, each row is
     * stably sorted by column, and duplicates are summed in stamp
     * order.
     */
    CsrMatrix build() const;

  private:
    std::size_t numRows;
    std::size_t numCols;
    std::vector<std::size_t> tripRow;
    std::vector<std::size_t> tripCol;
    std::vector<double> tripVal;
};

} // namespace irtherm

#endif // IRTHERM_NUMERIC_SPARSE_HH
